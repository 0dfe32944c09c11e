package monitor

import (
	"testing"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/engine"
	"sqlcm/internal/plan"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

func TestParseEvent(t *testing.T) {
	// Every event in the schema must round-trip through its String form.
	all := AllEvents()
	if len(all) == 0 || len(all) != NumEvents() {
		t.Fatalf("AllEvents returned %d events, NumEvents = %d", len(all), NumEvents())
	}
	for _, want := range all {
		t.Run(want.String(), func(t *testing.T) {
			ev, err := ParseEvent(want.String())
			if err != nil {
				t.Fatalf("ParseEvent(%q): %v", want.String(), err)
			}
			if ev != want {
				t.Errorf("round trip: %q -> %v", want.String(), ev)
			}
			idx, ok := EventIndex(ev)
			if !ok || idx < 0 || idx >= NumEvents() {
				t.Errorf("EventIndex(%v) = %d, %v", ev, idx, ok)
			}
		})
	}
	// Known spellings stay stable even if the schema order changes.
	known := []struct {
		in   string
		want Event
	}{
		{"Query.Start", EvQueryStart},
		{"Query.Compile", EvQueryCompile},
		{"Query.Commit", EvQueryCommit},
		{"Query.Cancel", EvQueryCancel},
		{"Query.Rollback", EvQueryRollback},
		{"Query.Blocked", EvQueryBlocked},
		{"Query.Block_Released", EvQueryBlockReleased},
		{"Transaction.Commit", EvTxnCommit},
		{"Transaction.Rollback", EvTxnRollback},
		{"Timer.Alarm", EvTimerAlarm},
		{"LATRow.Evicted", EvLATRowEvicted},
	}
	for _, tc := range known {
		ev, err := ParseEvent(tc.in)
		if err != nil {
			t.Errorf("ParseEvent(%q): %v", tc.in, err)
			continue
		}
		if ev != tc.want {
			t.Errorf("ParseEvent(%q) = %v, want %v", tc.in, ev, tc.want)
		}
	}
	// Unknown and malformed inputs are rejected.
	bad := []string{
		"", ".", "Query", "Query.", ".Start", "Query.Nope", "Table.Commit",
		"query.commit", "QUERY.COMMIT", "Query .Commit", "Query.Commit ",
		"Query.Commit.Extra", "Foo.Bar", "Transaction", "Timer.alarm",
	}
	for _, s := range bad {
		if ev, err := ParseEvent(s); err == nil {
			t.Errorf("ParseEvent(%q) = %v, want error", s, ev)
		}
	}
}

// TestEventIndexRejectsUnknown pins the dense-index contract the event
// bus relies on for its counter array.
func TestEventIndexRejectsUnknown(t *testing.T) {
	if idx, ok := EventIndex(Event{Class: "Nope", Name: "Nope"}); ok {
		t.Errorf("EventIndex(unknown) = %d, true", idx)
	}
	seen := make(map[int]bool)
	for _, ev := range AllEvents() {
		idx, ok := EventIndex(ev)
		if !ok {
			t.Fatalf("EventIndex(%v) missing", ev)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
}

func testQueryInfo() *engine.QueryInfo {
	return &engine.QueryInfo{
		ID:            7,
		SessionID:     3,
		User:          "alice",
		App:           "billing",
		Text:          "SELECT 1",
		Type:          engine.QuerySelect,
		StartTime:     time.Now().Add(-2 * time.Second),
		EstimatedCost: 12.5,
		Instances:     4,
	}
}

func TestQueryObjectAttributes(t *testing.T) {
	qi := testQueryInfo()
	qi.AddBlocked(300 * time.Millisecond)
	qi.AddQueryBlocked()
	obj := NewQueryObject(qi, &Sigs{Logical: 0xabc, Physical: 0xdef})

	cases := map[string]sqltypes.Value{
		"ID":                  sqltypes.NewInt(7),
		"Session_ID":          sqltypes.NewInt(3),
		"User":                sqltypes.NewString("alice"),
		"Application":         sqltypes.NewString("billing"),
		"Query_Text":          sqltypes.NewString("SELECT 1"),
		"Query_Type":          sqltypes.NewString("SELECT"),
		"Estimated_Cost":      sqltypes.NewFloat(12.5),
		"Times_Blocked":       sqltypes.NewInt(1),
		"Queries_Blocked":     sqltypes.NewInt(1),
		"Number_of_instances": sqltypes.NewInt(4),
	}
	for attr, want := range cases {
		got, ok := obj.Get(attr)
		if !ok {
			t.Errorf("Get(%q) missing", attr)
			continue
		}
		if sqltypes.Compare(got, want) != 0 {
			t.Errorf("Get(%q) = %v, want %v", attr, got, want)
		}
	}
	// Live duration reflects elapsed time.
	if d, _ := obj.Get("Duration"); d.Float() < 1.9 {
		t.Errorf("live Duration = %v", d)
	}
	// Frozen duration.
	obj.DurationAt = 500 * time.Millisecond
	if d, _ := obj.Get("Duration"); d.Float() != 0.5 {
		t.Errorf("frozen Duration = %v", d)
	}
	if tb, _ := obj.Get("Time_Blocked"); tb.Float() != 0.3 {
		t.Errorf("Time_Blocked = %v", tb)
	}
	if sig, _ := obj.Get("Logical_Signature"); sig.Str() != "0000000000000abc" {
		t.Errorf("Logical_Signature = %v", sig)
	}
	if _, ok := obj.Get("No_Such"); ok {
		t.Error("unknown attribute resolved")
	}
	if obj.Class() != ClassQuery {
		t.Errorf("class: %s", obj.Class())
	}
	// Blocker/Blocked share the schema but report their own class.
	if NewBlockerObject(qi, nil).Class() != ClassBlocker {
		t.Error("blocker class")
	}
	bo := NewBlockedObject(qi, nil, 250*time.Millisecond)
	if bo.Class() != ClassBlocked {
		t.Error("blocked class")
	}
	if w, _ := bo.Get("Wait_Time"); w.Float() != 0.25 {
		t.Errorf("Wait_Time = %v", w)
	}
}

func TestQueryAttributesSchemaCoversObject(t *testing.T) {
	qi := testQueryInfo()
	obj := NewQueryObject(qi, &Sigs{})
	for _, attr := range QueryAttributes() {
		if _, ok := obj.Get(attr.Name); !ok {
			t.Errorf("schema attribute %q not gettable", attr.Name)
		}
	}
}

func TestTransactionAttributesSchemaCoversObject(t *testing.T) {
	tr := NewTxnTracker()
	info := &engine.TxnInfo{ID: 1, StartTime: time.Now()}
	tr.Observe(info, &Sigs{Logical: 10, Physical: 20}, 0)
	obj := tr.Finish(info, time.Second)
	for _, attr := range TransactionAttributes() {
		if _, ok := obj.Get(attr.Name); !ok {
			t.Errorf("schema attribute %q not gettable", attr.Name)
		}
	}
}

// TestObjectsAnswerOnlySchemaAttributes is the converse of the two tests
// above: the id switches of Query/Blocker/Blocked and Transaction objects
// answer exactly the ids of their schema's names, and every probe reads
// what Get returns, so schema.go and the objects cannot drift.
func TestObjectsAnswerOnlySchemaAttributes(t *testing.T) {
	names := map[int]string{}
	for _, a := range append(QueryAttributes(), TransactionAttributes()...) {
		names[attrID(a.Name)] = a.Name
	}
	qi := testQueryInfo()
	tr := NewTxnTracker()
	info := &engine.TxnInfo{ID: 1, StartTime: time.Now()}
	tr.Observe(info, &Sigs{Logical: 10, Physical: 20}, 0)
	txn := tr.Finish(info, time.Second)
	for _, tc := range []struct {
		obj   Object
		attrs []Attribute
		attr  func(int) (sqltypes.Value, bool)
	}{
		{NewQueryObject(qi, &Sigs{Logical: 1}), QueryAttributes(), nil},
		{NewBlockerObject(qi, &Sigs{}), QueryAttributes(), nil},
		{NewBlockedObject(qi, &Sigs{}, time.Second), QueryAttributes(), nil},
		{txn, TransactionAttributes(), txn.attr},
	} {
		attr := tc.attr
		if attr == nil {
			attr = tc.obj.(*QueryObject).attr
		}
		inSchema := map[string]bool{}
		for _, a := range tc.attrs {
			inSchema[a.Name] = true
		}
		for id := -2; id < len(names)+8; id++ {
			if _, ok := attr(id); ok != inSchema[names[id]] {
				t.Errorf("%s: attribute id %d (%q) answered = %v, in schema = %v", tc.obj.Class(), id, names[id], ok, inSchema[names[id]])
			}
		}
		for _, a := range tc.attrs {
			got, ok := NewProbe(a.Name).Of(tc.obj)
			want, _ := tc.obj.Get(a.Name)
			if !ok || (a.Name != "Duration" && sqltypes.Compare(got, want) != 0) {
				t.Errorf("%s: probe %s = %v, %v; Get = %v", tc.obj.Class(), a.Name, got, ok, want)
			}
		}
		if _, ok := NewProbe("No_Such").Of(tc.obj); ok {
			t.Errorf("%s: unknown probe answered", tc.obj.Class())
		}
	}
	if len(classIDs) != NumClasses || len(classAttributes) != NumClasses {
		t.Errorf("NumClasses = %d, but %d class ids and %d class schemas", NumClasses, len(classIDs), len(classAttributes))
	}
	for class, id := range classIDs {
		if _, ok := classAttributes[class]; !ok || id < 0 || id >= NumClasses {
			t.Errorf("class %s: id %d, schema %v", class, id, ok)
		}
	}
}

func TestSigCacheMemoizes(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.CreateTable("t", []catalog.Column{{Name: "a", Type: sqltypes.KindInt, PrimaryKey: true, NotNull: true}}); err != nil {
		t.Fatal(err)
	}
	stmt, _ := sqlparser.Parse("SELECT a FROM t WHERE a = 1")
	l, err := plan.BuildLogical(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Optimize(l, cat)
	if err != nil {
		t.Fatal(err)
	}
	qi := &engine.QueryInfo{Logical: l, Physical: p, Sigs: new(engine.SigSlot)}
	c := NewSigCache()
	s1 := c.For(qi)
	s2 := c.For(qi)
	if s1 != s2 {
		t.Error("cache miss on identical plan")
	}
	if c.Computes() != 1 {
		t.Errorf("computes: %d", c.Computes())
	}
	if s1.Logical == 0 || s1.Physical == 0 {
		t.Error("zero signatures")
	}
	// Nil plan (DDL) yields empty signatures without panicking.
	empty := c.For(&engine.QueryInfo{})
	if empty.Logical != 0 {
		t.Error("nil-plan signature should be zero")
	}
}

func TestTxnTrackerSequences(t *testing.T) {
	tr := NewTxnTracker()
	info := &engine.TxnInfo{ID: 1, SessionID: 9, User: "u", App: "a", StartTime: time.Now()}
	info2 := &engine.TxnInfo{ID: 2}
	tr.Observe(info, &Sigs{Logical: 10, Physical: 20}, 100*time.Millisecond)
	tr.Observe(info, &Sigs{Logical: 11, Physical: 21}, 50*time.Millisecond)
	tr.Observe(info2, &Sigs{Logical: 10, Physical: 20}, 0)

	obj := tr.Finish(info, time.Second)
	if obj.NQueries != 2 {
		t.Fatalf("NQueries = %d", obj.NQueries)
	}
	if obj.TimeBlocked != 150*time.Millisecond {
		t.Fatalf("TimeBlocked = %v", obj.TimeBlocked)
	}
	if obj.LogicalSig == 0 || obj.PhysicalSig == 0 {
		t.Fatal("zero transaction signatures")
	}
	// Different statement sequences produce different signatures.
	obj2 := tr.Finish(info2, time.Second)
	if obj2.LogicalSig == obj.LogicalSig {
		t.Fatal("distinct sequences share a signature")
	}
	// Tracker state is consumed.
	obj3 := tr.Finish(info, 0)
	if obj3.NQueries != 0 {
		t.Fatal("tracker state leaked across Finish")
	}
	// Object attribute surface.
	if v, _ := obj.Get("Duration"); v.Float() != 1 {
		t.Errorf("Duration = %v", v)
	}
	if v, _ := obj.Get("Number_of_instances"); v.Int() != 2 {
		t.Errorf("Number_of_instances = %v", v)
	}
	if obj.Class() != ClassTransaction {
		t.Error("class")
	}
}

func TestTimerAndLATRowObjects(t *testing.T) {
	now := time.Now()
	to := &TimerObject{Name: "t1", Now: now, Seq: 3}
	if to.Class() != ClassTimer {
		t.Error("timer class")
	}
	if v, _ := to.Get("Name"); v.Str() != "t1" {
		t.Error("timer name")
	}
	if v, _ := to.Get("Current_Time"); !v.Time().Equal(now) {
		t.Error("timer time")
	}
	if v, _ := to.Get("Alarm_Count"); v.Int() != 3 {
		t.Error("alarm count")
	}

	lr := &LATRowObject{
		LAT:     "TopQ",
		Columns: []string{"Sig", "AvgD"},
		Values:  []sqltypes.Value{sqltypes.NewString("s"), sqltypes.NewFloat(4.5)},
	}
	if lr.Class() != ClassLATRow {
		t.Error("latrow class")
	}
	if v, _ := lr.Get("AvgD"); v.Float() != 4.5 {
		t.Error("latrow column")
	}
	if v, _ := lr.Get("LAT"); v.Str() != "TopQ" {
		t.Error("latrow LAT attr")
	}
	if _, ok := lr.Get("missing"); ok {
		t.Error("latrow unknown column resolved")
	}
}
