package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/rules"
	"sqlcm/internal/sqltypes"
)

func newMonitored(t *testing.T) (*engine.Engine, *SQLCM) {
	t.Helper()
	eng, err := engine.Open(engine.Config{LockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s := Attach(eng, Options{})
	t.Cleanup(func() {
		s.Detach()
		eng.Close()
	})
	return eng, s
}

// flush quiesces the async action outbox so tests can read side effects.
func flush(t *testing.T, s *SQLCM) {
	t.Helper()
	if !s.Flush(5 * time.Second) {
		t.Fatal("outbox did not drain")
	}
}

func mustExec(t *testing.T, sess *engine.Session, sql string) *engine.Result {
	t.Helper()
	res, err := sess.Exec(sql, nil)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func seed(t *testing.T, sess *engine.Session) {
	t.Helper()
	mustExec(t, sess, "CREATE TABLE items (id INT PRIMARY KEY, grp INT, val FLOAT)")
	for i := 1; i <= 200; i++ {
		mustExec(t, sess, fmt.Sprintf("INSERT INTO items VALUES (%d, %d, %g)", i, i%10, float64(i)))
	}
}

func TestSlowQueryPersistRule(t *testing.T) {
	// The paper's §2.3 example: persist queries slower than a threshold.
	// Thresholds here are tiny since our queries are fast.
	eng, s := newMonitored(t)
	sess := eng.NewSession("dba", "app")
	seed(t, sess)
	if _, err := s.NewRule("slow", "Query.Commit", "Query.Duration > 0.000000001",
		&rules.PersistAction{Table: "slow_q", Attrs: []string{"ID", "Query_Text", "Duration"}},
	); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, "SELECT COUNT(*) FROM items")
	flush(t, s)
	rows, err := eng.ReadTableDirect("slow_q")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("persisted rows: %d", len(rows))
	}
	// Columns: ID, Query_Text, Duration, sqlcm_ts.
	if len(rows[0]) != 4 || !strings.Contains(rows[0][1].Str(), "COUNT(*)") {
		t.Fatalf("row: %v", rows[0])
	}
	if rows[0][3].Kind() != sqltypes.KindTime {
		t.Fatal("timestamp column missing")
	}
}

func TestExample1OutlierDetection(t *testing.T) {
	// Example 1: detect stored-procedure instances 5x slower than average,
	// grouped by logical signature. We use a procedure whose work depends
	// on a parameter to create genuine duration differences. The table is
	// the test's own and large: the outlier reads 20 000 rows against the
	// baseline's one, so its duration stays far above 5x the average even
	// when a preempted baseline call inflates it.
	const outlierRows = 20000
	eng, s := newMonitored(t)
	sess := eng.NewSession("dba", "app")
	mustExec(t, sess, "CREATE TABLE readings (id INT PRIMARY KEY, val FLOAT)")
	var ins strings.Builder
	for i := 1; i <= outlierRows; i++ {
		if ins.Len() == 0 {
			ins.WriteString("INSERT INTO readings VALUES ")
		} else {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d)", i, i)
		if i%1000 == 0 {
			mustExec(t, sess, ins.String())
			ins.Reset()
		}
	}
	mustExec(t, sess, `CREATE PROCEDURE lookup (@lo INT, @hi INT) AS BEGIN
		SELECT SUM(val) FROM readings WHERE id >= @lo AND id <= @hi;
	END`)

	if _, err := s.DefineLAT(lat.Spec{
		Name:    "Duration_LAT",
		GroupBy: []string{"Logical_Signature"},
		Aggs:    []lat.AggCol{{Func: lat.Avg, Attr: "Duration", Name: "Avg_Duration"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("outlier", "Query.Commit",
		"Query.Duration > 5 * Duration_LAT.Avg_Duration",
		&rules.PersistAction{Table: "outliers", Attrs: []string{"ID", "Query_Text", "Duration"}},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("maintain", "Query.Commit", "",
		&rules.InsertAction{LAT: "Duration_LAT"},
	); err != nil {
		t.Fatal(err)
	}

	// Build a baseline with tiny invocations (single row).
	for i := 0; i < 30; i++ {
		mustExec(t, sess, "EXEC lookup 5, 5")
	}
	// Outlier candidate: same template, 20 000x the rows.
	for i := 0; i < 5; i++ {
		mustExec(t, sess, fmt.Sprintf("EXEC lookup 1, %d", outlierRows))
	}
	flush(t, s)
	rows, err := eng.ReadTableDirect("outliers")
	if err != nil {
		t.Fatalf("no outliers persisted: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("outlier detection found nothing")
	}
	// Every outlier is the parameterized template, same logical signature.
	for _, r := range rows {
		if !strings.Contains(r[1].Str(), "@") {
			t.Fatalf("unexpected outlier text: %v", r[1])
		}
	}
	lt, _ := s.LAT("Duration_LAT")
	if lt.Len() != 1 {
		t.Fatalf("expected one signature group, got %d", lt.Len())
	}
}

func TestExample2BlockingDelays(t *testing.T) {
	// Example 2: total blocking delay grouped by blocking statement.
	eng, s := newMonitored(t)
	sess := eng.NewSession("writer", "app")
	seed(t, sess)

	if _, err := s.DefineLAT(lat.Spec{
		Name:    "Block_LAT",
		GroupBy: []string{"Blocker.Query_Text"},
		Aggs: []lat.AggCol{
			{Func: lat.Sum, Attr: "Blocked.Wait_Time", Name: "Total_Wait"},
			{Func: lat.Count, Name: "N"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("blocking", "Query.Block_Released", "",
		&rules.InsertAction{LAT: "Block_LAT"},
	); err != nil {
		t.Fatal(err)
	}

	mustExec(t, sess, "BEGIN")
	mustExec(t, sess, "UPDATE items SET val = 0 WHERE id = 1")

	// MVCC reads never block, so the blocked statement is a second writer.
	waiter := eng.NewSession("waiter", "app")
	done := make(chan error, 1)
	go func() {
		_, err := waiter.Exec("UPDATE items SET val = 2 WHERE id = 1", nil)
		done <- err
	}()
	time.Sleep(120 * time.Millisecond)
	mustExec(t, sess, "COMMIT")
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	lt, _ := s.LAT("Block_LAT")
	rows := lt.Rows()
	if len(rows) != 1 {
		t.Fatalf("blocking groups: %d", len(rows))
	}
	if !strings.Contains(rows[0][0].Str(), "UPDATE items") {
		t.Fatalf("blocker text: %v", rows[0][0])
	}
	if rows[0][1].Float() < 0.1 {
		t.Fatalf("total wait: %v (expected >= 0.1s)", rows[0][1])
	}
	if rows[0][2].Int() != 1 {
		t.Fatalf("count: %v", rows[0][2])
	}
}

func TestExample3TopK(t *testing.T) {
	// Example 3: top-k most expensive queries in a bounded ordered LAT.
	eng, s := newMonitored(t)
	sess := eng.NewSession("dba", "app")
	seed(t, sess)
	if _, err := s.DefineLAT(lat.Spec{
		Name:    "TopQ",
		GroupBy: []string{"ID"},
		Aggs: []lat.AggCol{
			{Func: lat.Max, Attr: "Duration", Name: "Duration"},
			{Func: lat.First, Attr: "Query_Text", Name: "Query_Text"},
		},
		OrderBy: []lat.OrderKey{{Col: "Duration", Desc: true}},
		MaxRows: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("topk", "Query.Commit", "",
		&rules.InsertAction{LAT: "TopQ"},
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		mustExec(t, sess, fmt.Sprintf("SELECT val FROM items WHERE id = %d", i+1))
	}
	// A few expensive aggregations should dominate the top-5.
	for i := 0; i < 3; i++ {
		mustExec(t, sess, fmt.Sprintf("SELECT grp, SUM(val), COUNT(*) FROM items GROUP BY grp HAVING SUM(val) > %d", i))
	}
	lt, _ := s.LAT("TopQ")
	if lt.Len() != 5 {
		t.Fatalf("topk size: %d", lt.Len())
	}
	rows := lt.Rows()
	// Descending by duration.
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].Float() < rows[i][1].Float() {
			t.Fatalf("not sorted: %v", rows)
		}
	}
	// Persist via action.
	if err := s.PersistLAT("TopQ", "topq_report"); err != nil {
		t.Fatal(err)
	}
	persisted, err := eng.ReadTableDirect("topq_report")
	if err != nil || len(persisted) != 5 {
		t.Fatalf("persist: %d rows, %v", len(persisted), err)
	}
}

func TestExample4AuditWithTimer(t *testing.T) {
	// Example 4: per-template usage summary persisted periodically.
	eng, s := newMonitored(t)
	sess := eng.NewSession("app_user", "billing")
	seed(t, sess)
	if _, err := s.DefineLAT(lat.Spec{
		Name:    "Usage",
		GroupBy: []string{"Logical_Signature"},
		Aggs: []lat.AggCol{
			{Func: lat.Count, Name: "Freq"},
			{Func: lat.Avg, Attr: "Duration", Name: "Avg_Dur"},
			{Func: lat.Max, Attr: "Duration", Name: "Max_Dur"},
			{Func: lat.First, Attr: "Query_Text", Name: "Sample"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("collect", "Query.Commit", "",
		&rules.InsertAction{LAT: "Usage"},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("flush", "Timer.Alarm", "",
		&rules.PersistAction{Table: "usage_report", FromLAT: "Usage"},
		&rules.ResetAction{LAT: "Usage"},
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustExec(t, sess, fmt.Sprintf("SELECT val FROM items WHERE id = %d", i+1))
	}
	mustExec(t, sess, "SELECT COUNT(*) FROM items")
	// Fire the periodic flush once.
	if err := s.Timers().Set("audit", 30*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	rows, err := eng.ReadTableDirect("usage_report")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // two templates: point select and count
		t.Fatalf("usage groups: %d (%v)", len(rows), rows)
	}
	var pointRow []sqltypes.Value
	for _, r := range rows {
		if r[1].Int() == 20 {
			pointRow = r
		}
	}
	if pointRow == nil {
		t.Fatalf("point-select template not found: %v", rows)
	}
	lt, _ := s.LAT("Usage")
	if lt.Len() != 0 {
		t.Fatal("Reset after flush did not clear the LAT")
	}
}

func TestExample5ResourceGoverning(t *testing.T) {
	// Example 5: cancel a runaway query via a timer-driven watchdog rule
	// that iterates over all active Query objects.
	eng, s := newMonitored(t)
	sess := eng.NewSession("writer", "app")
	seed(t, sess)
	if _, err := s.NewRule("governor", "Timer.Alarm", "Query.Duration > 0.2",
		&rules.CancelAction{Class: monitor.ClassQuery},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.Timers().Set("watchdog", 50*time.Millisecond, -1); err != nil {
		t.Fatal(err)
	}
	defer s.Timers().Set("watchdog", 0, 0) //nolint:errcheck

	// The "runaway" query: blocked behind an exclusive lock, so its
	// duration grows until the watchdog cancels it. (A write, since MVCC
	// reads never block.)
	mustExec(t, sess, "BEGIN")
	mustExec(t, sess, "UPDATE items SET val = 1 WHERE id = 1")
	victim := eng.NewSession("victim", "app")
	start := time.Now()
	_, err := victim.Exec("UPDATE items SET val = 9 WHERE id = 1", nil)
	elapsed := time.Since(start)
	mustExec(t, sess, "COMMIT")
	if err == nil {
		t.Fatal("runaway query survived the governor")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("governor too slow: %v", elapsed)
	}
}

func TestSendMailOnThreshold(t *testing.T) {
	eng, s := newMonitored(t)
	sess := eng.NewSession("dba", "app")
	seed(t, sess)
	if _, err := s.NewRule("alert", "Query.Commit", "Query.Duration >= 0",
		&rules.SendMailAction{Address: "dba@example.com", Text: "slow query {ID}: {Query_Text}"},
		&rules.RunExternalAction{Command: "explain-analyzer --query {ID}"},
	); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, "SELECT COUNT(*) FROM items")
	flush(t, s)
	mm := s.Mailer().(*MemMailer)
	if sent := mm.Sent(); len(sent) != 1 || !strings.Contains(sent[0].Body, "COUNT(*)") {
		t.Fatalf("mail: %+v", sent)
	}
	mr := s.Runner().(*MemRunner)
	if cmds := mr.Commands(); len(cmds) != 1 || !strings.HasPrefix(cmds[0], "explain-analyzer --query ") {
		t.Fatalf("cmds: %v", cmds)
	}
}

func TestEvictedRowRulePersists(t *testing.T) {
	eng, s := newMonitored(t)
	sess := eng.NewSession("dba", "app")
	seed(t, sess)
	if _, err := s.DefineLAT(lat.Spec{
		Name:    "Small",
		GroupBy: []string{"ID"},
		Aggs:    []lat.AggCol{{Func: lat.Max, Attr: "Duration", Name: "D"}},
		OrderBy: []lat.OrderKey{{Col: "D", Desc: true}},
		MaxRows: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("fill", "Query.Commit", "", &rules.InsertAction{LAT: "Small"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("spill", "LATRow.Evicted", "",
		&rules.PersistAction{Table: "evicted_rows", Attrs: []string{"ID", "D"}},
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustExec(t, sess, fmt.Sprintf("SELECT val FROM items WHERE id = %d", i+1))
	}
	flush(t, s)
	rows, err := eng.ReadTableDirect("evicted_rows")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("evicted persists: %d", len(rows))
	}
}

func TestTransactionSignatureGroupsCodePaths(t *testing.T) {
	// §4.2: logical transaction signatures distinguish the IF/ELSE code
	// paths of one stored procedure.
	eng, s := newMonitored(t)
	sess := eng.NewSession("dba", "app")
	seed(t, sess)
	mustExec(t, sess, `CREATE PROCEDURE branchy (@big BOOL) AS BEGIN
		IF @big = TRUE THEN
			SELECT COUNT(*) FROM items;
			SELECT SUM(val) FROM items;
		ELSE
			SELECT val FROM items WHERE id = 1;
		END IF;
	END`)
	if _, err := s.DefineLAT(lat.Spec{
		Name:    "TxnPaths",
		GroupBy: []string{"Logical_Signature"},
		Aggs:    []lat.AggCol{{Func: lat.Count, Name: "N"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("paths", "Transaction.Commit", "",
		&rules.InsertAction{LAT: "TxnPaths"},
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustExec(t, sess, "EXEC branchy TRUE")
	}
	for i := 0; i < 7; i++ {
		mustExec(t, sess, "EXEC branchy FALSE")
	}
	lt, _ := s.LAT("TxnPaths")
	rows := lt.Rows()
	if len(rows) != 2 {
		t.Fatalf("code paths: %d groups (%v)", len(rows), rows)
	}
	counts := map[int64]bool{}
	for _, r := range rows {
		counts[r[1].Int()] = true
	}
	if !counts[3] || !counts[7] {
		t.Fatalf("path counts: %v", rows)
	}
}

func TestLATPersistenceAcrossRestart(t *testing.T) {
	// §4.3: LAT contents survive a "restart" via PersistLAT + LoadLAT. The
	// table is persisted three times, and the first snapshot's row is
	// deleted and pruned away before the third is written; the reload must
	// equal the third snapshot in every aggregate whose state its output
	// determines. A row store that reused the freed row's place would scan
	// the third snapshot before the second, and LoadLAT would restore N=20.
	eng, s := newMonitored(t)
	sess := eng.NewSession("dba", "app")
	seed(t, sess)
	spec := lat.Spec{
		Name:    "Persistent",
		GroupBy: []string{"Logical_Signature"},
		Aggs: []lat.AggCol{
			{Func: lat.Count, Name: "N"},
			{Func: lat.Sum, Attr: "Duration", Name: "SumD"},
			{Func: lat.Min, Attr: "Duration", Name: "MinD"},
			{Func: lat.Max, Attr: "Duration", Name: "MaxD"},
			{Func: lat.First, Attr: "ID", Name: "FirstID"},
			{Func: lat.Last, Attr: "ID", Name: "LastID"},
		},
	}
	if _, err := s.DefineLAT(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewRule("collect", "Query.Commit", "", &rules.InsertAction{LAT: "Persistent"}); err != nil {
		t.Fatal(err)
	}
	for snapshot := 1; snapshot <= 3; snapshot++ {
		if snapshot == 3 {
			// Suspended, so the DELETE's own Query.Commit stays out of the LAT.
			s.Suspend()
			if n := mustExec(t, sess, "DELETE FROM lat_backup WHERE N = 10").Affected; n != 1 {
				t.Fatalf("deleting the first snapshot: %d rows", n)
			}
			s.Resume()
			eng.PruneVersionsNow()
		}
		for i := 0; i < 10; i++ {
			mustExec(t, sess, fmt.Sprintf("SELECT val FROM items WHERE id = %d", i+1))
		}
		if err := s.PersistLAT("Persistent", "lat_backup"); err != nil {
			t.Fatal(err)
		}
	}
	lt, _ := s.LAT("Persistent")
	want := lt.Rows()
	if len(want) != 1 || want[0][1].Int() != 30 {
		t.Fatalf("third snapshot: %v", want)
	}
	// "Restart": drop and re-define, then reload.
	s.DropLAT("Persistent")
	if _, err := s.DefineLAT(spec); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadLAT("Persistent", "lat_backup"); err != nil {
		t.Fatal(err)
	}
	lt, _ = s.LAT("Persistent")
	got := lt.Rows()
	if len(got) != 1 {
		t.Fatalf("restored groups: %v", got)
	}
	for i, col := range spec.Columns() {
		if sqltypes.Compare(got[0][i], want[0][i]) != 0 {
			t.Errorf("restored %s = %v, third snapshot has %v", col, got[0][i], want[0][i])
		}
	}
}

func TestNoRulesMeansNoEvents(t *testing.T) {
	eng, s := newMonitored(t)
	sess := eng.NewSession("dba", "app")
	seed(t, sess)
	before := s.Events()
	for i := 0; i < 20; i++ {
		mustExec(t, sess, "SELECT COUNT(*) FROM items")
	}
	if got := s.Events() - before; got != 0 {
		t.Fatalf("events without rules: %d", got)
	}
}

func TestDetachStopsMonitoring(t *testing.T) {
	eng, s := newMonitored(t)
	sess := eng.NewSession("dba", "app")
	seed(t, sess)
	fired := 0
	s.AddRule(&rules.Rule{ //nolint:errcheck
		Name: "r", Event: monitor.EvQueryCommit,
		Actions: []rules.Action{&rules.FuncAction{Fn: func(rules.Env, *rules.Ctx) error {
			fired++
			return nil
		}}},
	})
	mustExec(t, sess, "SELECT COUNT(*) FROM items")
	s.Detach()
	mustExec(t, sess, "SELECT COUNT(*) FROM items")
	if fired != 1 {
		t.Fatalf("fired: %d", fired)
	}
}

func TestDynamicRuleToggling(t *testing.T) {
	eng, s := newMonitored(t)
	sess := eng.NewSession("dba", "app")
	seed(t, sess)
	r, err := s.NewRule("togglable", "Query.Commit", "",
		&rules.SendMailAction{Address: "x@y", Text: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, sess, "SELECT COUNT(*) FROM items")
	r.SetEnabled(false)
	mustExec(t, sess, "SELECT COUNT(*) FROM items")
	r.SetEnabled(true)
	mustExec(t, sess, "SELECT COUNT(*) FROM items")
	flush(t, s)
	mm := s.Mailer().(*MemMailer)
	if got := len(mm.Sent()); got != 2 {
		t.Fatalf("mails: %d", got)
	}
	if !s.RemoveRule("togglable") {
		t.Fatal("remove failed")
	}
}

func TestSignatureCachedWithPlan(t *testing.T) {
	eng, s := newMonitored(t)
	sess := eng.NewSession("dba", "app")
	seed(t, sess)
	if _, err := s.NewRule("touch", "Query.Commit", "", &rules.SendMailAction{Address: "a", Text: "b"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := sess.Exec("SELECT val FROM items WHERE id = @id",
			map[string]sqltypes.Value{"id": sqltypes.NewInt(int64(i%10 + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	// One plan → one signature computation despite 50 executions.
	if got := s.SigComputes(); got != 1 {
		t.Fatalf("signature computations: %d, want 1", got)
	}
}
