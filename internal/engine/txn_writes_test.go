package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
)

// tableState is what a table holds: its rows as a scan returns them, in
// id order, and the raw (key, RID) entries of each of its trees.
type tableState struct {
	rows    []string
	entries map[string][]string
}

func rowString(r []sqltypes.Value) string { return fmt.Sprintf("%v|%v|%v", r[0], r[1], r[2]) }

// readState reads table w through a new session by scan, and fails t
// unless a seek on the primary key finds every row the scan returned and
// a seek on grp finds exactly the ids the scan puts in each grp.
func readState(t *testing.T, e *Engine) tableState {
	t.Helper()
	s := e.NewSession("reader", "test")
	defer s.Close() //nolint:errcheck
	st := tableState{entries: map[string][]string{}}
	groups := map[int64][]int64{}
	var ids []int64
	for _, r := range mustExec(t, s, "SELECT id, grp, v FROM w ORDER BY id").Rows {
		st.rows = append(st.rows, rowString(r))
		ids = append(ids, r[0].Int())
		groups[r[1].Int()] = append(groups[r[1].Int()], r[0].Int())
	}
	byID, err := s.Prepare("SELECT id, grp, v FROM w WHERE id = @k")
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		res, err := byID.Exec(map[string]sqltypes.Value{"k": sqltypes.NewInt(id)})
		if err != nil || len(res.Rows) != 1 || rowString(res.Rows[0]) != st.rows[i] {
			t.Fatalf("seek on id %d: %v, %v; the scan read %s", id, res, err, st.rows[i])
		}
	}
	byGrp, err := s.Prepare("SELECT id FROM w WHERE grp = @g")
	if err != nil {
		t.Fatal(err)
	}
	for g, want := range groups {
		res, err := byGrp.Exec(map[string]sqltypes.Value{"g": sqltypes.NewInt(g)})
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, r := range res.Rows {
			got = append(got, r[0].Int())
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("seek on grp %d finds ids %v, the scan %v", g, got, want)
		}
	}
	ts, err := e.reg.Store("w")
	if err != nil {
		t.Fatal(err)
	}
	for name, bt := range ts.Indexes() {
		bt.ScanAll(func(k []byte, rid storage.RID) bool {
			st.entries[name] = append(st.entries[name], fmt.Sprintf("%x@%d", k, rid))
			return true
		})
	}
	return st
}

// TestTxnWritesRollBackAndCommit runs one transaction that inserts 10 000
// rows, half with ascending and half with random keys, then updates some
// in place, moves some to another grp, moves some to another id and
// deletes some, on a table with a unique (the primary key) and a
// non-unique index. Rolled back, the table is what it was before by scan
// and by seek, and both trees hold exactly their earlier entries. Run
// again and committed, a new session reads what the transaction read
// before its COMMIT: a version the commit left unstamped would be
// invisible to it.
func TestTxnWritesRollBackAndCommit(t *testing.T) {
	e := newTestEngine(t)
	s := e.NewSession("writer", "test")
	mustExec(t, s, "CREATE TABLE w (id INT PRIMARY KEY, grp INT, v VARCHAR)")
	mustExec(t, s, "CREATE INDEX w_grp ON w (grp)")
	for i := 1; i <= 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO w VALUES (%d, %d, 'base')", i*10, i%7))
	}
	prep := func(sql string) *Prepared {
		p, err := s.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ins := prep("INSERT INTO w VALUES (@k, @g, @v)")
	setV := prep("UPDATE w SET v = @v WHERE id = @k")
	setGrp := prep("UPDATE w SET grp = grp + 100 WHERE id = @k")
	setID := prep("UPDATE w SET id = id + 5000000 WHERE id = @k")
	del := prep("DELETE FROM w WHERE id = @k")
	run := func(p *Prepared, args ...any) {
		t.Helper()
		params := map[string]sqltypes.Value{}
		for i := 0; i < len(args); i += 2 {
			switch v := args[i+1].(type) {
			case int64:
				params[args[i].(string)] = sqltypes.NewInt(v)
			case string:
				params[args[i].(string)] = sqltypes.NewString(v)
			}
		}
		if res, err := p.Exec(params); err != nil || res.Affected != 1 {
			t.Fatalf("%s %v: %v", p.SQL(), params, err)
		}
	}
	work := func() {
		r := rand.New(rand.NewSource(1))
		var keys []int64
		for i := int64(1); i <= 5000; i++ { // ascending, above every base key
			keys = append(keys, 10_000+i)
			run(ins, "k", 10_000+i, "g", i%13, "v", "asc")
		}
		seen := map[int64]bool{}
		for len(seen) < 5000 { // random, some below the base keys' top
			k := r.Int63n(4_000_000) + 1
			if k%10 == 0 && k <= 2000 || k > 10_000 && k <= 15_000 || seen[k] {
				continue
			}
			seen[k] = true
			keys = append(keys, k)
			run(ins, "k", k, "g", k%11, "v", "rnd")
		}
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys[:300] {
			run(setV, "k", k, "v", "upd")
		}
		for _, k := range keys[300:600] {
			run(setGrp, "k", k)
		}
		for _, k := range keys[600:700] {
			run(setID, "k", k)
		}
		for _, k := range keys[700:1000] {
			run(del, "k", k)
		}
		for i := int64(1); i <= 200; i += 3 { // rows committed before
			run(del, "k", i*10)
		}
		for i := int64(2); i <= 200; i += 3 {
			run(setGrp, "k", i*10)
		}
	}

	before := readState(t, e)
	mustExec(t, s, "BEGIN")
	work()
	mustExec(t, s, "ROLLBACK")
	after := readState(t, e)
	if !slices.Equal(after.rows, before.rows) {
		t.Errorf("after ROLLBACK the table holds %d rows, before it %d (or other rows)", len(after.rows), len(before.rows))
	}
	if len(after.entries) != 2 {
		t.Fatalf("%d trees, want 2", len(after.entries))
	}
	for name, es := range before.entries {
		if !slices.Equal(after.entries[name], es) {
			t.Errorf("after ROLLBACK tree %s holds %d entries, before it %d (or other entries)", name, len(after.entries[name]), len(es))
		}
	}

	mustExec(t, s, "BEGIN")
	work()
	var inTxn []string
	for _, r := range mustExec(t, s, "SELECT id, grp, v FROM w ORDER BY id").Rows {
		inTxn = append(inTxn, rowString(r))
	}
	mustExec(t, s, "COMMIT")
	if want := 200 - 67 + 10_000 - 300; len(inTxn) != want {
		t.Fatalf("the transaction read %d rows, want %d", len(inTxn), want)
	}
	if after := readState(t, e); !slices.Equal(after.rows, inTxn) {
		t.Errorf("after COMMIT a new session reads %d rows, the transaction read %d (or other rows)", len(after.rows), len(inTxn))
	}
}
