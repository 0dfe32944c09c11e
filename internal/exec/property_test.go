package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestQueryResultsMatchModel loads random rows and cross-checks SELECT
// results (filters, aggregation, ordering, limits) against a naive
// in-memory model of the same data.
func TestQueryResultsMatchModel(t *testing.T) {
	r := rand.New(rand.NewSource(321))
	h := newHarness(t)
	h.mustExec("CREATE TABLE m (id INT PRIMARY KEY, grp INT, v INT)", nil)
	h.mustExec("CREATE INDEX m_grp ON m (grp)", nil)

	type row struct{ id, grp, v int64 }
	var model []row
	for i := 1; i <= 500; i++ {
		rw := row{id: int64(i), grp: int64(r.Intn(12)), v: int64(r.Intn(1000) - 500)}
		model = append(model, rw)
		h.mustExec(fmt.Sprintf("INSERT INTO m VALUES (%d, %d, %d)", rw.id, rw.grp, rw.v), nil)
	}

	// Random point and range filters.
	for trial := 0; trial < 50; trial++ {
		lo := int64(r.Intn(1000) - 500)
		hi := lo + int64(r.Intn(400))
		g := int64(r.Intn(12))
		sql := fmt.Sprintf("SELECT id FROM m WHERE v >= %d AND v <= %d AND grp = %d", lo, hi, g)
		rows, _ := h.mustExec(sql, nil)
		want := map[int64]bool{}
		for _, rw := range model {
			if rw.v >= lo && rw.v <= hi && rw.grp == g {
				want[rw.id] = true
			}
		}
		if len(rows) != len(want) {
			t.Fatalf("%s: got %d rows, want %d", sql, len(rows), len(want))
		}
		for _, got := range rows {
			if !want[got[0].Int()] {
				t.Fatalf("%s: unexpected id %v", sql, got[0])
			}
		}
	}

	// Aggregation per group.
	rows, _ := h.mustExec("SELECT grp, COUNT(*), SUM(v), MIN(v), MAX(v) FROM m GROUP BY grp", nil)
	type agg struct {
		n        int64
		sum      int64
		mn, mx   int64
		hasFirst bool
	}
	want := map[int64]*agg{}
	for _, rw := range model {
		a := want[rw.grp]
		if a == nil {
			a = &agg{mn: rw.v, mx: rw.v}
			want[rw.grp] = a
		}
		a.n++
		a.sum += rw.v
		if rw.v < a.mn {
			a.mn = rw.v
		}
		if rw.v > a.mx {
			a.mx = rw.v
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("groups: %d want %d", len(rows), len(want))
	}
	for _, got := range rows {
		a := want[got[0].Int()]
		if a == nil {
			t.Fatalf("phantom group %v", got[0])
		}
		if got[1].Int() != a.n || int64(got[2].Float()) != a.sum ||
			got[3].Int() != a.mn || got[4].Int() != a.mx {
			t.Fatalf("group %v: got %v want %+v", got[0], got, *a)
		}
	}

	// Ordering and limit.
	rows, _ = h.mustExec("SELECT id, v FROM m ORDER BY v DESC, id ASC LIMIT 25", nil)
	sorted := append([]row(nil), model...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].v != sorted[j].v {
			return sorted[i].v > sorted[j].v
		}
		return sorted[i].id < sorted[j].id
	})
	if len(rows) != 25 {
		t.Fatalf("limit: %d", len(rows))
	}
	for i, got := range rows {
		if got[0].Int() != sorted[i].id {
			t.Fatalf("order position %d: got id %v want %d", i, got[0], sorted[i].id)
		}
	}
}

// TestDMLSequenceMatchesModel applies a random insert/update/delete stream
// and verifies the table contents (and index consistency) afterwards.
func TestDMLSequenceMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(654))
	h := newHarness(t)
	h.mustExec("CREATE TABLE s (id INT PRIMARY KEY, v INT)", nil)
	h.mustExec("CREATE INDEX s_v ON s (v)", nil)
	model := map[int64]int64{}
	nextID := int64(1)

	for step := 0; step < 1500; step++ {
		switch op := r.Intn(10); {
		case op < 5 || len(model) == 0: // insert
			id := nextID
			nextID++
			v := int64(r.Intn(100))
			model[id] = v
			h.mustExec(fmt.Sprintf("INSERT INTO s VALUES (%d, %d)", id, v), nil)
		case op < 8: // update random value class
			v := int64(r.Intn(100))
			nv := int64(r.Intn(100))
			_, n := h.mustExec(fmt.Sprintf("UPDATE s SET v = %d WHERE v = %d", nv, v), nil)
			cnt := int64(0)
			for id, val := range model {
				if val == v {
					model[id] = nv
					cnt++
				}
			}
			if n != cnt {
				t.Fatalf("step %d: update affected %d, model %d", step, n, cnt)
			}
		default: // delete one id
			var victim int64
			for id := range model {
				victim = id
				break
			}
			_, n := h.mustExec(fmt.Sprintf("DELETE FROM s WHERE id = %d", victim), nil)
			if n != 1 {
				t.Fatalf("step %d: delete affected %d", step, n)
			}
			delete(model, victim)
		}
	}
	// verify: the table matches the model, via both the PK index and the
	// secondary index, and an index lookup examines exactly the rows it
	// returns (stale and dead entries are skipped before they count).
	verify := func(phase string) {
		t.Helper()
		rows, _ := h.mustExec("SELECT COUNT(*) FROM s", nil)
		if rows[0][0].Int() != int64(len(model)) {
			t.Fatalf("%s: count: %v want %d", phase, rows[0][0], len(model))
		}
		for id, v := range model {
			got, _ := h.mustExec(fmt.Sprintf("SELECT v FROM s WHERE id = %d", id), nil)
			if len(got) != 1 || got[0][0].Int() != v {
				t.Fatalf("%s: id %d: %v want %d", phase, id, got, v)
			}
		}
		perV := map[int64]int64{}
		for _, v := range model {
			perV[v]++
		}
		for v := int64(0); v < 100; v++ {
			got, _ := h.mustExec(fmt.Sprintf("SELECT COUNT(*) FROM s WHERE v = %d", v), nil)
			if got[0][0].Int() != perV[v] || h.examined != perV[v] {
				t.Fatalf("%s: v=%d: count %v examined %d, want %d", phase, v, got[0][0], h.examined, perV[v])
			}
		}
	}
	verify("after DML stream")

	// Snapshot phase: a transaction opened now keeps reading this state —
	// same rows, same RowsExamined, through a full scan, the secondary index
	// and the PK — while committed UPDATEs and DELETEs pile up unpruned
	// versions, tombstones and stale index entries behind it.
	old := h.tm.Begin(false)
	var probes []string
	probes = append(probes, "SELECT id, v FROM s")
	for v := 0; v < 100; v += 9 {
		probes = append(probes, fmt.Sprintf("SELECT id FROM s WHERE v = %d", v))
	}
	for id := range model {
		if probes = append(probes, fmt.Sprintf("SELECT v FROM s WHERE id = %d", id)); len(probes) > 40 {
			break
		}
	}
	readOld := func() []string {
		t.Helper()
		out := make([]string, len(probes))
		for i, q := range probes {
			rows, _, err := h.execIn(old, q, nil)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			strs := make([]string, len(rows))
			for j, rw := range rows {
				strs[j] = fmt.Sprint(rw)
			}
			sort.Strings(strs)
			out[i] = fmt.Sprintf("%s -> %v examined=%d", q, strs, h.examined)
		}
		return out
	}
	before := readOld()
	for step := 0; step < 400; step++ {
		if r.Intn(3) > 0 { // update a value class, sometimes back to a key it just left
			v, nv := int64(r.Intn(100)), int64(r.Intn(100))
			h.mustExec(fmt.Sprintf("UPDATE s SET v = %d WHERE v = %d", nv, v), nil)
			for id, val := range model {
				if val == v {
					model[id] = nv
				}
			}
			continue
		}
		for id := range model { // delete one id; ids are never reused
			h.mustExec(fmt.Sprintf("DELETE FROM s WHERE id = %d", id), nil)
			delete(model, id)
			break
		}
	}
	ts, err := h.reg.Store("s")
	if err != nil {
		t.Fatal(err)
	}
	if retained := ts.Vers.Stats().Retained.Load(); retained <= int64(len(model)) {
		t.Fatalf("phase left no superseded versions (retained %d, live rows %d)", retained, len(model))
	}
	for i, got := range readOld() {
		if got != before[i] {
			t.Fatalf("old snapshot drifted:\n  before: %s\n  after:  %s", before[i], got)
		}
	}
	verify("with unpruned versions")

	// Prune: with the old snapshot gone the watermark is the newest commit,
	// so exactly one version and one entry per index survive per live row.
	if err := h.tm.Commit(old); err != nil {
		t.Fatal(err)
	}
	ts.PruneVersions(h.tm.Watermark())
	if retained := ts.Vers.Stats().Retained.Load(); retained != int64(len(model)) {
		t.Fatalf("after prune: %d versions retained, %d live rows", retained, len(model))
	}
	for name, bt := range ts.Indexes() {
		if bt.Len() != len(model) {
			t.Fatalf("after prune: index %s has %d entries, %d live rows", name, bt.Len(), len(model))
		}
	}
	verify("after prune")
}
