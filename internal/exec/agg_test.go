package exec

import (
	"bytes"
	"math/rand"
	"testing"

	"sqlcm/internal/lat"
	"sqlcm/internal/sqltypes"
)

// TestGroupByMatchesLAT feeds the same rows, in the same order, to a SQL
// GROUP BY and to a non-aging LAT grouped on the same column, and requires
// every aggregate to agree bit for bit: SQL over persisted LAT rows must
// aggregate exactly as the LAT did. The values mix NULLs, negatives and
// magnitudes near 1e9, where a sum-of-squares STDEV cancels to 0.
func TestGroupByMatchesLAT(t *testing.T) {
	h := newHarness(t)
	h.mustExec("CREATE TABLE r (id INT PRIMARY KEY, g INT, v FLOAT)", nil)
	funcs := []lat.AggFunc{lat.Count, lat.Count, lat.Sum, lat.Avg, lat.Min, lat.Max, lat.Stdev}
	spec := lat.Spec{Name: "r", GroupBy: []string{"g"}}
	for i, fn := range funcs {
		col := lat.AggCol{Func: fn, Attr: "v", Name: string(rune('A' + i))}
		if i == 0 {
			col.Attr = "" // COUNT(*)
		}
		spec.Aggs = append(spec.Aggs, col)
	}
	tab, err := lat.New(spec)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for id := range 600 {
		g := int64(1 + rng.Intn(5))
		if id == 0 {
			g = 0 // one row: STDEV is NULL
		}
		var v sqltypes.Value
		switch {
		case g == 5 || rng.Intn(8) == 0:
			// Group 5 holds only NULLs: COUNT(v) is 0, the rest NULL.
			v = sqltypes.Null
		case g == 4:
			v = sqltypes.NewFloat(1e9 + float64(rng.Intn(10)))
		case g == 3:
			v = sqltypes.NewFloat(-1e9 - rng.Float64()*7)
		default:
			v = sqltypes.NewFloat((rng.Float64() - 0.5) * 200)
		}
		params := map[string]sqltypes.Value{"id": sqltypes.NewInt(int64(id)), "g": sqltypes.NewInt(g), "v": v}
		h.mustExec("INSERT INTO r VALUES (@id, @g, @v)", params)
		tab.Insert(func(attr string) (sqltypes.Value, bool) { //nolint:errcheck
			return params[attr], true
		})
	}

	rows, _ := h.mustExec("SELECT g, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), STDEV(v) FROM r GROUP BY g", nil)
	if len(rows) != tab.Len() {
		t.Fatalf("SQL has %d groups, the LAT %d", len(rows), tab.Len())
	}
	for _, sqlRow := range rows {
		latRow, ok := tab.Lookup(sqlRow[:1])
		if !ok {
			t.Fatalf("group %v: not in the LAT", sqlRow[0])
		}
		for i := 1; i < len(sqlRow); i++ {
			if !bytes.Equal(sqlRow[i].Encode(nil), latRow[i].Encode(nil)) {
				t.Errorf("group %v, %s: SQL %v, LAT %v", sqlRow[0], funcs[i-1], sqlRow[i], latRow[i])
			}
		}
	}
}
