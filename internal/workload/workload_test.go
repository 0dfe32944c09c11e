package workload

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
)

func smallConfig() Config {
	return Config{
		Lineitems:    2000,
		Orders:       500,
		Parts:        100,
		Seed:         42,
		ShortQueries: 200,
		JoinQueries:  4,
	}
}

func TestSetupAndCounts(t *testing.T) {
	eng, err := engine.Open(engine.Config{LockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg, err := Setup(eng, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess := eng.NewSession("t", "t")
	for table, want := range map[string]int64{
		"lineitem": int64(cfg.Lineitems),
		"orders":   int64(cfg.Orders),
		"part":     int64(cfg.Parts),
	} {
		res, err := sess.Exec("SELECT COUNT(*) FROM "+table, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != want {
			t.Errorf("%s: %d rows, want %d", table, got, want)
		}
	}
}

func TestMixDeterministicAndShaped(t *testing.T) {
	cfg := smallConfig()
	a := Mix(cfg)
	b := Mix(cfg)
	if len(a) != len(b) || len(a) != cfg.ShortQueries+cfg.JoinQueries {
		t.Fatalf("mix sizes: %d vs %d", len(a), len(b))
	}
	joins := 0
	for i := range a {
		if a[i].SQL != b[i].SQL {
			t.Fatalf("non-deterministic SQL at %d", i)
		}
		for k, v := range a[i].Params {
			if sqltypes.Compare(b[i].Params[k], v) != 0 {
				t.Fatalf("non-deterministic param at %d", i)
			}
		}
		if a[i].Join {
			joins++
		}
	}
	if joins != cfg.JoinQueries {
		t.Fatalf("joins: %d, want %d", joins, cfg.JoinQueries)
	}
	// Different seed differs.
	cfg2 := cfg
	cfg2.Seed = 43
	c := Mix(cfg2)
	same := true
	for i := range a {
		for k := range a[i].Params {
			if sqltypes.Compare(c[i].Params[k], a[i].Params[k]) != 0 {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seed has no effect")
	}
}

// TestMixMoreJoinsThanShortQueries: with fewer short queries than joins
// the interval ShortQueries/JoinQueries rounds to zero; Mix clamps it to
// one join after every short query instead of dividing by zero.
func TestMixMoreJoinsThanShortQueries(t *testing.T) {
	short, joins := 0, 0
	for _, q := range Mix(Config{Lineitems: 1000, ShortQueries: 5, JoinQueries: 100}) {
		if q.Join {
			joins++
		} else {
			short++
		}
	}
	if short != 5 || joins != 5 {
		t.Fatalf("got %d short queries and %d joins, want 5 and 5", short, joins)
	}
}

func TestRunWorkload(t *testing.T) {
	eng, err := engine.Open(engine.Config{LockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cfg, err := Setup(eng, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := Mix(cfg)
	n, err := Run(eng, queries, "bench", "tpch")
	if err != nil {
		t.Fatal(err)
	}
	if n != len(queries) {
		t.Fatalf("executed %d of %d", n, len(queries))
	}
	// Join queries actually produce the advertised row counts (~1.5%).
	sess := eng.NewSession("t", "t")
	for _, q := range queries {
		if !q.Join {
			continue
		}
		res, err := sess.Exec(q.SQL, q.Params)
		if err != nil {
			t.Fatal(err)
		}
		span := cfg.Lineitems / 66
		if len(res.Rows) == 0 || len(res.Rows) > span {
			t.Fatalf("join rows: %d (span %d)", len(res.Rows), span)
		}
		break
	}
}

// BenchmarkSetupAutocommit loads the default-size database through Setup:
// 127 000 autocommit INSERTs, each a writer commit. Version garbage
// collection must not charge them for rows already loaded. It also reports
// what a loaded row costs: B/row is the Go heap in use after the load and a
// collection, over the rows loaded; ptrs/row the pointer words the row store
// keeps for a one-version row, which the collector scans every cycle.
func BenchmarkSetupAutocommit(b *testing.B) {
	var bytesPerRow float64
	for i := 0; i < b.N; i++ {
		eng, err := engine.Open(engine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		cfg, err := Setup(eng, Config{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		bytesPerRow = float64(ms.HeapInuse) / float64(cfg.Lineitems+cfg.Orders+cfg.Parts)
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	// A one-version row is one version record (what a storage.Ref points
	// at) and one slot of the store's slot array; both types are
	// unexported, so they are reached through the types that hold them.
	record := reflect.TypeFor[storage.Ref]().Field(0).Type.Elem()
	slots, _ := reflect.TypeFor[storage.VersionStore]().FieldByName("heads")
	b.ReportMetric(bytesPerRow, "B/row")
	b.ReportMetric(float64(pointerWords(record)+pointerWords(slots.Type.Elem())), "ptrs/row")
}

// pointerWords counts the words of a t the garbage collector scans.
func pointerWords(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func, reflect.Slice, reflect.String:
		return 1
	case reflect.Interface:
		return 2
	case reflect.Array:
		return t.Len() * pointerWords(t.Elem())
	case reflect.Struct:
		n := 0
		for i := range t.NumField() {
			n += pointerWords(t.Field(i).Type)
		}
		return n
	}
	return 0
}
