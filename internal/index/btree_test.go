package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sqlcm/internal/sqltypes"
	"sqlcm/internal/storage"
)

func intKey(i int64) []byte { return sqltypes.EncodeKey(sqltypes.NewInt(i)) }

func rid(i int) storage.RID { return storage.RID(i) }

func TestInsertGet(t *testing.T) {
	tr := New(true)
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(intKey(int64(i)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		got, ok := tr.Get(intKey(int64(i)))
		if !ok || got != rid(i) {
			t.Fatalf("Get(%d) = %v %v", i, got, ok)
		}
	}
	if _, ok := tr.Get(intKey(5000)); ok {
		t.Fatal("phantom key")
	}
	if tr.Height() < 2 {
		t.Fatalf("expected multi-level tree, height %d", tr.Height())
	}
}

func TestUniqueViolation(t *testing.T) {
	tr := New(true)
	if err := tr.Insert(intKey(1), rid(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(intKey(1), rid(2)); err == nil {
		t.Fatal("duplicate key accepted by unique index")
	}
	// Non-unique allows it.
	tr2 := New(false)
	if err := tr2.Insert(intKey(1), rid(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Insert(intKey(1), rid(2)); err != nil {
		t.Fatal(err)
	}
	if got := tr2.GetAll(intKey(1)); len(got) != 2 {
		t.Fatalf("GetAll = %v", got)
	}
}

func TestDeleteAndReinsert(t *testing.T) {
	tr := New(false)
	for i := 0; i < 500; i++ {
		if err := tr.Insert(intKey(int64(i%50)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Every key 0..49 has 10 rids.
	for i := 0; i < 500; i += 2 {
		if !tr.Delete(intKey(int64(i%50)), rid(i)) {
			t.Fatalf("Delete(%d, %v) failed", i%50, rid(i))
		}
	}
	if tr.Len() != 250 {
		t.Fatalf("Len after deletes = %d", tr.Len())
	}
	if tr.Delete(intKey(3), rid(999)) {
		t.Fatal("deleted a non-existent entry")
	}
	// Entries for key k are i = k, k+50, …, k+450; parity of i equals the
	// parity of k, so even keys lose all 10 entries and odd keys keep all.
	for k := 0; k < 50; k++ {
		want := 10
		if k%2 == 0 {
			want = 0
		}
		if got := len(tr.GetAll(intKey(int64(k)))); got != want {
			t.Fatalf("key %d has %d rids, want %d", k, got, want)
		}
	}
}

func TestScanRange(t *testing.T) {
	tr := New(true)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(intKey(int64(i)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(lo, hi []byte, loIncl, hiIncl bool) []int64 {
		var out []int64
		tr.ScanRange(lo, hi, loIncl, hiIncl, func(k []byte, r storage.RID) bool {
			vals, err := sqltypes.DecodeKey(k)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, vals[0].Int())
			return true
		})
		return out
	}
	got := collect(intKey(10), intKey(15), true, true)
	want := []int64{10, 11, 12, 13, 14, 15}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("inclusive scan: %v", got)
	}
	got = collect(intKey(10), intKey(15), false, false)
	if fmt.Sprint(got) != fmt.Sprint([]int64{11, 12, 13, 14}) {
		t.Fatalf("exclusive scan: %v", got)
	}
	got = collect(nil, intKey(2), true, true)
	if fmt.Sprint(got) != fmt.Sprint([]int64{0, 1, 2}) {
		t.Fatalf("open-lo scan: %v", got)
	}
	got = collect(intKey(97), nil, true, true)
	if fmt.Sprint(got) != fmt.Sprint([]int64{97, 98, 99}) {
		t.Fatalf("open-hi scan: %v", got)
	}
	// Early stop.
	count := 0
	tr.ScanAll(func(k []byte, r storage.RID) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop: %d", count)
	}
}

// TestAgainstModel drives random inserts/deletes against a sorted-slice
// model and checks every observable after each batch.
func TestAgainstModel(t *testing.T) {
	type entry struct {
		key string
		rid storage.RID
	}
	r := rand.New(rand.NewSource(42))
	tr := New(false)
	var model []entry

	modelSorted := func() []entry {
		s := append([]entry(nil), model...)
		sort.Slice(s, func(i, j int) bool {
			if s[i].key != s[j].key {
				return s[i].key < s[j].key
			}
			return s[i].rid < s[j].rid
		})
		return s
	}

	for step := 0; step < 3000; step++ {
		k := sqltypes.EncodeKey(sqltypes.NewInt(int64(r.Intn(200))))
		if r.Intn(3) > 0 || len(model) == 0 {
			id := rid(step)
			if err := tr.Insert(k, id); err != nil {
				t.Fatal(err)
			}
			model = append(model, entry{key: string(k), rid: id})
		} else {
			victim := r.Intn(len(model))
			e := model[victim]
			if !tr.Delete([]byte(e.key), e.rid) {
				t.Fatalf("step %d: delete of live entry failed", step)
			}
			model = append(model[:victim], model[victim+1:]...)
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model = %d", tr.Len(), len(model))
	}
	// Full scan matches sorted model on keys (rid order within dup keys is
	// unspecified, so compare multisets per key).
	sorted := modelSorted()
	var scanned []entry
	tr.ScanAll(func(k []byte, r storage.RID) bool {
		scanned = append(scanned, entry{key: string(k), rid: r})
		return true
	})
	if len(scanned) != len(sorted) {
		t.Fatalf("scan %d entries, model %d", len(scanned), len(sorted))
	}
	for i := range scanned {
		if scanned[i].key != sorted[i].key {
			t.Fatalf("key order diverges at %d", i)
		}
	}
	byKey := map[string]map[storage.RID]int{}
	for _, e := range sorted {
		if byKey[e.key] == nil {
			byKey[e.key] = map[storage.RID]int{}
		}
		byKey[e.key][e.rid]++
	}
	for _, e := range scanned {
		byKey[e.key][e.rid]--
		if byKey[e.key][e.rid] == 0 {
			delete(byKey[e.key], e.rid)
		}
	}
	for k, m := range byKey {
		if len(m) != 0 {
			t.Fatalf("rid multiset mismatch for key %q: %v", k, m)
		}
	}
	// Range scans agree with model filtering.
	for trial := 0; trial < 20; trial++ {
		lo := sqltypes.EncodeKey(sqltypes.NewInt(int64(r.Intn(200))))
		hi := sqltypes.EncodeKey(sqltypes.NewInt(int64(r.Intn(200))))
		if bytes.Compare(lo, hi) > 0 {
			lo, hi = hi, lo
		}
		wantN := 0
		for _, e := range sorted {
			if bytes.Compare([]byte(e.key), lo) >= 0 && bytes.Compare([]byte(e.key), hi) <= 0 {
				wantN++
			}
		}
		gotN := 0
		tr.ScanRange(lo, hi, true, true, func([]byte, storage.RID) bool { gotN++; return true })
		if gotN != wantN {
			t.Fatalf("range trial %d: got %d want %d", trial, gotN, wantN)
		}
	}
}

func TestStringKeys(t *testing.T) {
	tr := New(true)
	words := []string{"pear", "apple", "fig", "banana", "cherry", "date", "kiwi"}
	for i, w := range words {
		if err := tr.Insert(sqltypes.EncodeKey(sqltypes.NewString(w)), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	tr.ScanAll(func(k []byte, r storage.RID) bool {
		vals, _ := sqltypes.DecodeKey(k)
		got = append(got, vals[0].Str())
		return true
	})
	want := append([]string(nil), words...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("string order: %v", got)
	}
}

func TestCompositeKeys(t *testing.T) {
	tr := New(true)
	n := 0
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b++ {
			key := sqltypes.EncodeKey(sqltypes.NewInt(int64(a)), sqltypes.NewString(fmt.Sprintf("s%02d", b)))
			if err := tr.Insert(key, rid(n)); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	// Prefix scan for a=3: [Encode(3), Encode(4)) exclusive-hi.
	lo := sqltypes.EncodeKey(sqltypes.NewInt(3))
	hi := sqltypes.EncodeKey(sqltypes.NewInt(4))
	count := 0
	tr.ScanRange(lo, hi, true, false, func(k []byte, r storage.RID) bool {
		count++
		return true
	})
	if count != 10 {
		t.Fatalf("prefix scan found %d, want 10", count)
	}
}

func TestDeleteDuplicatesAcrossLeaves(t *testing.T) {
	// Force many duplicates of a single key so they straddle leaf splits,
	// then delete them in random order.
	tr := New(false)
	key := intKey(7)
	const dups = 500
	perm := rand.New(rand.NewSource(3)).Perm(dups)
	for i := 0; i < dups; i++ {
		if err := tr.Insert(key, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range perm {
		if !tr.Delete(key, rid(i)) {
			t.Fatalf("failed deleting dup rid(%d)", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all dups", tr.Len())
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	tr := New(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tr.Insert(intKey(int64(i)), rid(i))
	}
}

func BenchmarkBTreeGet(b *testing.B) {
	tr := New(true)
	for i := 0; i < 100000; i++ {
		_ = tr.Insert(intKey(int64(i)), rid(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(intKey(int64(i % 100000)))
	}
}
