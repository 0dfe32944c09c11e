package index

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"

	"sqlcm/internal/storage"
)

// fuzzEntry is one (key, RID) pair of the model.
type fuzzEntry struct {
	key string
	rid storage.RID
}

func (a fuzzEntry) compare(b fuzzEntry) int {
	if c := bytes.Compare([]byte(a.key), []byte(b.key)); c != 0 {
		return c
	}
	switch {
	case a.rid < b.rid:
		return -1
	case a.rid > b.rid:
		return 1
	}
	return 0
}

// fuzzInput reads the fuzzer's bytes as a stream of operations; past its
// end every byte reads as zero.
type fuzzInput struct {
	b    []byte
	pool [][]byte // keys used so far, drawn again for duplicates
}

func (in *fuzzInput) next() byte {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

// key returns a key the tree has probably seen, or a new one of 0 to 300
// bytes over a four-byte alphabet (0x00, 0x01, 0x80, 0xff), so equal keys,
// keys that prefix one another and empty keys are all common.
func (in *fuzzInput) key() []byte {
	sel := in.next()
	if sel < 96 && len(in.pool) > 0 {
		return in.pool[int(sel)%len(in.pool)]
	}
	n := int(in.next() % 8)
	if sel&1 != 0 {
		n = (int(in.next())<<8 | int(in.next())) % 301
	}
	x := uint32(in.next())*2654435761 + 1
	k := make([]byte, n)
	for i := range k {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k[i] = [4]byte{0x00, 0x01, 0x80, 0xff}[x%4]
	}
	if len(in.pool) < 64 {
		in.pool = append(in.pool, k)
	} else {
		in.pool[int(x)%len(in.pool)] = k
	}
	return k
}

// bound returns a scan bound: nil (open) or a key.
func (in *fuzzInput) bound() []byte {
	if in.next()%4 == 0 {
		return nil
	}
	return in.key()
}

// FuzzBTree runs random Insert, Delete, Get, GetAll and ScanRange calls on
// a unique or non-unique tree against a sorted model, with keys of 0 to 300
// bytes, duplicate keys, entries whose RID is below ones already in,
// bulk runs that grow the tree several levels deep, and every bound and
// inclusivity combination. After each call it checks every node: its key
// offsets rise and end at the length of its key bytes. On a unique tree it
// pins the single descent of Insert: a duplicate is found in the leaf the
// insert descends to.
//
//	go test -run '^$' -fuzz FuzzBTree ./internal/index
//
// A run takes milliseconds, and Go's minimizer runs each new input about
// once per byte and then once per pair of cut points: with its default
// budget of 60 s per input it stalled the fuzzer at 0 execs/s, so TestMain
// bounds it.
func FuzzBTree(f *testing.F) {
	seed := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(false, seed)
	f.Add(true, seed)
	// Bulk runs under one prefix, then scans and deletes around it.
	f.Add(false, []byte{3, 200, 0, 7, 127, 0, 3, 40, 1, 0, 5, 64, 7, 1, 0, 1, 4, 0, 1, 2, 7, 0, 0, 3})
	f.Add(true, []byte{3, 200, 0, 7, 127, 1, 3, 0, 127, 0, 0, 0, 5, 0, 7, 0, 0, 3, 3})
	for _, sd := range rightmostSeeds() {
		f.Add(sd.unique, sd.ops)
	}
	f.Fuzz(runOps)
}

// Operation bytes of runOps, for seeds written by hand.
func opNewKey(n, x byte) []byte { return []byte{96, n, x} } // a new key of n%8 bytes, into the pool
func opPoolKey(i byte) []byte   { return []byte{i % 96} }   // a key of the pool
func opInsert(key []byte) []byte {
	return append([]byte{0}, key...)
}

// opInsertBelow inserts key with RID rid, below the RIDs inserted so far.
func opInsertBelow(key []byte, rid byte) []byte {
	return append(append([]byte{2}, key...), rid)
}

// opRun inserts n (1 to 128) keys of prefix base, ascending or descending.
func opRun(base []byte, n int, desc bool) []byte {
	d := byte(0)
	if desc {
		d = 1
	}
	return append(append([]byte{3}, base...), byte(n-1), d)
}

// opDeleteAt deletes the model's entry i*len/256; the model and the pool
// must not be empty.
func opDeleteAt(i byte) []byte { return []byte{4, 0, 0, 0, i} }

// opDeleteLast deletes the last entry of a tree of at most 256 entries.
func opDeleteLast() []byte { return opDeleteAt(255) }

func repeat(op []byte, n int) []byte { return bytes.Repeat(op, n) }

// rightmostSeeds are the operation streams of TestBTreeRightmostAppend,
// which FuzzBTree starts from too: ascending runs that append to the
// rightmost leaf, interleaved with deletes that empty it; runs whose keys
// are all in a unique tree already, the last one equal to its last entry;
// and in a non-unique tree, a key equal to the last entry with a lower RID.
func rightmostSeeds() []struct {
	unique bool
	ops    []byte
} {
	a, b := opNewKey(2, 7), opNewKey(3, 9)
	runs := slices.Concat(
		opRun(a, 128, false), repeat(opDeleteLast(), 64),
		opRun(opPoolKey(0), 100, false), repeat(opDeleteLast(), 40),
		opRun(b, 60, false), repeat(opDeleteLast(), 70),
		opRun(opPoolKey(1), 128, false), opRun(opPoolKey(1), 128, false),
	)
	dups := slices.Concat(opRun(a, 50, false), opRun(opPoolKey(0), 50, false), opRun(opPoolKey(0), 50, true))
	equal := slices.Concat(
		opInsert(a), repeat(opInsert(opPoolKey(0)), 70), // RIDs 1 to 71 of one key
		opDeleteAt(0), opInsertBelow(opPoolKey(0), 1), // RID 1 again, below the last leaf's
		repeat(opDeleteLast(), 20), opDeleteAt(0), opDeleteAt(0), opInsertBelow(opPoolKey(0), 2),
		repeat(opInsert(opPoolKey(0)), 3),
	)
	return []struct {
		unique bool
		ops    []byte
	}{{false, runs}, {true, runs}, {true, dups}, {false, dups}, {false, equal}, {true, equal}}
}

// TestBTreeRightmostAppend runs rightmostSeeds through runOps, whose node
// check also pins the rightmost leaf the append path writes to.
func TestBTreeRightmostAppend(t *testing.T) {
	for i, sd := range rightmostSeeds() {
		t.Run(fmt.Sprintf("%d-unique=%v", i, sd.unique), func(t *testing.T) { runOps(t, sd.unique, sd.ops) })
	}
}

// TestMain gives the fuzzer's minimization of one new input 2 s unless
// -test.fuzzminimizetime says otherwise (see FuzzBTree). A failing input is
// still reported, less minimized.
func TestMain(m *testing.M) {
	flag.Parse()
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == "test.fuzzminimizetime" })
	if !set {
		if err := flag.Set("test.fuzzminimizetime", "2s"); err != nil {
			panic(err)
		}
	}
	os.Exit(m.Run())
}

// runOps is FuzzBTree's body: ops is a stream of operations on a unique or
// non-unique tree, each checked against a sorted model.
func runOps(t *testing.T, unique bool, ops []byte) {
	tr := New(unique)
	var model []fuzzEntry // sorted by (key, rid)
	in := &fuzzInput{b: ops}
	nextRID := storage.RID(1)
	find := func(e fuzzEntry) (int, bool) {
		return slices.BinarySearchFunc(model, e, fuzzEntry.compare)
	}
	hasKey := func(k []byte) bool {
		i, _ := find(fuzzEntry{key: string(k)})
		return i < len(model) && model[i].key == string(k)
	}
	insert := func(k []byte, rid storage.RID) {
		err := tr.Insert(k, rid)
		if dup := unique && hasKey(k); dup != (err != nil) {
			t.Fatalf("Insert(%x, %d): err %v, model has the key: %v", k, rid, err, dup)
		}
		if err == nil {
			e := fuzzEntry{string(k), rid}
			i, _ := find(e)
			model = slices.Insert(model, i, e)
		}
	}
	for len(in.b) > 0 {
		switch op := in.next() % 8; op {
		case 0, 1:
			insert(in.key(), nextRID)
			nextRID++
		case 2:
			// An entry below the RIDs inserted so far; an entry the model
			// holds already is skipped (the engine never repeats one).
			k, rid := in.key(), storage.RID(in.next())%nextRID
			if _, live := find(fuzzEntry{string(k), rid}); !live {
				insert(k, rid)
			}
		case 3:
			// A run of keys under one prefix, ascending or descending.
			base, n, desc := in.key(), int(in.next()%128)+1, in.next()%2 == 1
			for i := range n {
				j := i
				if desc {
					j = n - 1 - i
				}
				insert(append(slices.Clip(base), byte(j>>8), byte(j)), nextRID)
				nextRID++
			}
		case 4:
			e := fuzzEntry{string(in.key()), storage.RID(in.next()) % nextRID}
			if len(model) > 0 && in.next()%2 == 0 {
				e = model[int(in.next())*len(model)/256]
			}
			i, live := find(e)
			if got := tr.Delete([]byte(e.key), e.rid); got != live {
				t.Fatalf("Delete(%x, %d) = %v, model has it: %v", e.key, e.rid, got, live)
			}
			if live {
				model = slices.Delete(model, i, i+1)
			}
		case 5:
			k := in.key()
			rid, ok := tr.Get(k)
			if ok != hasKey(k) {
				t.Fatalf("Get(%x) found %v, model has the key: %v", k, ok, !ok)
			}
			if _, live := find(fuzzEntry{string(k), rid}); ok && !live {
				t.Fatalf("Get(%x) = %d, not an entry of the model", k, rid)
			}
		case 6:
			k := in.key()
			got := tr.GetAll(k)
			var want []storage.RID
			for i, _ := find(fuzzEntry{key: string(k)}); i < len(model) && model[i].key == string(k); i++ {
				want = append(want, model[i].rid)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("GetAll(%x) = %v, want %v", k, got, want)
			}
		case 7:
			lo, hi := in.bound(), in.bound()
			flags, limit := in.next(), int(in.next()%32)
			checkScan(t, tr, model, lo, hi, flags&1 != 0, flags&2 != 0, limit)
		}
		if tr.Len() != len(model) {
			t.Fatalf("Len = %d, model holds %d", tr.Len(), len(model))
		}
		checkNodes(t, tr)
	}
	checkScan(t, tr, model, nil, nil, true, true, 0)
}

// checkScan compares ScanRange(lo, hi, loIncl, hiIncl) with the model's
// entries in range. Entries of one key may come in any RID order, so it
// compares the key sequence, then the entries sorted. A limit > 0 stops the
// scan after that many entries, and only the keys are compared.
func checkScan(t *testing.T, tr *BTree, model []fuzzEntry, lo, hi []byte, loIncl, hiIncl bool, limit int) {
	t.Helper()
	var want []fuzzEntry
	for _, e := range model {
		k := []byte(e.key)
		if lo != nil {
			if c := bytes.Compare(k, lo); c < 0 || c == 0 && !loIncl {
				continue
			}
		}
		if hi != nil {
			if c := bytes.Compare(k, hi); c > 0 || c == 0 && !hiIncl {
				continue
			}
		}
		want = append(want, e)
	}
	var got []fuzzEntry
	tr.ScanRange(lo, hi, loIncl, hiIncl, func(k []byte, rid storage.RID) bool {
		got = append(got, fuzzEntry{string(k), rid})
		return limit == 0 || len(got) < limit
	})
	if limit > 0 && len(want) > limit {
		want = want[:limit]
	}
	keysOf := func(es []fuzzEntry) []string {
		ks := make([]string, len(es))
		for i, e := range es {
			ks[i] = e.key
		}
		return ks
	}
	if !slices.Equal(keysOf(got), keysOf(want)) {
		t.Fatalf("ScanRange(%x, %x, %v, %v, limit %d): %d keys, want %d, or out of order",
			lo, hi, loIncl, hiIncl, limit, len(got), len(want))
	}
	if limit > 0 {
		return
	}
	sort.SliceStable(got, func(i, j int) bool { return got[i].compare(got[j]) < 0 })
	if !slices.Equal(got, want) {
		t.Fatalf("ScanRange(%x, %x, %v, %v): entries differ from the model", lo, hi, loIncl, hiIncl)
	}
}

// checkNodes walks the tree and checks the layout of every node: offsets
// that rise and end at the length of the key bytes, keys in order, at most
// maxKeys of them, arrays of matching lengths and every leaf at one depth.
// A leaf's entries ascend: by key in a unique tree, by key and then RID in
// a non-unique one. The tree's last leaf is the one the leaf chain ends at.
func checkNodes(t *testing.T, tr *BTree) {
	t.Helper()
	leafDepth := -1
	var rightmost *node
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		var prev uint32
		for i, e := range n.ends {
			if e < prev {
				t.Fatalf("depth %d: offset %d = %d below offset %d = %d", depth, i, e, i-1, prev)
			}
			if i > 0 && bytes.Compare(n.key(i-1), n.key(i)) > 0 {
				t.Fatalf("depth %d: key %d above key %d", depth, i-1, i)
			}
			prev = e
		}
		if int(prev) != len(n.keys) {
			t.Fatalf("depth %d: last offset %d, key bytes %d", depth, prev, len(n.keys))
		}
		if n.count() > maxKeys {
			t.Fatalf("depth %d: %d keys, max %d", depth, n.count(), maxKeys)
		}
		if n.leaf {
			if len(n.rids) != n.count() {
				t.Fatalf("depth %d: leaf has %d keys, %d rids", depth, n.count(), len(n.rids))
			}
			for i := 1; i < n.count(); i++ {
				c := bytes.Compare(n.key(i-1), n.key(i))
				if c == 0 && (tr.unique || n.rids[i-1] >= n.rids[i]) {
					t.Fatalf("depth %d: entries %d and %d of a leaf are (%x, %d) and (%x, %d)",
						depth, i-1, i, n.key(i-1), n.rids[i-1], n.key(i), n.rids[i])
				}
			}
			if n.next == nil {
				rightmost = n
			}
			if leafDepth >= 0 && depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			leafDepth = depth
			return
		}
		if n.count() == 0 || len(n.children) != n.count()+1 {
			t.Fatalf("depth %d: internal node has %d keys, %d children", depth, n.count(), len(n.children))
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(tr.root, 0)
	if tr.last != rightmost {
		t.Fatal("the tree's last leaf is not the one its leaf chain ends at")
	}
}
