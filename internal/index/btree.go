// Package index implements an in-memory B+tree mapping encoded composite
// keys to row identifiers (storage.RID). It backs both primary and secondary
// indexes of the engine.
//
// Keys are the order-preserving encodings produced by sqltypes.EncodeKey,
// so byte-wise comparison matches SQL value ordering. Non-unique indexes
// store one entry per (key, RID) pair, ordered by key then RID; unique
// indexes reject duplicate keys.
//
// A node holds no pointer per entry: its keys sit back to back in one byte
// array, located by a parallel array of end offsets, so the collector marks
// a handful of objects per node instead of one per key. Insert and Delete
// shift bytes inside the node, which is why a key handed out by ScanRange
// is valid only during its callback.
//
// An insert that sorts after every entry of the rightmost leaf, the common
// case of an ascending key, appends to that leaf without a descent (the
// fast path PostgreSQL takes for monotonically increasing keys). When that
// leaf is full, the split keeps it full and starts the new rightmost leaf
// with the one new entry; an internal node on the right spine splits the
// same way. An ascending load so fills its nodes instead of leaving them
// half full (PostgreSQL's rightmost-page split).
//
// Deletion is lazy (no rebalancing): removed entries vacate their leaf but
// underfull leaves are not merged, matching the behaviour of several
// production B-trees. The tree is guarded by a single RWMutex; the engine's
// concurrency unit is the lock manager above it.
package index

import (
	"bytes"
	"errors"
	"slices"
	"sync"

	"sqlcm/internal/storage"
)

const maxKeys = 64 // max entries per node; split at maxKeys+1

var errDuplicate = errors.New("index: duplicate key")

// BTree is an ordered index from encoded keys to RIDs.
type BTree struct {
	// mu protects the whole tree (coarse-grained; fine for index sizes here).
	// unique is immutable after construction.
	//sqlcm:lock index.btree
	//sqlcm:guards root, last, size
	mu   sync.RWMutex
	root *node
	// last is the rightmost leaf, the one whose next is nil.
	last   *node
	unique bool
	size   int
}

type node struct {
	leaf bool
	// keys holds the node's keys back to back; key i ends at ends[i] and
	// starts where key i-1 ends (at 0 for key 0).
	keys     []byte
	ends     []uint32
	rids     []storage.RID // leaf only; parallel to ends
	children []*node       // internal only; len(children) == len(ends)+1
	next     *node         // leaf chain
}

// New returns an empty B+tree. If unique is true, Insert rejects duplicate
// keys.
func New(unique bool) *BTree {
	root := &node{leaf: true}
	return &BTree{root: root, last: root, unique: unique}
}

// Unique reports whether the tree enforces key uniqueness.
func (t *BTree) Unique() bool { return t.unique }

// Len returns the number of entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// count returns the number of keys in n.
func (n *node) count() int { return len(n.ends) }

// start returns the offset of key i in n.keys.
func (n *node) start(i int) uint32 {
	if i == 0 {
		return 0
	}
	return n.ends[i-1]
}

// key returns key i. Its capacity ends with it, so an append to it cannot
// write over the next key.
func (n *node) key(i int) []byte {
	s, e := n.start(i), n.ends[i]
	return n.keys[s:e:e]
}

// insertKey makes a copy of key the node's key i, shifting later keys up.
func (n *node) insertKey(i int, key []byte) {
	s, d := n.start(i), uint32(len(key))
	n.keys = slices.Insert(n.keys, int(s), key...)
	n.ends = slices.Insert(n.ends, i, s)
	for j := i; j < len(n.ends); j++ {
		n.ends[j] += d
	}
}

// deleteKey removes key i, shifting later keys down.
func (n *node) deleteKey(i int) {
	s, e := n.start(i), n.ends[i]
	n.keys = slices.Delete(n.keys, int(s), int(e))
	n.ends = slices.Delete(n.ends, i, i+1)
	for j := i; j < len(n.ends); j++ {
		n.ends[j] -= e - s
	}
}

// head returns fresh copies of the keys and ends of keys [0, i).
func (n *node) head(i int) ([]byte, []uint32) {
	return slices.Clone(n.keys[:n.start(i)]), slices.Clone(n.ends[:i])
}

// tail returns fresh copies of the keys and ends of keys [i, count),
// offsets rebased to the copy.
func (n *node) tail(i int) ([]byte, []uint32) {
	s := n.start(i)
	ends := slices.Clone(n.ends[i:])
	for j := range ends {
		ends[j] -= s
	}
	return slices.Clone(n.keys[s:]), ends
}

// Insert adds (key, rid). For unique trees it returns an error when key is
// already present. The tree copies key.
func (t *BTree) Insert(key []byte, rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.last; n.count() > 0 && n.count() < maxKeys && t.sortsLast(n, key, rid) {
		// The descent would end here too: the entry is above the leaf's
		// last, which is at or above every separator on the right spine.
		n.keys = append(n.keys, key...)
		n.ends = append(n.ends, uint32(len(n.keys)))
		n.rids = append(n.rids, rid)
		t.size++
		return nil
	}
	sep, right, err := t.insertRec(t.root, true, key, rid)
	if err != nil {
		return err
	}
	if right != nil {
		root := &node{children: []*node{t.root, right}}
		root.insertKey(0, sep)
		t.root = root
	}
	t.size++
	return nil
}

// sortsLast reports whether (key, rid) sorts after the last entry of n, a
// non-empty leaf: by key alone in a unique tree, where an equal key is a
// duplicate, by key and then RID in a non-unique one.
//
//sqlcm:lock-held index.btree
func (t *BTree) sortsLast(n *node, key []byte, rid storage.RID) bool {
	i := n.count() - 1
	c := bytes.Compare(key, n.key(i))
	return c > 0 || c == 0 && !t.unique && rid > n.rids[i]
}

// insertRec inserts into subtree n, which is the last node of its level
// when last is set; on split it returns the separator key and the new
// right sibling. The separator is valid until the next write to the tree:
// the caller copies it.
//
// A unique tree finds a duplicate in the leaf it inserts into: a leaf split
// in a unique tree leaves every left key below the separator, and inserts
// descend right on ties, so every key a subtree holds lies in the key range
// its separators give it.
//
//sqlcm:lock-held index.btree
func (t *BTree) insertRec(n *node, last bool, key []byte, rid storage.RID) ([]byte, *node, error) {
	if n.leaf {
		var i int
		if t.unique {
			i = n.lowerBoundKey(key)
			if i < n.count() && bytes.Equal(n.key(i), key) {
				return nil, nil, errDuplicate
			}
		} else {
			i = n.lowerBound(key, rid)
		}
		n.insertKey(i, key)
		n.rids = slices.Insert(n.rids, i, rid)
		if n.count() <= maxKeys {
			return nil, nil, nil
		}
		mid := n.count() / 2
		if last && i == n.count()-1 {
			mid = i // an append: the new leaf starts with the new entry
		}
		sep, right := n.splitLeaf(mid)
		if right.next == nil {
			t.last = right
		}
		return sep, right, nil
	}
	ci := n.childIndex(key)
	sep, right, err := t.insertRec(n.children[ci], last && ci == n.count(), key, rid)
	if right == nil {
		return nil, nil, err
	}
	n.insertKey(ci, sep)
	n.children = slices.Insert(n.children, ci+1, right)
	if n.count() <= maxKeys {
		return nil, nil, nil
	}
	mid := n.count() / 2
	if last && ci == n.count()-1 {
		// An append: the new node keeps the new separator and the two
		// children either side of it, the least an internal node holds.
		mid = ci - 1
	}
	sep, right = n.splitInternal(mid)
	return sep, right, nil
}

// lowerBound returns the first position in a leaf whose (key,rid) is >= the
// given pair.
func (n *node) lowerBound(key []byte, rid storage.RID) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		c := bytes.Compare(n.key(mid), key)
		if c < 0 || c == 0 && n.rids[mid] < rid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBoundKey returns the first position in a leaf whose key is >= key
// (ignoring RIDs).
func (n *node) lowerBoundKey(key []byte) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.key(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex picks the child subtree for inserting key in an internal
// node. Separator keys at internal nodes are pure key bytes; ties descend
// right.
func (n *node) childIndex(key []byte) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, n.key(mid)) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// childIndexForSeek picks the leftmost child that can contain key. It
// descends left on ties: in a non-unique tree a separator is the first key
// of the right sibling at split time, and equal keys may sit left of it.
func (n *node) childIndexForSeek(key []byte) int {
	lo, hi := 0, n.count()
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, n.key(mid)) <= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// splitLeaf moves the entries of n from mid up into a new right sibling.
// Both halves get arrays of exactly their length, so a finished leaf pins
// no slack.
func (n *node) splitLeaf(mid int) ([]byte, *node) {
	right := &node{leaf: true, rids: slices.Clone(n.rids[mid:]), next: n.next}
	right.keys, right.ends = n.tail(mid)
	n.keys, n.ends = n.head(mid)
	n.rids = slices.Clone(n.rids[:mid])
	n.next = right
	return right.key(0), right
}

// splitInternal moves the keys and children above key mid into a new
// right sibling and returns key mid, which the old key array keeps until
// the caller has copied it.
func (n *node) splitInternal(mid int) ([]byte, *node) {
	midKey := n.key(mid)
	right := &node{children: slices.Clone(n.children[mid+1:])}
	right.keys, right.ends = n.tail(mid + 1)
	n.keys, n.ends = n.head(mid)
	n.children = slices.Clone(n.children[:mid+1])
	return midKey, right
}

// lookupLocked returns the RID of the first entry with exactly key.
//
//sqlcm:lock-held index.btree
func (t *BTree) lookupLocked(key []byte) (storage.RID, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndexForSeek(key)]
	}
	for {
		i := n.lowerBoundKey(key)
		if i < n.count() {
			if bytes.Equal(n.key(i), key) {
				return n.rids[i], true
			}
			return 0, false
		}
		if n.next == nil {
			return 0, false
		}
		n = n.next
	}
}

// Get returns the RID of the first entry matching key exactly.
func (t *BTree) Get(key []byte) (storage.RID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lookupLocked(key)
}

// GetAll returns the RIDs of every entry matching key exactly.
func (t *BTree) GetAll(key []byte) []storage.RID {
	var out []storage.RID
	t.ScanRange(key, key, true, true, func(k []byte, rid storage.RID) bool {
		out = append(out, rid)
		return true
	})
	return out
}

// Delete removes the entry (key, rid), reporting whether it was present.
func (t *BTree) Delete(key []byte, rid storage.RID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndexForSeek(key)]
	}
	// Duplicate keys are not guaranteed to be rid-ordered across leaves
	// (separators carry only key bytes), so scan every equal-key entry.
	i := n.lowerBoundKey(key)
	for {
		for ; i < n.count(); i++ {
			c := bytes.Compare(n.key(i), key)
			if c > 0 {
				return false
			}
			if c == 0 && n.rids[i] == rid {
				n.deleteKey(i)
				n.rids = slices.Delete(n.rids, i, i+1)
				t.size--
				return true
			}
		}
		if n.next == nil {
			return false
		}
		n = n.next
		i = 0
	}
}

// ScanRange visits entries with lo <= key <= hi (bounds optional: nil lo
// means from the start, nil hi means to the end; inclusivity per flag).
// fn returning false stops the scan. The key handed to fn is the tree's own
// bytes, valid only until fn returns: a later Insert or Delete shifts them,
// so fn copies what it keeps. fn runs under the tree's read latch and must
// not take a latch.
func (t *BTree) ScanRange(lo, hi []byte, loIncl, hiIncl bool, fn func(key []byte, rid storage.RID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	if lo == nil {
		for !n.leaf {
			n = n.children[0]
		}
	} else {
		for !n.leaf {
			n = n.children[n.childIndexForSeek(lo)]
		}
	}
	i := 0
	if lo != nil {
		i = n.lowerBoundKey(lo)
	}
	for {
		for ; i < n.count(); i++ {
			k := n.key(i)
			if lo != nil && !loIncl && bytes.Equal(k, lo) {
				continue
			}
			if hi != nil {
				c := bytes.Compare(k, hi)
				if c > 0 || (c == 0 && !hiIncl) {
					return
				}
			}
			//sqlcm:allow every callback copies the entry out and takes no latch
			if !fn(k, n.rids[i]) {
				return
			}
		}
		if n.next == nil {
			return
		}
		n = n.next
		i = 0
	}
}

// ScanAll visits every entry in key order.
func (t *BTree) ScanAll(fn func(key []byte, rid storage.RID) bool) {
	t.ScanRange(nil, nil, true, true, fn)
}

// Height returns the tree height (diagnostics).
func (t *BTree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h := 1
	n := t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}
