// Package index implements an in-memory B+tree mapping encoded composite
// keys to row identifiers (storage.RID). It backs both primary and secondary
// indexes of the engine.
//
// Keys are the order-preserving encodings produced by sqltypes.EncodeKey,
// so byte-wise comparison matches SQL value ordering. Non-unique indexes
// store one entry per (key, RID) pair, ordered by key then RID; unique
// indexes reject duplicate keys.
//
// Deletion is lazy (no rebalancing): removed entries vacate their leaf but
// underfull leaves are not merged, matching the behaviour of several
// production B-trees. The tree is guarded by a single RWMutex; the engine's
// concurrency unit is the lock manager above it.
package index

import (
	"bytes"
	"fmt"
	"sync"

	"sqlcm/internal/storage"
)

const (
	maxKeys = 64 // max entries per node; split at maxKeys+1
	minKeys = maxKeys / 2
)

// BTree is an ordered index from encoded keys to RIDs.
type BTree struct {
	// mu protects the whole tree (coarse-grained; fine for index sizes here).
	// unique is immutable after construction.
	//sqlcm:lock index.btree
	//sqlcm:guards root, size
	mu     sync.RWMutex
	root   *node
	unique bool
	size   int
}

type node struct {
	leaf     bool
	keys     [][]byte
	rids     []storage.RID // leaf only; parallel to keys
	children []*node       // internal only; len(children) == len(keys)+1
	next     *node         // leaf chain
}

// New returns an empty B+tree. If unique is true, Insert rejects duplicate
// keys.
func New(unique bool) *BTree {
	return &BTree{root: &node{leaf: true}, unique: unique}
}

// Unique reports whether the tree enforces key uniqueness.
func (t *BTree) Unique() bool { return t.unique }

// Len returns the number of entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// entryLess orders (key, rid) pairs.
func entryLess(k1 []byte, r1 storage.RID, k2 []byte, r2 storage.RID) bool {
	switch bytes.Compare(k1, k2) {
	case -1:
		return true
	case 1:
		return false
	default:
		return r1 < r2
	}
}

// Insert adds (key, rid). For unique trees it returns an error when key is
// already present.
func (t *BTree) Insert(key []byte, rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.unique {
		if _, ok := t.lookupLocked(key); ok {
			return fmt.Errorf("index: duplicate key")
		}
	}
	k := append([]byte(nil), key...)
	midKey, right := t.insertRec(t.root, k, rid)
	if right != nil {
		t.root = &node{
			keys:     [][]byte{midKey},
			children: []*node{t.root, right},
		}
	}
	t.size++
	return nil
}

// insertRec inserts into subtree n; on split it returns the separator key
// and the new right sibling.
func (t *BTree) insertRec(n *node, key []byte, rid storage.RID) ([]byte, *node) {
	if n.leaf {
		i := n.lowerBound(key, rid)
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.rids = append(n.rids, 0)
		copy(n.rids[i+1:], n.rids[i:])
		n.rids[i] = rid
		if len(n.keys) <= maxKeys {
			return nil, nil
		}
		return n.splitLeaf()
	}
	ci := n.childIndex(key)
	midKey, right := t.insertRec(n.children[ci], key, rid)
	if right == nil {
		return nil, nil
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = midKey
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.keys) <= maxKeys {
		return nil, nil
	}
	return n.splitInternal()
}

// lowerBound returns the first position in a leaf whose (key,rid) is >= the
// given pair.
func (n *node) lowerBound(key []byte, rid storage.RID) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if entryLess(n.keys[mid], n.rids[mid], key, rid) {
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
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) < 0 {
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
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, n.keys[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// childIndexForSeek picks the leftmost child that can contain key.
func (n *node) childIndexForSeek(key []byte) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(key, n.keys[mid]) < 0 {
			hi = mid
		} else if bytes.Equal(key, n.keys[mid]) {
			// Equal keys may exist in the left subtree (separator is the
			// first key of the right sibling at split time, but deletions
			// can shift duplicates left), so descend left on equality.
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (n *node) splitLeaf() ([]byte, *node) {
	mid := len(n.keys) / 2
	right := &node{
		leaf: true,
		keys: append([][]byte(nil), n.keys[mid:]...),
		rids: append([]storage.RID(nil), n.rids[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.rids = n.rids[:mid:mid]
	n.next = right
	return right.keys[0], right
}

func (n *node) splitInternal() ([]byte, *node) {
	mid := len(n.keys) / 2
	midKey := n.keys[mid]
	right := &node{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
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
		if i < len(n.keys) {
			if bytes.Equal(n.keys[i], key) {
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
		for ; i < len(n.keys); i++ {
			c := bytes.Compare(n.keys[i], key)
			if c > 0 {
				return false
			}
			if c == 0 && n.rids[i] == rid {
				n.keys = append(n.keys[:i], n.keys[i+1:]...)
				n.rids = append(n.rids[:i], n.rids[i+1:]...)
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
// fn returning false stops the scan. fn may keep key: the tree never writes
// a key's bytes after Insert. fn runs under the tree's read latch and must
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
		for ; i < len(n.keys); i++ {
			k := n.keys[i]
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
