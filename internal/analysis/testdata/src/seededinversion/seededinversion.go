// Package seededinversion reproduces the latch bug shape of the early,
// multi-latch LAT: inserts nest ordering latch → shard latch, while the seeded
// eviction path takes a shard latch first and the ordering latch second.
// Running both concurrently deadlocks; the static checker must flag the
// reversed nesting from the declared order alone.
package seededinversion

import "sync"

type table struct {
	// Ordering latch: taken before any shard latch.
	//sqlcm:lock t.order
	heapMu sync.Mutex
	shards [4]shard
}

type shard struct {
	//sqlcm:lock t.shard after t.order
	mu     sync.Mutex
	groups map[string]int
}

// insert nests correctly: ordering latch, then shard latch.
func (t *table) insert(key string) {
	t.heapMu.Lock()
	sh := &t.shards[0]
	sh.mu.Lock()
	sh.groups[key] = 1
	sh.mu.Unlock()
	t.heapMu.Unlock()
}

// evict is the seeded bug: shard latch first, ordering latch second —
// the reverse nesting of insert.
func (t *table) evict(key string) {
	sh := &t.shards[0]
	sh.mu.Lock()
	t.heapMu.Lock()
	delete(sh.groups, key)
	t.heapMu.Unlock()
	sh.mu.Unlock()
}
