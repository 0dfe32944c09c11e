package storage

import (
	"container/list"
	"fmt"

	"sqlcm/internal/lockcheck"
)

// Page is a buffer-pool frame holding one disk page. Callers must hold the
// page pinned while reading or writing Data, and use the Latch for
// concurrent access to the contents.
type Page struct {
	ID   PageID
	Data [PageSize]byte
	// Latch guards Data for concurrent readers and writers. Data is not
	// declared //sqlcm:guarded-by because the pin discipline also protects
	// it: eviction and flush write an unpinned page's contents under the
	// pool lock alone, with no reader able to hold a reference.
	//sqlcm:lock storage.page after storage.pool
	//sqlcm:guards none
	Latch lockcheck.RWMutex

	// The bookkeeping fields belong to the pool, not the page latch.
	//sqlcm:guarded-by storage.pool
	pins int32
	//sqlcm:guarded-by storage.pool
	dirty bool
	// elem is the position in the pool's LRU list (nil when pinned).
	//sqlcm:guarded-by storage.pool
	elem *list.Element
}

// PoolStats aggregates buffer-pool counters. Reads are physical disk reads
// (misses); Hits are logical fetches served from memory.
type PoolStats struct {
	Hits      int64
	Misses    int64
	Writes    int64
	Evictions int64
}

// BufferPool caches disk pages with pin-counted LRU replacement.
type BufferPool struct {
	disk DiskManager

	// mu protects the frame map, LRU list and counters. capacity is
	// immutable after construction.
	//sqlcm:lock storage.pool after storage.heap
	//sqlcm:guards reserved, frames, lru, hits, misses, writes, evictions
	mu       lockcheck.Mutex
	capacity int   // max resident pages
	reserved int64 // bytes of capacity stolen by ReserveBytes
	frames   map[PageID]*Page
	lru      *list.List // of PageID, front = least recently used

	hits, misses, writes, evictions int64
}

// NewBufferPool creates a pool over disk with room for capacity pages.
func NewBufferPool(disk DiskManager, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		disk:     disk,
		capacity: capacity,
		frames:   make(map[PageID]*Page, capacity),
		lru:      list.New(),
	}
	bp.mu.SetClass("storage.pool")
	return bp
}

// Disk exposes the underlying disk manager.
func (bp *BufferPool) Disk() DiskManager { return bp.disk }

// ReserveBytes steals n bytes of capacity from the pool, modelling other
// in-server memory consumers (e.g. a monitoring history buffer) competing
// with the page cache. Pass a negative n to release. The effective
// capacity never drops below one page.
func (bp *BufferPool) ReserveBytes(n int64) {
	bp.mu.Lock()
	bp.reserved += n
	if bp.reserved < 0 {
		bp.reserved = 0
	}
	bp.mu.Unlock()
}

//sqlcm:lock-held storage.pool
func (bp *BufferPool) effectiveCapacity() int {
	pages := int((bp.reserved + PageSize - 1) / PageSize)
	c := bp.capacity - pages
	if c < 1 {
		c = 1
	}
	return c
}

// NewPage allocates a fresh zeroed page, returning it pinned.
func (bp *BufferPool) NewPage() (*Page, error) {
	id, err := bp.disk.AllocatePage()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err := bp.makeRoomLocked(); err != nil {
		return nil, err
	}
	p := &Page{ID: id, pins: 1, dirty: true}
	p.Latch.SetClass("storage.page")
	bp.frames[id] = p
	return p, nil
}

// FetchPage returns the page pinned, reading it from disk on a miss.
func (bp *BufferPool) FetchPage(id PageID) (*Page, error) {
	bp.mu.Lock()
	if p, ok := bp.frames[id]; ok {
		p.pins++
		if p.elem != nil {
			bp.lru.Remove(p.elem)
			p.elem = nil
		}
		bp.hits++
		bp.mu.Unlock()
		return p, nil
	}
	if err := bp.makeRoomLocked(); err != nil {
		bp.mu.Unlock()
		return nil, err
	}
	p := &Page{ID: id, pins: 1}
	p.Latch.SetClass("storage.page")
	// Publish the frame with its content latch held exclusively: the disk
	// read happens outside the pool lock, and any concurrent fetcher of the
	// same page blocks on the latch until the contents are loaded.
	p.Latch.Lock()
	bp.frames[id] = p
	bp.misses++
	bp.mu.Unlock()

	err := bp.disk.ReadPage(id, p.Data[:])
	p.Latch.Unlock()
	if err != nil {
		bp.mu.Lock()
		p.pins--
		if p.pins == 0 {
			delete(bp.frames, id)
		}
		bp.mu.Unlock()
		return nil, err
	}
	return p, nil
}

// makeRoomLocked evicts the least-recently-used unpinned page if the pool
// is at capacity. Caller holds bp.mu.
//
//sqlcm:lock-held storage.pool
func (bp *BufferPool) makeRoomLocked() error {
	for len(bp.frames) >= bp.effectiveCapacity() {
		front := bp.lru.Front()
		if front == nil {
			return fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", len(bp.frames))
		}
		id := front.Value.(PageID)
		p := bp.frames[id]
		bp.lru.Remove(front)
		p.elem = nil
		delete(bp.frames, id)
		bp.evictions++
		if p.dirty {
			bp.writes++
			if err := bp.disk.WritePage(id, p.Data[:]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Unpin releases one pin on the page; dirty marks the contents modified.
func (bp *BufferPool) Unpin(p *Page, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if dirty {
		p.dirty = true
	}
	p.pins--
	if p.pins < 0 {
		panic("storage: negative pin count")
	}
	if p.pins == 0 && p.elem == nil {
		p.elem = bp.lru.PushBack(p.ID)
	}
}

// FlushAll writes every dirty resident page to disk.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, p := range bp.frames {
		if p.dirty {
			bp.writes++
			if err := bp.disk.WritePage(id, p.Data[:]); err != nil {
				return err
			}
			p.dirty = false
		}
	}
	return nil
}

// Stats returns a snapshot of the pool counters.
func (bp *BufferPool) Stats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return PoolStats{
		Hits:      bp.hits,
		Misses:    bp.misses,
		Writes:    bp.writes,
		Evictions: bp.evictions,
	}
}
