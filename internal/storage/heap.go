package storage

import "sqlcm/internal/lockcheck"

// HeapFile stores variable-length records in a chain of slotted pages,
// fetched through a buffer pool. It is safe for concurrent use; record
// content consistency across transactions is the caller's (lock manager's)
// responsibility. It is written, never read back: rows are read through
// their version chains (see version.go), and the heap allocates their RIDs
// and holds the current images that FlushAll persists.
type HeapFile struct {
	pool *BufferPool

	// mu protects the page chain and serializes file growth.
	//sqlcm:lock storage.heap
	//sqlcm:guards pages, first, last
	mu    lockcheck.Mutex
	pages []PageID // all pages of the file, in chain order
	first PageID
	last  PageID
}

// NewHeapFile creates an empty heap file with one page.
func NewHeapFile(pool *BufferPool) (*HeapFile, error) {
	h := &HeapFile{pool: pool, first: InvalidPageID, last: InvalidPageID}
	h.mu.SetClass("storage.heap")
	p, err := pool.NewPage()
	if err != nil {
		return nil, err
	}
	p.Latch.Lock()
	InitSlotted(p)
	p.Latch.Unlock()
	h.first, h.last = p.ID, p.ID
	h.pages = []PageID{p.ID}
	pool.Unpin(p, true)
	return h, nil
}

// Pages returns the number of pages in the file.
func (h *HeapFile) Pages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pages)
}

// Insert stores rec and returns its RID. It tries the last page first and
// appends a new page when full.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	h.mu.Lock()
	last := h.last
	h.mu.Unlock()

	p, err := h.pool.FetchPage(last)
	if err != nil {
		return RID{}, err
	}
	p.Latch.Lock()
	slot, err := SlottedInsert(p, rec)
	p.Latch.Unlock()
	if err == nil {
		h.pool.Unpin(p, true)
		return RID{Page: last, Slot: slot}, nil
	}
	h.pool.Unpin(p, false)
	if !IsPageFull(err) {
		return RID{}, err
	}

	// Grow the file. Serialize growth so two inserters do not both append.
	h.mu.Lock()
	if h.last != last {
		// Someone else already grew the file; retry on the new last page.
		h.mu.Unlock()
		return h.Insert(rec)
	}
	np, err := h.pool.NewPage()
	if err != nil {
		h.mu.Unlock()
		return RID{}, err
	}
	np.Latch.Lock()
	InitSlotted(np)
	slot, err = SlottedInsert(np, rec)
	np.Latch.Unlock()
	if err != nil {
		h.mu.Unlock()
		h.pool.Unpin(np, true)
		return RID{}, err
	}
	prevLast := h.last
	h.last = np.ID
	h.pages = append(h.pages, np.ID)
	h.mu.Unlock()
	h.pool.Unpin(np, true)

	// Chain the previous last page to the new one.
	pp, err := h.pool.FetchPage(prevLast)
	if err != nil {
		return RID{}, err
	}
	pp.Latch.Lock()
	SetNextPage(pp, np.ID)
	pp.Latch.Unlock()
	h.pool.Unpin(pp, true)

	return RID{Page: np.ID, Slot: slot}, nil
}

// Delete removes the record at rid.
func (h *HeapFile) Delete(rid RID) error {
	p, err := h.pool.FetchPage(rid.Page)
	if err != nil {
		return err
	}
	p.Latch.Lock()
	err = SlottedDelete(p, rid.Slot)
	p.Latch.Unlock()
	h.pool.Unpin(p, err == nil)
	return err
}

// Update replaces the record at rid, returning the (possibly new) RID: when
// the record no longer fits on its page it is moved to another page.
func (h *HeapFile) Update(rid RID, rec []byte) (RID, error) {
	p, err := h.pool.FetchPage(rid.Page)
	if err != nil {
		return RID{}, err
	}
	p.Latch.Lock()
	err = SlottedUpdate(p, rid.Slot, rec)
	p.Latch.Unlock()
	if err == nil {
		h.pool.Unpin(p, true)
		return rid, nil
	}
	h.pool.Unpin(p, false)
	if !IsPageFull(err) {
		return RID{}, err
	}
	// Relocate: delete then insert elsewhere.
	if err := h.Delete(rid); err != nil {
		return RID{}, err
	}
	return h.Insert(rec)
}

// Truncate removes all records (pages are kept and reinitialized).
func (h *HeapFile) Truncate() error {
	h.mu.Lock()
	pages := append([]PageID(nil), h.pages...)
	h.mu.Unlock()
	for i, pid := range pages {
		p, err := h.pool.FetchPage(pid)
		if err != nil {
			return err
		}
		p.Latch.Lock()
		InitSlotted(p)
		if i+1 < len(pages) {
			SetNextPage(p, pages[i+1])
		}
		p.Latch.Unlock()
		h.pool.Unpin(p, true)
	}
	return nil
}
