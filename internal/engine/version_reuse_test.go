package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sqlcm/internal/storage"
)

// reusePayload is the record of version ver of the row at rid: the two
// numbers, then a filler whose length and bytes both derive from them.
// Rows of a few lengths share the arena's free lists, and the lengths
// climb with the version to 2 KiB and drop back, so freed ranges pile up
// and compactions move rows while readers hold them.
func reusePayload(rid storage.RID, ver uint64) []byte {
	b := make([]byte, 16+int((uint64(rid)*7+ver*13)%48)+int(ver%256)*8)
	binary.LittleEndian.PutUint64(b, uint64(rid))
	binary.LittleEndian.PutUint64(b[8:], ver)
	for j := 16; j < len(b); j++ {
		b[j] = byte(uint64(rid)*31 + ver*17 + uint64(j))
	}
	return b
}

// payloadVersion returns the version rec holds, or an error unless rec is
// exactly reusePayload(rid, version).
func payloadVersion(rec []byte, rid storage.RID) (uint64, error) {
	if len(rec) < 16 || storage.RID(binary.LittleEndian.Uint64(rec)) != rid {
		return 0, fmt.Errorf("row %v reads %x", rid, rec)
	}
	ver := binary.LittleEndian.Uint64(rec[8:])
	if !bytes.Equal(rec, reusePayload(rid, ver)) {
		return 0, fmt.Errorf("row %v version %d reads %x", rid, ver, rec)
	}
	return ver, nil
}

// The version store reuses the records and bytes Prune, Pop and Discard
// cut, but never while a transaction that could still hold them lives.
// Snapshot readers pin old versions and re-read them, keeping the byte
// slices their first reads returned; current-mode walkers resolve the
// newest committed version past other writers' uncommitted heads without
// the row lock; meanwhile writers update, delete, re-insert, roll back and
// prune the same few rows, and a rolled-back re-insert reads its bytes
// after it drops its chain, as an INSERT's undo does. Every record is derived from its RID and
// version, so a record or byte range handed out again too early shows up
// as a row that reads another row's bytes, a snapshot that reads two
// versions, or a held slice that changes.
func TestVersionReuseWaitsForReaders(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e.NewSession("setup", "reuse"), "CREATE TABLE hot (id INT PRIMARY KEY)")
	ts, err := e.reg.Store("hot")
	if err != nil {
		t.Fatal(err)
	}
	vs := ts.Vers
	const hot, writers, writes = 4, 3, 1500
	var (
		rids   [hot]atomic.Uint64 // each row's RID
		rowMu  [hot]sync.Mutex    // the row's X lock
		vers   [hot]uint64        // each row's newest committed version, under rowMu
		failed atomic.Bool
	)
	fail := func(format string, args ...any) {
		failed.Store(true)
		t.Errorf(format, args...)
	}
	for r := range hot {
		tx := e.tm.Begin(false)
		rid := vs.NewRID()
		tx.OnCommit(vs.Install(rid, reusePayload(rid, 0), int64(tx.ID), false))
		if err := e.tm.Commit(tx); err != nil {
			t.Fatal(err)
		}
		rids[r].Store(uint64(rid))
	}

	var wg sync.WaitGroup
	var writing atomic.Int32
	writing.Store(writers)
	for w := range writers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writing.Add(-1)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < writes && !failed.Load(); i++ {
				r := rng.Intn(hot)
				rowMu[r].Lock()
				tx := e.tm.Begin(false)
				self := int64(tx.ID)
				rid := storage.RID(rids[r].Load())
				ver := vers[r] + 1
				newRID := rid
				_, live := vs.ReadAt(rid, storage.CurrentSnapshot(self))
				switch {
				case !live:
					// Deleted: insert the row again, under a new RID.
					newRID = vs.NewRID()
					tx.OnCommit(vs.Install(newRID, reusePayload(newRID, ver), self, false))
					tx.OnRollback(func() error {
						// As an INSERT's undo: read the row, drop its chain,
						// then use the bytes, which other writers' passes must
						// not hand out while this transaction lives.
						cr, ok := vs.ReadAt(newRID, storage.CurrentSnapshot(self))
						vs.Discard(newRID)
						for range 32 {
							runtime.Gosched()
						}
						if got, err := payloadVersion(cr.Rec, newRID); !ok || err != nil || got != ver {
							fail("undo of the insert of row %v: visible %v, version %d of %d (%v)", newRID, ok, got, ver, err)
						}
						return nil
					})
				case rng.Intn(5) == 0:
					tx.OnCommit(vs.Tombstone(rid, self))
					tx.OnRollback(func() error { vs.Pop(rid); return nil })
				default:
					tx.OnCommit(vs.Push(rid, reusePayload(rid, ver), self))
					tx.OnRollback(func() error { vs.Pop(rid); return nil })
				}
				// Walkers pass the uncommitted head meanwhile; half of them go
				// again at once, and a pass then hands their records out.
				runtime.Gosched()
				if rng.Intn(2) == 0 {
					e.tm.Rollback(tx) //nolint:errcheck
				} else {
					e.tm.Commit(tx) //nolint:errcheck
					vers[r] = ver
					rids[r].Store(uint64(newRID))
				}
				rowMu[r].Unlock()
				ts.PruneVersions(e.tm.Watermark())
			}
		}(w)
	}

	// Snapshot readers: read every row, yield, and read again; the second
	// read and the bytes the first one returned must still say the same.
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for writing.Load() > 0 && !failed.Load() {
				tx := e.tm.Begin(false)
				snap := storage.Snapshot{TS: tx.SnapshotTS(), Self: int64(tx.ID)}
				type seen struct {
					rid  storage.RID
					ok   bool
					ver  uint64
					rec  []byte
					copy []byte
				}
				var first []seen
				for r := range hot {
					rid := storage.RID(rids[r].Load())
					cr, ok := vs.ReadAt(rid, snap)
					s := seen{rid: rid, ok: ok, rec: cr.Rec, copy: bytes.Clone(cr.Rec)}
					if ok {
						var err error
						if s.ver, err = payloadVersion(cr.Rec, rid); err != nil {
							fail("snapshot read: %v", err)
						}
					}
					first = append(first, s)
				}
				for pass := 0; pass < 4; pass++ {
					runtime.Gosched()
					for _, s := range first {
						cr, ok := vs.ReadAt(s.rid, snap)
						if ok != s.ok {
							fail("row %v at snapshot %d: visible %v, then %v", s.rid, snap.TS, s.ok, ok)
							continue
						}
						if ok {
							if ver, err := payloadVersion(cr.Rec, s.rid); err != nil || ver != s.ver {
								fail("row %v at snapshot %d: version %d, then %d (%v)", s.rid, snap.TS, s.ver, ver, err)
							}
						}
						if !bytes.Equal(s.rec, s.copy) {
							fail("row %v: bytes held since the first read changed: %x, now %x", s.rid, s.copy, s.rec)
						}
					}
					for _, cr := range vs.SnapScan(snap) {
						if _, err := payloadVersion(cr.Rec, cr.Rid); err != nil {
							fail("snapshot scan: %v", err)
						}
					}
				}
				e.tm.Commit(tx) //nolint:errcheck
			}
		}()
	}

	// Current-mode walkers: the view of a writer on rows it has not
	// locked, which skips other writers' uncommitted heads.
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for writing.Load() > 0 && !failed.Load() {
				tx := e.tm.Begin(false)
				var held [][2][]byte
				for k := 0; k < 3*hot; k++ {
					rid := storage.RID(rids[k%hot].Load())
					cr, ok := vs.ReadAt(rid, storage.CurrentSnapshot(int64(tx.ID)))
					if !ok {
						continue
					}
					if _, err := payloadVersion(cr.Rec, rid); err != nil {
						fail("current-mode read: %v", err)
					}
					held = append(held, [2][]byte{cr.Rec, bytes.Clone(cr.Rec)})
				}
				runtime.Gosched()
				for _, h := range held {
					if !bytes.Equal(h[0], h[1]) {
						fail("current-mode bytes changed while held: %x, now %x", h[1], h[0])
					}
				}
				e.tm.Commit(tx) //nolint:errcheck
			}
		}()
	}
	wg.Wait()
	if st := e.MVCCStats(); st.Pruned.Load() == 0 {
		t.Fatal("no version was ever pruned, so none was reused")
	}
}
