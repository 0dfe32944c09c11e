package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"sqlcm/internal/lockcheck"
	"sqlcm/internal/sqltypes"
)

// metaTable records committed checkpoint generations. A checkpoint is only
// visible to recovery once its meta row exists: data rows are written
// first, the meta row last (write-new-then-swap), so a crash mid-checkpoint
// leaves the previous generation intact and recoverable.
const metaTable = "sqlcm_lat_checkpoints"

// genColumn tags every data row with the generation that wrote it.
const genColumn = "sqlcm_gen"

// checkpointer periodically persists marked LATs to disk tables and
// restores them at startup (§4.3 made crash-safe). Each checkpoint writes
// a complete snapshot under a fresh generation number; old generations are
// garbage-collected only after the new one commits.
type checkpointer struct {
	s        *SQLCM
	interval time.Duration

	// mu protects the mark and generation maps and the loop state.
	//sqlcm:lock core.checkpoint
	//sqlcm:guards marks, lastGen, started
	mu      lockcheck.Mutex
	marks   map[string]string // LAT name → disk table
	lastGen map[string]int64  // LAT name → last committed generation

	stopCh  chan struct{}
	done    chan struct{}
	started bool

	ckpts atomic.Int64
}

func newCheckpointer(s *SQLCM, interval time.Duration) *checkpointer {
	c := &checkpointer{
		s:        s,
		interval: interval,
		marks:    make(map[string]string),
		lastGen:  make(map[string]int64),
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	c.mu.SetClass("core.checkpoint")
	return c
}

// mark registers a LAT for checkpointing into table and immediately
// restores the newest consistent generation found there (if any). It also
// starts the background checkpoint loop on first use when an interval is
// configured.
func (c *checkpointer) mark(latName, table string) error {
	t, ok := c.s.LAT(latName)
	if !ok {
		return fmt.Errorf("core: unknown LAT %q", latName)
	}
	c.mu.Lock()
	if prev, dup := c.marks[latName]; dup && prev != table {
		c.mu.Unlock()
		return fmt.Errorf("core: LAT %q already checkpoints to %q", latName, prev)
	}
	c.marks[latName] = table
	startLoop := c.interval > 0 && !c.started
	if startLoop {
		c.started = true
	}
	c.mu.Unlock()

	gen, maxGen, rows, err := c.newestConsistent(latName, table)
	if err != nil {
		return err
	}
	if gen > 0 {
		if err := t.Restore(rows); err != nil {
			return err
		}
	}
	if maxGen > 0 {
		// Future generations start above anything ever written — including
		// uncommitted rows left by a crash mid-checkpoint — so a new
		// generation never collides with stale data.
		c.mu.Lock()
		if maxGen > c.lastGen[latName] {
			c.lastGen[latName] = maxGen
		}
		c.mu.Unlock()
	}
	if startLoop {
		go c.loop()
	}
	return nil
}

// newestConsistent scans the meta table for latName's highest generation
// whose data rows are all present, and returns those rows stripped of the
// bookkeeping columns. gen 0 means no recoverable checkpoint. maxGen is
// the highest generation seen anywhere — committed or not — so callers can
// start numbering above stale rows left by a crash mid-checkpoint.
func (c *checkpointer) newestConsistent(latName, table string) (gen, maxGen int64, rows [][]sqltypes.Value, err error) {
	meta, err := c.s.eng.ReadTableDirect(metaTable)
	if err != nil {
		return 0, 0, nil, nil // no meta table yet: nothing to restore
	}
	// Collect committed generations for this LAT/table pair.
	type commit struct {
		gen   int64
		nrows int64
	}
	var commits []commit
	for _, r := range meta {
		if len(r) < 4 || r[0].Str() != latName || r[1].Str() != table {
			continue
		}
		commits = append(commits, commit{gen: r[2].Int(), nrows: r[3].Int()})
		if g := r[2].Int(); g > maxGen {
			maxGen = g
		}
	}
	if len(commits) == 0 {
		return 0, maxGen, nil, nil
	}
	data, err := c.s.eng.ReadTableDirect(table)
	if err != nil {
		return 0, maxGen, nil, nil // meta without data: treat as unrecoverable
	}
	t, _ := c.s.LAT(latName)
	want := len(t.Spec().Columns())
	byGen := make(map[int64][][]sqltypes.Value)
	for _, r := range data {
		// Row layout: LAT columns, sqlcm_gen, sqlcm_ts.
		if len(r) < want+1 {
			continue
		}
		g := r[want].Int()
		byGen[g] = append(byGen[g], r[:want])
		if g > maxGen {
			maxGen = g
		}
	}
	best := commit{}
	for _, cm := range commits {
		if cm.gen > best.gen && int64(len(byGen[cm.gen])) == cm.nrows {
			best = cm
		}
	}
	if best.gen == 0 {
		return 0, maxGen, nil, nil
	}
	return best.gen, maxGen, byGen[best.gen], nil
}

// loop runs periodic checkpoints until stop.
func (c *checkpointer) loop() {
	defer close(c.done)
	tick := time.NewTicker(c.interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.checkpointAll()
		case <-c.stopCh:
			return
		}
	}
}

// checkpointAll checkpoints every marked LAT without propagating failures:
// a broken disk must never take down the monitoring layer.
func (c *checkpointer) checkpointAll() {
	c.mu.Lock()
	pairs := make([][2]string, 0, len(c.marks))
	for l, tb := range c.marks {
		pairs = append(pairs, [2]string{l, tb})
	}
	c.mu.Unlock()
	for _, p := range pairs {
		_ = c.checkpoint(p[0], p[1]) // the next tick retries
	}
}

// checkpoint writes one atomic snapshot of the LAT: all data rows under a
// fresh generation, then the meta row that commits it, then best-effort GC
// of superseded generations.
func (c *checkpointer) checkpoint(latName, table string) error {
	t, ok := c.s.LAT(latName)
	if !ok {
		return fmt.Errorf("core: unknown LAT %q", latName)
	}
	c.mu.Lock()
	gen := c.lastGen[latName] + 1
	c.mu.Unlock()

	cols := append(append([]string(nil), t.Spec().Columns()...), genColumn)
	want := len(t.Spec().Columns())
	// Defense in depth: clear any stale rows at or above this generation
	// (possible only if generation tracking was lost, e.g. a hand-edited
	// table); recovery counts rows per generation, so leftovers would make
	// this checkpoint look inconsistent.
	if _, err := c.s.eng.Catalog().Table(table); err == nil {
		if _, err := c.s.eng.DeleteRowsDirect(table, func(r []sqltypes.Value) bool {
			return len(r) > want && r[want].Int() >= gen
		}); err != nil {
			return err
		}
	}
	rows := t.Rows()
	for _, row := range rows {
		full := append(append([]sqltypes.Value(nil), row...), sqltypes.NewInt(gen))
		if err := c.s.persister.Persist(table, cols, kindsOf(full), full); err != nil {
			return err
		}
	}
	// Commit point: the generation exists once this row lands.
	metaRow := []sqltypes.Value{
		sqltypes.NewString(latName),
		sqltypes.NewString(table),
		sqltypes.NewInt(gen),
		sqltypes.NewInt(int64(len(rows))),
	}
	metaCols := []string{"lat", "tbl", "gen", "nrows"}
	if err := c.s.persister.Persist(metaTable, metaCols, kindsOf(metaRow), metaRow); err != nil {
		return err
	}
	c.mu.Lock()
	if gen > c.lastGen[latName] {
		c.lastGen[latName] = gen
	}
	c.mu.Unlock()
	c.ckpts.Add(1)

	// GC superseded generations; failures are harmless (recovery ignores
	// uncommitted or stale rows) and the next checkpoint collects again.
	_, _ = c.s.eng.DeleteRowsDirect(table, func(r []sqltypes.Value) bool {
		return len(r) > want && r[want].Int() < gen
	})
	_, _ = c.s.eng.DeleteRowsDirect(metaTable, func(r []sqltypes.Value) bool {
		return len(r) >= 4 && r[0].Str() == latName && r[1].Str() == table && r[2].Int() < gen
	})
	return nil
}

// stop halts the background loop and takes one final checkpoint so a clean
// shutdown never loses observations.
func (c *checkpointer) stop() {
	c.mu.Lock()
	started := c.started
	c.started = false
	c.mu.Unlock()
	if started {
		close(c.stopCh)
		<-c.done
	}
	c.checkpointAll()
}

// ---------------------------------------------------------------------------
// SQLCM surface
// ---------------------------------------------------------------------------

// MarkForCheckpoint registers a LAT for crash-safe checkpointing into a
// disk table and restores the newest consistent checkpoint found there.
// With Failsafe.CheckpointInterval set, marked LATs are checkpointed
// periodically and once more on Detach; CheckpointNow forces one anytime.
func (s *SQLCM) MarkForCheckpoint(latName, table string) error {
	return s.ckpt.mark(latName, table)
}

// CheckpointNow synchronously checkpoints one marked LAT.
func (s *SQLCM) CheckpointNow(latName string) error {
	s.ckpt.mu.Lock()
	table, ok := s.ckpt.marks[latName]
	s.ckpt.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: LAT %q is not marked for checkpointing", latName)
	}
	return s.ckpt.checkpoint(latName, table)
}

// Checkpoints reports how many checkpoints committed.
func (s *SQLCM) Checkpoints() int64 { return s.ckpt.ckpts.Load() }
