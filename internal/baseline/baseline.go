// Package baseline implements the alternative monitoring solutions SQLCM
// is compared against in §6.2.2 of the paper:
//
//   - Query_logging: every committed query is synchronously written to a
//     reporting table; results are obtained by SQL post-processing
//     (push, no in-server filtering).
//   - PULL: a client repeatedly polls the server's active-query snapshot
//     and keeps the top-k externally (pull, client-side filtering, lossy).
//   - PULL_history: the server keeps a history of all completed queries,
//     erased when the client picks it up; the history's bytes are server
//     memory the approach costs (pull, no filtering, lossless).
package baseline

import (
	"sort"
	"sync"
	"time"

	"sqlcm/internal/engine"
)

// TopEntry is one query in a computed top-k result.
type TopEntry struct {
	Text     string
	Duration time.Duration
}

// TopK selects the k entries with the largest durations from a
// text → max-duration map.
func TopK(durations map[string]time.Duration, k int) []TopEntry {
	out := make([]TopEntry, 0, len(durations))
	for text, d := range durations {
		out = append(out, TopEntry{Text: text, Duration: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Duration != out[j].Duration {
			return out[i].Duration > out[j].Duration
		}
		return out[i].Text < out[j].Text
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Missed counts how many of the true top-k are absent from got (the
// paper's accuracy metric for the polling approaches).
func Missed(truth, got []TopEntry) int {
	have := make(map[string]bool, len(got))
	for _, e := range got {
		have[e.Text] = true
	}
	miss := 0
	for _, e := range truth {
		if !have[e.Text] {
			miss++
		}
	}
	return miss
}

// ---------------------------------------------------------------------------
// PULL: poll the active-query snapshot
// ---------------------------------------------------------------------------

// Puller polls Engine.ActiveQueries at a fixed interval and tracks the
// maximum observed elapsed time per query text. Queries that start and
// finish between two polls are never observed — the paper's accuracy loss.
type Puller struct {
	eng      *engine.Engine
	interval time.Duration

	// mu protects the observation map.
	//sqlcm:lock baseline.puller
	//sqlcm:guards observed, polls
	mu       sync.Mutex
	observed map[string]time.Duration
	polls    int64

	stop chan struct{}
	done chan struct{}
}

// NewPuller creates a poller with the given interval.
func NewPuller(eng *engine.Engine, interval time.Duration) *Puller {
	return &Puller{
		eng:      eng,
		interval: interval,
		observed: make(map[string]time.Duration),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the polling loop.
func (p *Puller) Start() {
	go func() {
		defer close(p.done)
		ticker := time.NewTicker(p.interval)
		defer ticker.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-ticker.C:
				p.poll()
			}
		}
	}()
}

func (p *Puller) poll() {
	snaps := p.eng.ActiveQueries()
	p.mu.Lock()
	p.polls++
	for _, s := range snaps {
		if s.Elapsed > p.observed[s.Text] {
			p.observed[s.Text] = s.Elapsed
		}
	}
	p.mu.Unlock()
}

// Stop halts polling (taking one final sample first, as a real monitoring
// client would).
func (p *Puller) Stop() {
	p.poll()
	close(p.stop)
	<-p.done
}

// Polls returns the number of snapshots taken.
func (p *Puller) Polls() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.polls
}

// TopK returns the client-side top-k over everything observed.
func (p *Puller) TopK(k int) []TopEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return TopK(p.observed, k)
}

// ---------------------------------------------------------------------------
// PULL_history: server-retained history drained by the client
// ---------------------------------------------------------------------------

// historyEntry is one completed query in the server-side history.
type historyEntry struct {
	text     string
	duration time.Duration
}

// HistoryRecorder implements engine.Hooks: it appends every completed
// query to an in-server history buffer, counting the bytes it holds (the
// memory cost the paper observes growing with infrequent pick-ups), and
// lets a client drain it periodically.
type HistoryRecorder struct {
	engine.NopHooks

	// mu protects the history buffer.
	//sqlcm:lock baseline.history
	//sqlcm:guards history, charged, observed, maxBytes
	mu      sync.Mutex
	history []historyEntry
	charged int64 // bytes the undrained history holds

	observed map[string]time.Duration // drained results (client side)
	maxBytes int64                    // high-water mark of history memory
}

// entryBytes approximates the in-server footprint of one history entry.
const entryBytes = 64

// NewHistoryRecorder creates the recorder. Install it with eng.SetHooks.
func NewHistoryRecorder() *HistoryRecorder {
	return &HistoryRecorder{observed: make(map[string]time.Duration)}
}

// QueryCommit implements engine.Hooks.
func (h *HistoryRecorder) QueryCommit(q *engine.QueryInfo, dur time.Duration) {
	h.mu.Lock()
	h.history = append(h.history, historyEntry{text: q.Text, duration: dur})
	h.charged += int64(entryBytes + len(q.Text))
	if h.charged > h.maxBytes {
		h.maxBytes = h.charged
	}
	h.mu.Unlock()
}

// Drain moves the server-side history into the client-side observation
// map, freeing the history's bytes — the "picked up by the outside
// monitoring application" step.
func (h *HistoryRecorder) Drain() int {
	h.mu.Lock()
	batch := h.history
	h.history = nil
	h.charged = 0
	for _, e := range batch {
		if e.duration > h.observed[e.text] {
			h.observed[e.text] = e.duration
		}
	}
	h.mu.Unlock()
	return len(batch)
}

// Reset drains and discards all observations (used to delimit an accuracy
// measurement window).
func (h *HistoryRecorder) Reset() {
	h.Drain()
	h.mu.Lock()
	h.observed = make(map[string]time.Duration)
	h.mu.Unlock()
}

// MaxHistoryBytes reports the history buffer's high-water mark.
func (h *HistoryRecorder) MaxHistoryBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxBytes
}

// TopK returns the exact top-k (after a final Drain).
func (h *HistoryRecorder) TopK(k int) []TopEntry {
	h.Drain()
	h.mu.Lock()
	defer h.mu.Unlock()
	return TopK(h.observed, k)
}

// HistoryPoller drains a HistoryRecorder at a fixed interval.
type HistoryPoller struct {
	rec      *HistoryRecorder
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// NewHistoryPoller creates a poller over rec.
func NewHistoryPoller(rec *HistoryRecorder, interval time.Duration) *HistoryPoller {
	return &HistoryPoller{
		rec:      rec,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the drain loop.
func (p *HistoryPoller) Start() {
	go func() {
		defer close(p.done)
		ticker := time.NewTicker(p.interval)
		defer ticker.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-ticker.C:
				p.rec.Drain()
			}
		}
	}()
}

// Stop halts draining.
func (p *HistoryPoller) Stop() {
	close(p.stop)
	<-p.done
}
