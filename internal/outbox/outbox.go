// Package outbox decouples side-effecting monitoring actions (SendMail,
// RunExternal, Persist) from the query thread that fired them. SQLCM's
// defining constraint (§2.1) is that rules evaluate synchronously inside
// the engine, so a slow mail server or a hung external command would stall
// the very statement being monitored. The outbox gives each action kind a
// bounded queue drained by one worker goroutine, so the jobs of a kind run
// one at a time in FIFO order, with per-attempt deadlines, exponential
// backoff with jitter between retries, a dead-letter ring for jobs that
// exhaust their attempts, and a graceful bounded drain at shutdown.
// Enqueueing never blocks: when a queue is full the job is shed
// (low-priority work first — a fraction of each queue is reserved for
// high-priority jobs such as Persist) and an atomic counter records the
// decision.
package outbox

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Kind partitions jobs into independently queued and drained classes, so a
// hung external command cannot delay mail delivery or LAT persistence.
type Kind uint8

// Job kinds.
const (
	Mail Kind = iota
	External
	Persist
	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Mail:
		return "mail"
	case External:
		return "external"
	case Persist:
		return "persist"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Priority orders shedding: when a queue fills up, low-priority jobs are
// refused first (the tail of each queue is reserved for high-priority
// jobs).
type Priority uint8

// Priorities.
const (
	Low Priority = iota
	High
)

// Job is one deferred action.
type Job struct {
	Kind     Kind
	Priority Priority
	// Label identifies the job in dead letters and diagnostics
	// (e.g. "persist:outliers", "mail:dba@example.com").
	Label string
	// Do performs the action. It is retried on error, so it should be
	// idempotent or tolerate duplicates (at-least-once semantics).
	Do func() error
}

// Config tunes an Outbox. Zero values select the defaults.
type Config struct {
	// QueueSize bounds each kind's queue (default 256).
	QueueSize int
	// MaxAttempts bounds tries per job, including the first (default 4).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt up to MaxBackoff, with ±50% jitter (defaults 10ms, 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// AttemptTimeout bounds one attempt; an attempt still running at the
	// deadline counts as failed and the job is retried (default 2s). The
	// runaway attempt's goroutine is abandoned — its eventual result is
	// discarded — so a truly hung action costs at most MaxAttempts
	// goroutines, never a worker.
	AttemptTimeout time.Duration
	// DrainTimeout bounds Close: how long to wait for queued jobs to
	// finish before abandoning the rest (default 5s).
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// deadLetterCap bounds the dead-letter ring: DeadLetters keeps the newest
// deadLetterCap entries.
const deadLetterCap = 128

// DeadLetter records a job that exhausted its attempts.
type DeadLetter struct {
	Kind     Kind
	Label    string
	Err      string
	Attempts int
	At       time.Time
}

// KindStats are the per-kind counters.
type KindStats struct {
	Enqueued    int64 // accepted onto the queue
	Shed        int64 // refused: queue full (or reserved for high priority)
	Done        int64 // completed successfully
	Retries     int64 // failed attempts that were retried
	Timeouts    int64 // attempts that exceeded AttemptTimeout
	DeadLetters int64 // jobs that exhausted MaxAttempts
	Abandoned   int64 // jobs dropped by a drain-timeout shutdown
}

// Stats aggregates the outbox counters.
type Stats struct {
	ByKind  [int(numKinds)]KindStats
	Pending int // jobs queued or executing right now
}

// Total sums a projection over all kinds.
func (s Stats) Total(f func(KindStats) int64) int64 {
	var n int64
	for _, ks := range s.ByKind {
		n += f(ks)
	}
	return n
}

// ErrAttemptTimeout marks an attempt cut off by its deadline.
var ErrAttemptTimeout = errors.New("outbox: attempt timed out")

type kindState struct {
	queue chan Job

	enqueued    atomic.Int64
	shed        atomic.Int64
	done        atomic.Int64
	retries     atomic.Int64
	timeouts    atomic.Int64
	deadLetters atomic.Int64
	abandoned   atomic.Int64
}

// Outbox is the async action executor. Safe for concurrent use.
type Outbox struct {
	cfg   Config
	kinds [int(numKinds)]kindState

	// pending counts accepted-but-unfinished jobs (queued + executing).
	pending atomic.Int64

	// stopNow aborts in-flight backoff waits during a timed-out drain.
	stopNow chan struct{}
	closed  atomic.Bool
	wg      sync.WaitGroup

	// dlMu protects the dead-letter ring.
	//sqlcm:lock outbox.deadletter
	//sqlcm:guards dl, dlAt
	dlMu sync.Mutex
	dl   []DeadLetter
	dlAt int
}

// New starts an outbox with one worker per kind.
func New(cfg Config) *Outbox {
	cfg = cfg.withDefaults()
	o := &Outbox{cfg: cfg, stopNow: make(chan struct{})}
	for k := range o.kinds {
		o.kinds[k].queue = make(chan Job, cfg.QueueSize)
		o.wg.Add(1)
		go o.worker(&o.kinds[k])
	}
	return o
}

// TryEnqueue offers a job without ever blocking. It reports whether the
// job was accepted; a false return means the job was shed (queue full,
// low-priority job hitting the high-priority reserve, or outbox closed)
// and counted.
func (o *Outbox) TryEnqueue(job Job) bool {
	ks := &o.kinds[int(job.Kind)]
	if o.closed.Load() {
		ks.shed.Add(1)
		return false
	}
	// Reserve the last quarter of each queue for high-priority jobs, so a
	// burst of mail cannot crowd out a Persist.
	if job.Priority == Low && len(ks.queue) >= o.cfg.QueueSize-o.cfg.QueueSize/4 {
		ks.shed.Add(1)
		return false
	}
	select {
	case ks.queue <- job:
		ks.enqueued.Add(1)
		o.pending.Add(1)
		return true
	default:
		ks.shed.Add(1)
		return false
	}
}

// Close stops intake and drains: it waits up to DrainTimeout for queued
// jobs to complete, then aborts the rest. The error reports abandoned
// work; nil means the outbox drained fully.
func (o *Outbox) Close() error {
	if o.closed.Swap(true) {
		return nil
	}
	// Closing the queues lets workers finish what is buffered and exit.
	for k := range o.kinds {
		close(o.kinds[k].queue)
	}
	done := make(chan struct{})
	go func() { o.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(o.cfg.DrainTimeout):
		close(o.stopNow) // abort backoff waits and attempt waits
		<-done
		if n := o.Stats().Total(func(k KindStats) int64 { return k.Abandoned }); n > 0 {
			return fmt.Errorf("outbox: drain timed out, %d job(s) abandoned", n)
		}
		return nil
	}
}

// Drain blocks until every accepted job has finished (or the timeout
// elapses), without closing the outbox. It reports whether the outbox is
// idle. Tests and operators use it to observe a quiescent state.
func (o *Outbox) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for o.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Stats snapshots the counters.
func (o *Outbox) Stats() Stats {
	var s Stats
	for k := range o.kinds {
		ks := &o.kinds[k]
		s.ByKind[k] = KindStats{
			Enqueued:    ks.enqueued.Load(),
			Shed:        ks.shed.Load(),
			Done:        ks.done.Load(),
			Retries:     ks.retries.Load(),
			Timeouts:    ks.timeouts.Load(),
			DeadLetters: ks.deadLetters.Load(),
			Abandoned:   ks.abandoned.Load(),
		}
	}
	s.Pending = int(o.pending.Load())
	return s
}

// DeadLetters returns the retained dead letters, oldest first.
func (o *Outbox) DeadLetters() []DeadLetter {
	o.dlMu.Lock()
	defer o.dlMu.Unlock()
	out := make([]DeadLetter, 0, len(o.dl))
	out = append(out, o.dl[o.dlAt:]...)
	out = append(out, o.dl[:o.dlAt]...)
	return out
}

func (o *Outbox) addDeadLetter(d DeadLetter) {
	o.dlMu.Lock()
	if len(o.dl) < deadLetterCap {
		o.dl = append(o.dl, d)
	} else {
		o.dl[o.dlAt] = d
		o.dlAt = (o.dlAt + 1) % deadLetterCap
	}
	o.dlMu.Unlock()
}

func (o *Outbox) worker(ks *kindState) {
	defer o.wg.Done()
	for job := range ks.queue {
		o.runJob(ks, job)
		o.pending.Add(-1)
	}
}

// runJob executes one job through the retry loop.
func (o *Outbox) runJob(ks *kindState, job Job) {
	var lastErr error
	for attempt := 1; attempt <= o.cfg.MaxAttempts; attempt++ {
		select {
		case <-o.stopNow:
			ks.abandoned.Add(1)
			return
		default:
		}
		err := o.attempt(ks, job)
		if err == nil {
			ks.done.Add(1)
			return
		}
		lastErr = err
		if attempt == o.cfg.MaxAttempts {
			break
		}
		ks.retries.Add(1)
		select {
		case <-time.After(o.backoff(attempt)):
		case <-o.stopNow:
			ks.abandoned.Add(1)
			return
		}
	}
	ks.deadLetters.Add(1)
	o.addDeadLetter(DeadLetter{
		Kind:     job.Kind,
		Label:    job.Label,
		Err:      lastErr.Error(),
		Attempts: o.cfg.MaxAttempts,
		At:       time.Now(),
	})
}

// attempt runs Do once under the attempt deadline. The action runs in its
// own goroutine so a hung action cannot pin the worker past the deadline.
func (o *Outbox) attempt(ks *kindState, job Job) error {
	result := make(chan error, 1)
	// result is buffered, so the goroutine ends when the action returns even
	// after the deadline abandons it.
	go func() {
		defer func() {
			if p := recover(); p != nil {
				result <- fmt.Errorf("outbox: job %q panicked: %v", job.Label, p)
			}
		}()
		result <- job.Do()
	}()
	t := time.NewTimer(o.cfg.AttemptTimeout)
	defer t.Stop()
	select {
	case err := <-result:
		return err
	case <-t.C:
		ks.timeouts.Add(1)
		return fmt.Errorf("%w after %s (job %q)", ErrAttemptTimeout, o.cfg.AttemptTimeout, job.Label)
	case <-o.stopNow:
		return fmt.Errorf("outbox: shutdown aborted job %q", job.Label)
	}
}

// backoff computes the sleep before retry n (1-based): BaseBackoff doubling
// per attempt, capped at MaxBackoff, with ±50% jitter so synchronized
// failures do not retry in lockstep.
func (o *Outbox) backoff(attempt int) time.Duration {
	d := o.cfg.BaseBackoff << uint(attempt-1)
	if d > o.cfg.MaxBackoff || d <= 0 {
		d = o.cfg.MaxBackoff
	}
	return d/2 + rand.N(d+1)/2
}
