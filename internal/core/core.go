// Package core wires SQLCM together: it attaches the event layer's hook
// adapters to the database engine's instrumentation points and drives the
// rule engine through the event bus — all synchronously inside the
// server's execution paths, exactly as the paper's architecture (Figure 1)
// prescribes. It also owns the LAT registry, the timer manager, and the
// engine-side implementations of the rule actions (Persist, SendMail,
// RunExternal, Cancel, Set).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sqlcm/internal/catalog"
	"sqlcm/internal/engine"
	"sqlcm/internal/event"
	"sqlcm/internal/lat"
	"sqlcm/internal/lockcheck"
	"sqlcm/internal/monitor"
	"sqlcm/internal/outbox"
	"sqlcm/internal/rulecheck"
	"sqlcm/internal/rules"
	"sqlcm/internal/sqltypes"
)

// Mailer delivers SendMail actions. The in-process default records mail in
// memory (see MemMailer); production embeddings plug in SMTP or pagers.
type Mailer interface {
	Send(addr, body string) error
}

// Runner launches RunExternal actions. The in-process default records the
// command lines (see MemRunner).
type Runner interface {
	Run(cmd string) error
}

// MemMailer is an in-memory Mailer that records sent mail.
type MemMailer struct {
	// mu protects the sent log.
	//sqlcm:lock core.mailer
	//sqlcm:guards sent
	mu   sync.Mutex
	sent []Mail
}

// Mail is one recorded message.
type Mail struct {
	Addr string
	Body string
	At   time.Time
}

// Send implements Mailer.
func (m *MemMailer) Send(addr, body string) error {
	m.mu.Lock()
	m.sent = append(m.sent, Mail{Addr: addr, Body: body, At: time.Now()})
	m.mu.Unlock()
	return nil
}

// Sent returns the recorded messages.
func (m *MemMailer) Sent() []Mail {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Mail(nil), m.sent...)
}

// MemRunner is an in-memory Runner that records command lines.
type MemRunner struct {
	// mu protects the command log.
	//sqlcm:lock core.runner
	//sqlcm:guards cmds
	mu   sync.Mutex
	cmds []string
}

// Run implements Runner.
func (r *MemRunner) Run(cmd string) error {
	r.mu.Lock()
	r.cmds = append(r.cmds, cmd)
	r.mu.Unlock()
	return nil
}

// Commands returns the recorded command lines.
func (r *MemRunner) Commands() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.cmds...)
}

// Persister writes one monitoring row (with a timestamp column appended)
// to a table. The default implementation writes to an engine table,
// creating it on first use; fault-injection harnesses wrap it.
type Persister interface {
	Persist(table string, cols []string, kinds []sqltypes.Kind, row []sqltypes.Value) error
}

// FailsafeOptions tunes the fail-safe layer: panic quarantine, the async
// action outbox, overload shedding, and LAT checkpointing.
type FailsafeOptions struct {
	// QuarantineThreshold is the number of consecutive panicking
	// evaluations after which a rule is quarantined (0 = default of
	// rules.DefaultQuarantineThreshold, negative = never quarantine).
	QuarantineThreshold int
	// Outbox tunes the async action executor (queue sizes, retry policy,
	// drain timeout). Zero values select the outbox defaults.
	Outbox outbox.Config
	// DispatchBudget arms event shedding: when the average rule-dispatch
	// latency exceeds the budget, the bus samples events (1 in
	// ShedSampleN) instead of evaluating all of them. Zero disables.
	DispatchBudget time.Duration
	// ShedSampleN is the degraded-mode sampling rate (default 16).
	ShedSampleN int
	// CheckpointInterval is the period of automatic LAT checkpoints for
	// tables registered with MarkForCheckpoint. Zero disables the
	// background checkpointer (CheckpointNow still works).
	CheckpointInterval time.Duration
}

// Options configures an SQLCM instance.
type Options struct {
	// Mailer handles SendMail actions (default: MemMailer).
	Mailer Mailer
	// Runner handles RunExternal actions (default: MemRunner).
	Runner Runner
	// Persister handles Persist actions and LAT checkpoints (default:
	// engine disk tables).
	Persister Persister
	// Failsafe tunes the fail-safe layer.
	Failsafe FailsafeOptions
	// RuleCheck selects how static rule analysis treats findings at
	// registration time: Warn (default) records them, Strict rejects
	// rules with error-severity findings, Off skips analysis.
	RuleCheck rulecheck.Mode
}

// SQLCM is the continuous-monitoring framework attached to one engine.
type SQLCM struct {
	eng       *engine.Engine
	ruleEng   *rules.Engine
	bus       *event.Bus
	hooks     *event.Hooks
	timers    *rules.TimerManager
	sigs      *monitor.SigCache
	txns      *monitor.TxnTracker
	mailer    Mailer
	runner    Runner
	persister Persister
	box       *outbox.Outbox
	ckpt      *checkpointer

	// latMu protects the LAT registry.
	//sqlcm:lock core.lats
	//sqlcm:guards lats
	latMu lockcheck.RWMutex
	lats  map[string]*lat.Table

	check ruleChecker

	attached atomic.Bool
}

// Attach creates an SQLCM instance and installs it into the engine's hook
// points. Monitoring overhead is incurred only for events some rule
// listens on.
func Attach(eng *engine.Engine, opts Options) *SQLCM {
	s := &SQLCM{
		eng:    eng,
		sigs:   monitor.NewSigCache(),
		txns:   monitor.NewTxnTracker(),
		lats:   make(map[string]*lat.Table),
		mailer: opts.Mailer,
		runner: opts.Runner,
	}
	s.latMu.SetClass("core.lats")
	s.check.mu.SetClass("core.rulecheck")
	if s.mailer == nil {
		s.mailer = &MemMailer{}
	}
	if s.runner == nil {
		s.runner = &MemRunner{}
	}
	s.persister = opts.Persister
	if s.persister == nil {
		s.persister = &enginePersister{eng: eng}
	}
	s.check.mode = opts.RuleCheck
	s.box = outbox.New(opts.Failsafe.Outbox)
	s.ruleEng = rules.NewEngine((*env)(s))
	s.ruleEng.SetQuarantineThreshold(opts.Failsafe.QuarantineThreshold)
	// All event intake — engine hooks, timer alarms, LAT evictions — goes
	// through one bus in front of the rule engine.
	s.bus = event.NewBus(s.ruleEng)
	if opts.Failsafe.DispatchBudget > 0 {
		s.bus.SetBudget(opts.Failsafe.DispatchBudget, opts.Failsafe.ShedSampleN)
	}
	// Quarantine decisions surface as Monitor.RuleQuarantined events, so
	// rules can alert on the health of the monitoring layer itself.
	s.ruleEng.SetOnQuarantine(func(info rules.QuarantineInfo) {
		obj := &monitor.MonitorObject{Rule: info.Rule, Failures: info.Failures, Error: info.Err, At: info.At}
		s.bus.Dispatch(monitor.EvRuleQuarantined, map[string]monitor.Object{monitor.ClassMonitor: obj})
	})
	s.hooks = event.NewHooks(s.bus, s.sigs, s.txns)
	s.timers = rules.NewTimerManager(s.bus)
	s.ckpt = newCheckpointer(s, opts.Failsafe.CheckpointInterval)
	eng.SetHooks(s.hooks)
	s.attached.Store(true)
	return s
}

// Detach removes SQLCM from the engine (no monitoring overhead remains),
// stops all timers, takes a final checkpoint of marked LATs, and drains
// the action outbox (bounded by its drain timeout). The error reports
// work abandoned by a timed-out drain.
func (s *SQLCM) Detach() error {
	if !s.attached.Swap(false) {
		return nil
	}
	s.eng.SetHooks(nil)
	s.timers.Close()
	s.ckpt.stop()
	return s.box.Close()
}

// Flush blocks until every queued action has executed (or the timeout
// elapses), reporting whether the outbox is idle. Callers that need
// read-your-writes over persisted monitoring output use it to quiesce.
func (s *SQLCM) Flush(timeout time.Duration) bool {
	return s.box.Drain(timeout)
}

// Outbox exposes the async action executor (stats, dead letters).
func (s *SQLCM) Outbox() *outbox.Outbox { return s.box }

// Bus exposes the event bus (dispatch counters, shedding state).
func (s *SQLCM) Bus() *event.Bus { return s.bus }

// Suspend temporarily removes the hook set without tearing down rules,
// LATs or timers; Resume reinstalls it. Used to interleave monitored and
// unmonitored measurement windows.
func (s *SQLCM) Suspend() { s.eng.SetHooks(nil) }

// Resume reinstalls the hook set after Suspend.
func (s *SQLCM) Resume() { s.eng.SetHooks(s.hooks) }

// Engine returns the monitored engine.
func (s *SQLCM) Engine() *engine.Engine { return s.eng }

// Rules exposes the rule engine.
func (s *SQLCM) Rules() *rules.Engine { return s.ruleEng }

// Timers exposes the timer manager.
func (s *SQLCM) Timers() *rules.TimerManager { return s.timers }

// Mailer returns the configured mailer.
func (s *SQLCM) Mailer() Mailer { return s.mailer }

// Runner returns the configured runner.
func (s *SQLCM) Runner() Runner { return s.runner }

// SigComputes reports how many signature computations (cache misses) have
// occurred.
func (s *SQLCM) SigComputes() int64 { return s.sigs.Computes() }

// Events reports how many monitored events were dispatched to rules.
func (s *SQLCM) Events() int64 { return s.bus.Total() }

// ---------------------------------------------------------------------------
// LAT management
// ---------------------------------------------------------------------------

// DefineLAT registers a new aggregation table. Evicted rows are exposed as
// LATRow.Evicted events (§4.3).
func (s *SQLCM) DefineLAT(spec lat.Spec) (*lat.Table, error) {
	table, err := lat.New(spec)
	if err != nil {
		return nil, err
	}
	s.latMu.Lock()
	if _, ok := s.lats[spec.Name]; ok {
		s.latMu.Unlock()
		return nil, fmt.Errorf("core: LAT %q already defined", spec.Name)
	}
	s.lats[spec.Name] = table
	s.latMu.Unlock()
	// Evicted-row snapshots cost time on every eviction, so the hook is
	// only installed while some rule listens on LATRow.Evicted.
	if s.ruleEng.HasRulesFor(monitor.EvLATRowEvicted) {
		s.installEvictHook(table)
	}
	return table, nil
}

// installEvictHook exposes a LAT's evicted rows as LATRow.Evicted events.
func (s *SQLCM) installEvictHook(table *lat.Table) {
	table.SetOnEvict(func(row lat.EvictedRow) {
		if !s.bus.Interested(monitor.EvLATRowEvicted) {
			return
		}
		obj := &monitor.LATRowObject{LAT: row.Table, Columns: row.Columns, Values: row.Values}
		s.bus.Dispatch(monitor.EvLATRowEvicted, map[string]monitor.Object{
			monitor.ClassLATRow: obj,
		})
	})
}

// ensureEvictHooks installs eviction hooks on every LAT (called when a
// LATRow.Evicted rule appears).
func (s *SQLCM) ensureEvictHooks() {
	s.latMu.RLock()
	tables := make([]*lat.Table, 0, len(s.lats))
	for _, t := range s.lats {
		tables = append(tables, t)
	}
	s.latMu.RUnlock()
	for _, t := range tables {
		s.installEvictHook(t)
	}
}

// DropLAT removes a LAT.
func (s *SQLCM) DropLAT(name string) bool {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	if _, ok := s.lats[name]; !ok {
		return false
	}
	delete(s.lats, name)
	return true
}

// LAT returns a registered LAT.
func (s *SQLCM) LAT(name string) (*lat.Table, bool) {
	s.latMu.RLock()
	defer s.latMu.RUnlock()
	t, ok := s.lats[name]
	return t, ok
}

// LATs returns the registered LAT names.
func (s *SQLCM) LATs() []string {
	s.latMu.RLock()
	defer s.latMu.RUnlock()
	out := make([]string, 0, len(s.lats))
	for n := range s.lats {
		out = append(out, n)
	}
	return out
}

// PersistLAT writes the LAT's current rows (plus a timestamp column) to a
// disk-resident table, creating it on first use (§4.3). Unlike the
// rule-triggered Persist action, this direct API is synchronous: when it
// returns, the rows are in the table.
func (s *SQLCM) PersistLAT(name, table string) error {
	t, ok := s.LAT(name)
	if !ok {
		return fmt.Errorf("core: unknown LAT %q", name)
	}
	cols := t.Spec().Columns()
	for _, row := range t.Rows() {
		if err := s.persister.Persist(table, cols, kindsOf(row), row); err != nil {
			return err
		}
	}
	return nil
}

// LoadLAT restores the LAT from a previously persisted table, carrying
// monitoring state across server restarts (§4.3), through the same
// lat.Table.Restore the checkpointer uses. Rows replay in insertion order,
// so of several persisted snapshots of one group the newest wins. The
// trailing timestamp column added by Persist is dropped.
func (s *SQLCM) LoadLAT(name, table string) error {
	t, ok := s.LAT(name)
	if !ok {
		return fmt.Errorf("core: unknown LAT %q", name)
	}
	rows, err := s.eng.ReadTableDirect(table)
	if err != nil {
		return err
	}
	want := len(t.Spec().Columns())
	trimmed := make([][]sqltypes.Value, 0, len(rows))
	for _, r := range rows {
		if len(r) == want+1 {
			r = r[:want] // drop the timestamp column
		}
		trimmed = append(trimmed, r)
	}
	return t.Restore(trimmed)
}

// ---------------------------------------------------------------------------
// Rule helpers
// ---------------------------------------------------------------------------

// AddRule registers a fully constructed rule, running static analysis
// first (see Options.RuleCheck): Strict mode rejects rules with
// error-severity findings, Warn mode records them (RuleWarnings).
func (s *SQLCM) AddRule(r *rules.Rule) error {
	return s.addRule(r, "")
}

// addRule vets, installs and records one rule; condSrc carries the
// original condition text when the rule came from NewRule.
func (s *SQLCM) addRule(r *rules.Rule, condSrc string) error {
	diags, err := s.vetRule(r, condSrc)
	if err != nil {
		return err
	}
	if err := s.installRule(r); err != nil {
		return err
	}
	s.recordRule(r.Name, condSrc, diags)
	return nil
}

// NewRule builds and registers a rule from its textual event and condition
// (the declarative form of §2.3): event "Class.Name", condition per §5.2
// (empty = always true), followed by the action list.
func (s *SQLCM) NewRule(name, event, condition string, actions ...rules.Action) (*rules.Rule, error) {
	ev, err := monitor.ParseEvent(event)
	if err != nil {
		return nil, err
	}
	cond, err := rules.ParseCondition(condition)
	if err != nil {
		return nil, err
	}
	r := &rules.Rule{Name: name, Event: ev, Condition: cond, Actions: actions}
	if err := s.addRule(r, condition); err != nil {
		return nil, err
	}
	return r, nil
}

// RemoveRule unregisters a rule.
func (s *SQLCM) RemoveRule(name string) bool {
	if !s.ruleEng.RemoveRule(name) {
		return false
	}
	s.forgetRule(name)
	return true
}

// ---------------------------------------------------------------------------
// rules.Env implementation
// ---------------------------------------------------------------------------

// NewEnginePersister returns the default engine-backed Persister, exposed
// so fault-injection harnesses can wrap it.
func NewEnginePersister(eng *engine.Engine) Persister { return &enginePersister{eng: eng} }

// enginePersister is the default Persister: rows go to a disk-resident
// table with an extra timestamp column, the table being created on first
// use.
type enginePersister struct {
	eng *engine.Engine
}

// Persist implements Persister.
func (p *enginePersister) Persist(table string, cols []string, kinds []sqltypes.Kind, row []sqltypes.Value) error {
	if _, err := p.eng.Catalog().Table(table); err != nil {
		defs := make([]catalog.Column, 0, len(cols)+1)
		for i, c := range cols {
			k := kinds[i]
			if k == sqltypes.KindNull {
				k = sqltypes.KindString
			}
			defs = append(defs, catalog.Column{Name: c, Type: k})
		}
		defs = append(defs, catalog.Column{Name: "sqlcm_ts", Type: sqltypes.KindTime})
		if err := p.eng.CreateTable(table, defs); err != nil {
			// Lost a creation race: proceed if the table now exists.
			if _, err2 := p.eng.Catalog().Table(table); err2 != nil {
				return err
			}
		}
	}
	full := make([]sqltypes.Value, 0, len(row)+1)
	full = append(full, row...)
	full = append(full, sqltypes.NewTime(time.Now()))
	return p.eng.InsertRowDirect(table, full)
}

// env adapts SQLCM to the rule engine's environment interface. The
// side-effecting actions (Persist, SendMail, RunExternal) never run in the
// query thread that fired the rule: they enqueue onto the outbox, which
// retries with backoff and sheds under overload rather than blocking.
type env SQLCM

func (e *env) LAT(name string) (*lat.Table, bool) { return (*SQLCM)(e).LAT(name) }

// Persist implements rules.Env by deferring the row to the outbox
// (high-priority: monitoring data beats notifications when shedding).
func (e *env) Persist(table string, cols []string, kinds []sqltypes.Kind, row []sqltypes.Value) error {
	s := (*SQLCM)(e)
	s.box.TryEnqueue(outbox.Job{
		Kind:     outbox.Persist,
		Priority: outbox.High,
		Label:    "persist:" + table,
		Do:       func() error { return s.persister.Persist(table, cols, kinds, row) },
	})
	return nil
}

func (e *env) SendMail(addr, body string) error {
	s := (*SQLCM)(e)
	s.box.TryEnqueue(outbox.Job{
		Kind:  outbox.Mail,
		Label: "mail:" + addr,
		Do:    func() error { return s.mailer.Send(addr, body) },
	})
	return nil
}

func (e *env) RunExternal(cmd string) error {
	s := (*SQLCM)(e)
	s.box.TryEnqueue(outbox.Job{
		Kind:  outbox.External,
		Label: "external:" + firstWord(cmd),
		Do:    func() error { return s.runner.Run(cmd) },
	})
	return nil
}

// firstWord labels an external command by its program name.
func firstWord(cmd string) string {
	for i := 0; i < len(cmd); i++ {
		if cmd[i] == ' ' {
			return cmd[:i]
		}
	}
	return cmd
}

func (e *env) CancelQuery(id int64) bool { return (*SQLCM)(e).eng.CancelQuery(id) }

func (e *env) SetTimer(name string, period time.Duration, count int) error {
	return (*SQLCM)(e).timers.Set(name, period, count)
}

func (e *env) ActiveQueryObjects() []monitor.Object {
	s := (*SQLCM)(e)
	infos := s.eng.ActiveQueryInfos()
	out := make([]monitor.Object, 0, len(infos))
	for _, qi := range infos {
		out = append(out, monitor.NewQueryObject(qi, s.sigs.For(qi)))
	}
	return out
}

// BlockPairObjects traverses the lock-wait graph (piggybacking on the lock
// manager's snapshot, §6.1) and materializes Blocker/Blocked object pairs.
func (e *env) BlockPairObjects() [][2]monitor.Object {
	s := (*SQLCM)(e)
	pairs := s.eng.Locks().BlockSnapshot()
	out := make([][2]monitor.Object, 0, len(pairs))
	now := time.Now()
	for _, p := range pairs {
		holder, ok1 := s.eng.QueryInfoForTxn(p.Blocker)
		waiter, ok2 := s.eng.QueryInfoForTxn(p.Blocked)
		if !ok1 || !ok2 {
			continue
		}
		out = append(out, [2]monitor.Object{
			monitor.NewBlockerObject(holder, s.sigs.For(holder)),
			monitor.NewBlockedObject(waiter, s.sigs.For(waiter), now.Sub(p.Since)),
		})
	}
	return out
}

func kindsOf(row []sqltypes.Value) []sqltypes.Kind {
	out := make([]sqltypes.Kind, len(row))
	for i, v := range row {
		out[i] = v.Kind()
	}
	return out
}
