package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"sqlcm/internal/faults"
	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/rules"
	"sqlcm/internal/sqltypes"
)

// simStart is the fixed simulation epoch. Constructed from a Unix time, so
// it carries no monotonic reading and all arithmetic on it is pure wall
// time — identical on every run and platform.
func simStart() time.Time { return time.Unix(1_700_000_000, 0).UTC() }

// stdevRelEps is the relative tolerance for STDEV comparison — the one
// column computed by deliberately different algorithms on the two sides.
// Every other column must match bit for bit.
const stdevRelEps = 1e-6

// Config configures one simulation run.
type Config struct {
	Seed   int64
	Events int
	// CheckEvery is the differential-check cadence in events (default 1:
	// check after every step).
	CheckEvery int
	Profile    Profile
	// FaultSumDrop arms faults.SetAggSumDrop(n) for the run: every nth SUM
	// contribution on the real side silently vanishes. 0 = healthy run.
	FaultSumDrop int
}

// Divergence describes the first detected disagreement between the real
// stack and the oracle.
type Divergence struct {
	Step   int // index of the event after which the check failed
	Ev     Ev
	Kind   string // "journal" or "lat"
	Detail string
}

// String renders the divergence report.
func (d *Divergence) String() string {
	return fmt.Sprintf("step %d (%s): %s divergence: %s", d.Step, d.Ev.String(), d.Kind, d.Detail)
}

// Journal is an ordered log of observable effects (rule evaluations,
// alarms, persists, mails, evictions). The two sides write structurally
// identical journals or the run diverges.
type Journal struct {
	entries []string
}

// Add appends one entry.
func (j *Journal) Add(s string) { j.entries = append(j.entries, s) }

// simEnv implements rules.Env for the real engine inside the harness:
// every externally visible action becomes a journal entry.
type simEnv struct {
	lats map[string]*lat.Table
	j    *Journal
	tm   *rules.TimerManager
}

func (e *simEnv) LAT(name string) (*lat.Table, bool) {
	t, ok := e.lats[name]
	return t, ok
}

// LATVersion is constant: the harness defines its LATs before any rule.
func (e *simEnv) LATVersion() uint64 { return 0 }

func (e *simEnv) Persist(table string, cols []string, kinds []sqltypes.Kind, row []sqltypes.Value) error {
	e.j.Add("persist:" + table + ":" + joinVals(row))
	return nil
}

func (e *simEnv) SendMail(addr, body string) error {
	e.j.Add("mail:" + addr + ":" + body)
	return nil
}

func (e *simEnv) RunExternal(cmd string) error {
	e.j.Add("exec:" + cmd)
	return nil
}

func (e *simEnv) CancelQuery(id int64) bool {
	e.j.Add(fmt.Sprintf("cancel:%d", id))
	return true
}

func (e *simEnv) SetTimer(name string, period time.Duration, count int) error {
	return e.tm.Set(name, period, count)
}

func (e *simEnv) ActiveQueryObjects() []monitor.Object  { return nil }
func (e *simEnv) BlockPairObjects() [][2]monitor.Object { return nil }

// alarmLogger journals every Timer.Alarm before forwarding it to the real
// engine, pinning alarm order into the differential comparison.
type alarmLogger struct {
	j   *Journal
	eng *rules.Engine
}

// Dispatch implements rules.Dispatcher.
func (d *alarmLogger) Dispatch(ev monitor.Event, objs map[string]monitor.Object) {
	if t, ok := objs[monitor.ClassTimer].(*monitor.TimerObject); ok {
		d.j.Add(fmt.Sprintf("alarm:%s:%d", t.Name, t.Seq))
	}
	d.eng.Dispatch(ev, objs)
}

// Sim drives the real monitoring stack and the oracle in lockstep.
type Sim struct {
	cfg Config

	clk      *Clock
	eng      *rules.Engine
	tm       *rules.TimerManager
	env      *simEnv
	lats     map[string]*lat.Table
	latNames []string
	realJ    *Journal

	oracle *Oracle
	oJ     *Journal

	qid      int64
	step     int
	checked  int // journal entries already compared
	lastEv   Ev
	trace    Trace
	diverged *Divergence
}

// NewSim builds both sides of the standard scenario.
func NewSim(cfg Config) (*Sim, error) {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 1
	}
	faults.SetAggSumDrop(cfg.FaultSumDrop)

	s := &Sim{
		cfg:   cfg,
		clk:   NewClock(simStart()),
		lats:  make(map[string]*lat.Table),
		realJ: &Journal{},
		oJ:    &Journal{},
	}
	s.oracle = NewOracle(simStart(), s.oJ)

	for _, spec := range fixtureSpecs() {
		t, err := lat.New(spec)
		if err != nil {
			return nil, err
		}
		t.SetClock(s.clk.Now)
		s.lats[spec.Name] = t
		s.latNames = append(s.latNames, spec.Name)
		s.oracle.AddLAT(NewOracleLAT(spec))
	}

	s.env = &simEnv{lats: s.lats, j: s.realJ}
	s.eng = rules.NewEngine(s.env)
	s.eng.SetEvalObserver(func(rule string, fired bool) {
		s.realJ.Add(fmt.Sprintf("eval:%s:%t", rule, fired))
	})
	s.tm = rules.NewTimerManagerWithClock(&alarmLogger{j: s.realJ, eng: s.eng}, s.clk)
	s.env.tm = s.tm

	for _, name := range s.latNames {
		t := s.lats[name]
		t.SetOnEvict(func(row lat.EvictedRow) {
			s.realJ.Add("evict:" + row.Table + ":" + joinVals(row.Values))
			s.eng.Dispatch(monitor.EvLATRowEvicted, map[string]monitor.Object{
				monitor.ClassLATRow: &monitor.LATRowObject{
					LAT: row.Table, Columns: row.Columns, Values: row.Values,
				},
			})
		})
	}

	for _, d := range fixtureRules() {
		r, err := parseRule(d)
		if err != nil {
			return nil, err
		}
		if err := s.eng.AddRule(r); err != nil {
			return nil, err
		}
		s.oracle.AddRule(&oRule{name: d.name, event: d.event, cond: d.oCond, actions: d.oActions})
	}
	return s, nil
}

// Close tears the harness down and disarms the fault flag.
func (s *Sim) Close() {
	s.tm.Close()
	faults.SetAggSumDrop(0)
}

// Step applies one event to both sides and runs the differential check on
// the configured cadence. Returns the first divergence, if any.
func (s *Sim) Step(e Ev) *Divergence {
	if s.diverged != nil {
		return s.diverged
	}
	s.apply(e)
	s.trace = append(s.trace, e)
	s.lastEv = e
	s.step++
	if s.step%s.cfg.CheckEvery == 0 {
		s.diverged = s.check()
	}
	return s.diverged
}

// ApplyAll replays a trace, stopping at the first divergence. A final check
// runs even when the trace length is off-cadence.
func (s *Sim) ApplyAll(trace Trace) *Divergence {
	for _, e := range trace {
		if d := s.Step(e); d != nil {
			return d
		}
	}
	if s.diverged == nil && s.step%s.cfg.CheckEvery != 0 {
		s.diverged = s.check()
	}
	return s.diverged
}

// apply delivers one event to the real stack and the oracle.
func (s *Sim) apply(e Ev) {
	switch e.Kind {
	case EvQuery:
		s.qid++
		dur := sqltypes.Null
		if !e.DurNull {
			dur = sqltypes.NewFloat(e.Dur)
		}
		obj := &simObj{class: monitor.ClassQuery, attrs: map[string]sqltypes.Value{
			"ID":                sqltypes.NewInt(s.qid),
			"User":              sqltypes.NewString(e.User),
			"Logical_Signature": sqltypes.NewString(e.Sig),
			"Duration":          dur,
		}}
		objs := map[string]monitor.Object{monitor.ClassQuery: obj}
		s.eng.Dispatch(monitor.EvQueryCommit, objs)
		s.oracle.Dispatch(monitor.EvQueryCommit, objs)

	case EvBlock:
		s.qid += 2
		blocked := &simObj{class: monitor.ClassBlocked, attrs: map[string]sqltypes.Value{
			"ID":                sqltypes.NewInt(s.qid - 1),
			"User":              sqltypes.NewString(e.User),
			"Logical_Signature": sqltypes.NewString(e.Sig),
			"Wait_Time":         sqltypes.NewFloat(e.Wait),
		}}
		blocker := &simObj{class: monitor.ClassBlocker, attrs: map[string]sqltypes.Value{
			"ID":                sqltypes.NewInt(s.qid),
			"User":              sqltypes.NewString(e.BUser),
			"Logical_Signature": sqltypes.NewString(e.BSig),
		}}
		query := &simObj{class: monitor.ClassQuery, attrs: blocked.attrs}
		objs := map[string]monitor.Object{
			monitor.ClassQuery:   query,
			monitor.ClassBlocked: blocked,
			monitor.ClassBlocker: blocker,
		}
		s.eng.Dispatch(monitor.EvQueryBlocked, objs)
		s.oracle.Dispatch(monitor.EvQueryBlocked, objs)

	case EvTxn:
		obj := &simObj{class: monitor.ClassTransaction, attrs: map[string]sqltypes.Value{
			"User":                sqltypes.NewString(e.User),
			"Duration":            sqltypes.NewFloat(e.Dur),
			"Number_of_instances": sqltypes.NewInt(e.NQ),
			"Bytes":               sqltypes.NewFloat(e.Bytes),
		}}
		objs := map[string]monitor.Object{monitor.ClassTransaction: obj}
		s.eng.Dispatch(monitor.EvTxnCommit, objs)
		s.oracle.Dispatch(monitor.EvTxnCommit, objs)

	case EvTimerSet:
		s.tm.Set(e.Timer, e.Period, e.Count) //nolint:errcheck
		s.oracle.setTimer(e.Timer, e.Period, e.Count)

	case EvAdvance:
		target := s.clk.Now().Add(e.Delta)
		s.clk.AdvanceTo(target)
		s.oracle.AdvanceTo(target)

	case EvReset:
		if t, ok := s.lats[e.LAT]; ok {
			t.Reset()
		}
		if t, ok := s.oracle.LAT(e.LAT); ok {
			t.Reset()
		}
	}
}

// check compares the two sides: the journals since the last check, then
// every LAT's full contents at the current virtual time.
func (s *Sim) check() *Divergence {
	fail := func(kind, detail string) *Divergence {
		return &Divergence{Step: s.step - 1, Ev: s.lastEv, Kind: kind, Detail: detail}
	}
	r, o := s.realJ.entries, s.oJ.entries
	n := len(r)
	if len(o) < n {
		n = len(o)
	}
	for i := s.checked; i < n; i++ {
		if r[i] != o[i] {
			return fail("journal", fmt.Sprintf("entry %d: real %q vs oracle %q", i, r[i], o[i]))
		}
	}
	if len(r) != len(o) {
		longer, side := r, "real"
		if len(o) > len(r) {
			longer, side = o, "oracle"
		}
		return fail("journal", fmt.Sprintf("%s has %d extra entries, first %q",
			side, len(longer)-n, longer[n]))
	}
	s.checked = n

	now := s.clk.Now()
	for _, name := range s.latNames {
		t := s.lats[name]
		spec := t.Spec()
		ng := len(spec.GroupBy)
		real := make(map[string][]sqltypes.Value)
		for _, row := range t.Rows() {
			real[string(sqltypes.EncodeKey(row[:ng]...))] = row
		}
		oracle := s.oracle.lats[name].RowsMap(now)
		if len(real) != len(oracle) {
			return fail("lat", fmt.Sprintf("%s: %d real rows vs %d oracle rows", name, len(real), len(oracle)))
		}
		for key, row := range real {
			orow, ok := oracle[key]
			if !ok {
				return fail("lat", fmt.Sprintf("%s: real row %s missing from oracle", name, joinVals(row)))
			}
			if d := diffRow(spec, row, orow); d != "" {
				return fail("lat", fmt.Sprintf("%s: %s (real %s vs oracle %s)",
					name, d, joinVals(row), joinVals(orow)))
			}
		}
	}
	return nil
}

// diffRow compares one row pair: bit-exact everywhere, relative epsilon on
// STDEV columns. Returns "" on match or a description of the first diff.
func diffRow(spec lat.Spec, row, orow []sqltypes.Value) string {
	cols := spec.Columns()
	for i := range row {
		ai := i - len(spec.GroupBy)
		if ai >= 0 && spec.Aggs[ai].Func == lat.Stdev {
			a, b := row[i], orow[i]
			if a.IsNull() != b.IsNull() {
				return fmt.Sprintf("column %s: null mismatch", cols[i])
			}
			if a.IsNull() {
				continue
			}
			af, bf := a.Float(), b.Float()
			if diff := math.Abs(af - bf); diff > 1e-9 && diff > stdevRelEps*math.Max(math.Abs(af), math.Abs(bf)) {
				return fmt.Sprintf("column %s: %v vs %v beyond stdev tolerance", cols[i], af, bf)
			}
			continue
		}
		if sqltypes.Compare(row[i], orow[i]) != 0 {
			return fmt.Sprintf("column %s: %s vs %s", cols[i], row[i].String(), orow[i].String())
		}
	}
	return ""
}

// Fingerprint hashes the run's observable state: the applied trace, the
// journal, every LAT's final rows (sorted by group key), and the divergence
// report. Identical seeds must produce identical fingerprints.
func (s *Sim) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write(s.trace.Encode()) //nolint:errcheck
	for _, e := range s.realJ.entries {
		h.Write([]byte(e))    //nolint:errcheck
		h.Write([]byte{'\n'}) //nolint:errcheck
	}
	for _, name := range s.latNames {
		t := s.lats[name]
		ng := len(t.Spec().GroupBy)
		lines := make([]string, 0, t.Len())
		for _, row := range t.Rows() {
			lines = append(lines, name+"|"+string(sqltypes.EncodeKey(row[:ng]...))+"|"+joinVals(row))
		}
		sort.Strings(lines)
		for _, l := range lines {
			h.Write([]byte(l))    //nolint:errcheck
			h.Write([]byte{'\n'}) //nolint:errcheck
		}
	}
	if s.diverged != nil {
		h.Write([]byte(s.diverged.String())) //nolint:errcheck
	}
	return h.Sum64()
}

// Result summarizes one run.
type Result struct {
	Trace       Trace
	Divergence  *Divergence
	Fingerprint uint64
	Steps       int
}

// Run generates a seeded trace and replays it through the harness.
func Run(cfg Config) (Result, error) {
	trace := Generate(GenConfig{Seed: cfg.Seed, Events: cfg.Events, Profile: cfg.Profile})
	return Replay(cfg, trace)
}

// Replay runs an explicit trace through the harness.
func Replay(cfg Config, trace Trace) (Result, error) {
	s, err := NewSim(cfg)
	if err != nil {
		return Result{}, err
	}
	defer s.Close()
	d := s.ApplyAll(trace)
	return Result{Trace: s.trace, Divergence: d, Fingerprint: s.Fingerprint(), Steps: s.step}, nil
}
