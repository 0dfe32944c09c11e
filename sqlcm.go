// Package sqlcm is a continuous-monitoring framework for an embedded
// relational database engine, reproducing "SQLCM: A Continuous Monitoring
// Framework for Relational Database Engines" (Chaudhuri, König, Narasayya;
// ICDE 2004).
//
// A DB bundles the embedded SQL engine with the monitoring framework
// attached inside it. Monitoring tasks are declared as Event-Condition-
// Action rules over monitored classes (Query, Transaction, Blocker,
// Blocked, Timer), with in-server grouping and aggregation provided by
// light-weight aggregation tables (LATs):
//
//	db, _ := sqlcm.Open(sqlcm.Config{})
//	defer db.Close()
//
//	db.DefineLAT(sqlcm.LATSpec{
//		Name:    "Duration_LAT",
//		GroupBy: []string{"Logical_Signature"},
//		Aggs:    []sqlcm.AggCol{{Func: sqlcm.Avg, Attr: "Duration", Name: "Avg_Duration"}},
//	})
//	db.NewRule("outliers", "Query.Commit",
//		"Query.Duration > 5 * Duration_LAT.Avg_Duration",
//		&sqlcm.PersistAction{Table: "outliers", Attrs: []string{"ID", "Query_Text", "Duration"}})
//	db.NewRule("maintain", "Query.Commit", "",
//		&sqlcm.InsertAction{LAT: "Duration_LAT"})
//
//	sess := db.Session("dba", "myapp")
//	sess.Exec("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)", nil)
package sqlcm

import (
	"time"

	"sqlcm/internal/core"
	"sqlcm/internal/engine"
	"sqlcm/internal/lat"
	"sqlcm/internal/rulecheck"
	"sqlcm/internal/rules"
	"sqlcm/internal/sqltypes"
)

// Re-exported engine types.
type (
	// Session is a client connection; open one per goroutine.
	Session = engine.Session
	// Result is the outcome of one statement.
	Result = engine.Result
	// QuerySnapshot is a point-in-time view of an executing statement.
	QuerySnapshot = engine.QuerySnapshot
)

// Re-exported value types.
type (
	// Value is a SQL datum.
	Value = sqltypes.Value
	// Kind is a SQL type tag.
	Kind = sqltypes.Kind
)

// Value constructors.
var (
	// Null is the NULL value.
	Null = sqltypes.Null
	// NewInt builds an INT value.
	NewInt = sqltypes.NewInt
	// NewFloat builds a FLOAT value.
	NewFloat = sqltypes.NewFloat
	// NewString builds a STRING value.
	NewString = sqltypes.NewString
	// NewBool builds a BOOL value.
	NewBool = sqltypes.NewBool
	// NewTime builds a DATETIME value.
	NewTime = sqltypes.NewTime
)

// Re-exported LAT types (§4.3 of the paper).
type (
	// LATSpec declares a light-weight aggregation table.
	LATSpec = lat.Spec
	// AggCol declares one aggregation column of a LAT.
	AggCol = lat.AggCol
	// OrderKey is one ordering column of a LAT.
	OrderKey = lat.OrderKey
	// LAT is a live aggregation table.
	LAT = lat.Table
	// AggFunc selects the aggregation function of an AggCol.
	AggFunc = lat.AggFunc
)

// LAT aggregation functions.
const (
	Count = lat.Count
	Sum   = lat.Sum
	Avg   = lat.Avg
	Min   = lat.Min
	Max   = lat.Max
	Stdev = lat.Stdev
	First = lat.First
	Last  = lat.Last
)

// Re-exported rule types (§5 of the paper).
type (
	// Rule is one Event-Condition-Action rule.
	Rule = rules.Rule
	// Action is one step of a rule's action list.
	Action = rules.Action
	// InsertAction folds the in-context object into a LAT.
	InsertAction = rules.InsertAction
	// ResetAction clears a LAT.
	ResetAction = rules.ResetAction
	// PersistAction writes object attributes or a whole LAT to a table.
	PersistAction = rules.PersistAction
	// SendMailAction notifies the DBA, with {attribute} substitution.
	SendMailAction = rules.SendMailAction
	// RunExternalAction launches an external command.
	RunExternalAction = rules.RunExternalAction
	// CancelAction cancels the in-context query.
	CancelAction = rules.CancelAction
	// SetTimerAction arms a Timer object.
	SetTimerAction = rules.SetTimerAction
	// FuncAction wraps a Go callback as an action.
	FuncAction = rules.FuncAction
)

// Re-exported monitoring plumbing.
type (
	// Mailer delivers SendMail actions.
	Mailer = core.Mailer
	// Runner launches RunExternal actions.
	Runner = core.Runner
	// MemMailer is the recording in-memory Mailer.
	MemMailer = core.MemMailer
	// MemRunner is the recording in-memory Runner.
	MemRunner = core.MemRunner
	// Persister writes monitoring rows to a table.
	Persister = core.Persister
)

// Re-exported static rule analysis types (internal/rulecheck).
type (
	// RuleCheckMode selects how static rule analysis treats findings at
	// rule-registration time.
	RuleCheckMode = rulecheck.Mode
	// RuleDiagnostic is one static-analysis finding.
	RuleDiagnostic = rulecheck.Diagnostic
)

// Rule-check modes.
const (
	// RuleCheckWarn (the default) registers rules without analysing
	// them; DB.CheckRules (or DB.RuleWarnings) reports the live rule
	// set's findings when asked.
	RuleCheckWarn = rulecheck.Warn
	// RuleCheckStrict analyses what a registration adds (one rule, or
	// one LoadRuleSet file) against the live set, and rejects it when an
	// error-severity finding names one of its rules or LATs
	// (kind-mismatched conditions, dead rules, bad LAT references,
	// synchronous trigger cycles, duplicates); findings of live rules do
	// not block it.
	RuleCheckStrict = rulecheck.Strict
)

// Config tunes a DB.
type Config struct {
	// LockTimeout bounds lock waits (default 10s; negative waits
	// forever; deadlocks are always detected regardless).
	LockTimeout time.Duration
	// Mailer handles SendMail actions (default: recording MemMailer).
	Mailer Mailer
	// Runner handles RunExternal actions (default: recording MemRunner).
	Runner Runner
	// Persister handles Persist actions and PersistLAT (default: engine
	// tables, created on first use).
	Persister Persister
	// DispatchBudget arms event shedding: when the average rule-dispatch
	// latency exceeds it, events are sampled (1 in 16) instead of all
	// evaluated (default 0: never shed).
	DispatchBudget time.Duration
	// RuleCheck selects the static-analysis mode for rule registration
	// (default RuleCheckWarn).
	RuleCheck RuleCheckMode
}

// DB is an embedded, monitored database instance.
type DB struct {
	eng *engine.Engine
	mon *core.SQLCM
}

// Open creates a DB with monitoring attached.
func Open(cfg Config) (*DB, error) {
	eng, err := engine.Open(engine.Config{LockTimeout: cfg.LockTimeout})
	if err != nil {
		return nil, err
	}
	mon := core.Attach(eng, core.Options{
		Mailer:         cfg.Mailer,
		Runner:         cfg.Runner,
		Persister:      cfg.Persister,
		DispatchBudget: cfg.DispatchBudget,
		RuleCheck:      cfg.RuleCheck,
	})
	return &DB{eng: eng, mon: mon}, nil
}

// Close detaches monitoring (draining queued actions) and shuts the engine
// down. Engine tables live in memory, so persisted LATs go with it. The
// error reports actions abandoned by a timed-out drain or an engine
// shutdown failure.
func (db *DB) Close() error {
	err := db.mon.Detach()
	if cerr := db.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// Flush blocks until every queued monitoring action has executed (or the
// timeout elapses), reporting whether the outbox is idle. Rule actions run
// asynchronously; call Flush before reading their side effects.
func (db *DB) Flush(timeout time.Duration) bool { return db.mon.Flush(timeout) }

// Session opens a client session; user and application name are monitoring
// probes (the User and Application attributes of the Query class).
func (db *DB) Session(user, app string) *Session {
	return db.eng.NewSession(user, app)
}

// RemoteSession opens a session on behalf of a network client; remoteAddr
// feeds the Remote_Addr, Connect_Time and Session_Age probes so rules can
// target connections. The network front-end (internal/server) plugs this
// into its Config.NewSession.
func (db *DB) RemoteSession(user, app, remoteAddr string) *Session {
	return db.eng.NewRemoteSession(user, app, remoteAddr)
}

// Exec runs one statement on a throwaway session (convenience for DDL and
// setup scripts).
func (db *DB) Exec(sql string, params map[string]Value) (*Result, error) {
	sess := db.eng.NewSession("", "")
	defer sess.Close() //nolint:errcheck
	return sess.Exec(sql, params)
}

// DefineLAT registers a light-weight aggregation table.
func (db *DB) DefineLAT(spec LATSpec) (*LAT, error) { return db.mon.DefineLAT(spec) }

// DropLAT removes a LAT.
func (db *DB) DropLAT(name string) bool { return db.mon.DropLAT(name) }

// LAT returns a registered LAT by name.
func (db *DB) LAT(name string) (*LAT, bool) { return db.mon.LAT(name) }

// PersistLAT writes a LAT's rows (plus a timestamp) to a table.
func (db *DB) PersistLAT(name, table string) error { return db.mon.PersistLAT(name, table) }

// LoadLAT folds a previously persisted table back into a LAT.
func (db *DB) LoadLAT(name, table string) error { return db.mon.LoadLAT(name, table) }

// NewRule declares an ECA rule: event "Class.Name" (e.g. "Query.Commit"),
// a condition over probe attributes and LAT columns (empty = always true),
// and the actions to run when it fires.
func (db *DB) NewRule(name, event, condition string, actions ...Action) (*Rule, error) {
	return db.mon.NewRule(name, event, condition, actions...)
}

// RemoveRule drops a rule.
func (db *DB) RemoveRule(name string) bool { return db.mon.RemoveRule(name) }

// LoadRuleSet installs a declarative .rules file (LAT declarations and
// rules), all of it or none. In RuleCheckStrict mode it first analyses
// the file, as a closed world against the live rules and LATs, and an
// error-severity finding that names one of the file's rules or LATs
// rejects the entire file.
func (db *DB) LoadRuleSet(src string) error { return db.mon.LoadRuleSet(src) }

// CheckRules runs static analysis over the live rule set and returns
// every finding.
func (db *DB) CheckRules() []RuleDiagnostic { return db.mon.CheckRules() }

// RuleWarnings is CheckRules: the live rule set's findings, in either
// mode.
func (db *DB) RuleWarnings() []RuleDiagnostic { return db.mon.CheckRules() }

// SetTimer arms the named Timer object: count alarms separated by period
// (count < 0 repeats forever, count == 0 disables).
func (db *DB) SetTimer(name string, period time.Duration, count int) error {
	return db.mon.Timers().Set(name, period, count)
}

// ActiveQueries snapshots the currently executing statements (the polling
// interface client-side monitors use).
func (db *DB) ActiveQueries() []QuerySnapshot { return db.eng.ActiveQueries() }

// CancelQuery cancels a statement by id.
func (db *DB) CancelQuery(id int64) bool { return db.eng.CancelQuery(id) }

// ReadTable returns all rows of a table (reporting convenience).
func (db *DB) ReadTable(table string) ([][]Value, error) { return db.eng.ReadTableDirect(table) }

// Engine exposes the underlying engine for advanced embedding.
func (db *DB) Engine() *engine.Engine { return db.eng }

// Monitor exposes the monitoring core for advanced embedding.
func (db *DB) Monitor() *core.SQLCM { return db.mon }
