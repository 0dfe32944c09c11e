// Package workload builds the paper's experimental workload (§6.2): a
// TPC-H-style schema (lineitem, orders, part) and a deterministic query
// mix of short single-row selections interleaved with multi-way join
// selections returning 1000–2000 rows.
//
// The paper used a 6M-row lineitem table on 2003-era hardware; the default
// scale here is 100k rows (configurable), preserving the relative costs the
// experiments measure.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"sqlcm/internal/engine"
	"sqlcm/internal/sqltypes"
)

// Config scales the generated database and workload.
type Config struct {
	// Lineitems is the lineitem row count (default 100_000).
	Lineitems int
	// Orders is the orders row count (default Lineitems/4).
	Orders int
	// Parts is the part row count (default 2_000).
	Parts int
	// Seed drives the deterministic generator.
	Seed int64
	// ShortQueries is the number of single-row selections (paper: 20_000).
	ShortQueries int
	// JoinQueries is the number of join selections (paper: 100).
	JoinQueries int
}

func (c Config) withDefaults() Config {
	if c.Lineitems == 0 {
		c.Lineitems = 100_000
	}
	if c.Orders == 0 {
		c.Orders = c.Lineitems / 4
	}
	if c.Parts == 0 {
		c.Parts = 2_000
	}
	if c.ShortQueries == 0 {
		c.ShortQueries = 20_000
	}
	if c.JoinQueries == 0 {
		c.JoinQueries = 100
	}
	return c
}

// Setup creates and populates the TPC-H-style schema through the engine.
func Setup(eng *engine.Engine, cfg Config) (Config, error) {
	cfg = cfg.withDefaults()
	sess := eng.NewSession("loader", "workload")
	defer sess.Close() //nolint:errcheck
	ddl := []string{
		`CREATE TABLE part (
			p_partkey INT PRIMARY KEY,
			p_name VARCHAR NOT NULL,
			p_retailprice FLOAT
		)`,
		`CREATE TABLE orders (
			o_orderkey INT PRIMARY KEY,
			o_custkey INT,
			o_totalprice FLOAT,
			o_status VARCHAR
		)`,
		`CREATE TABLE lineitem (
			l_id INT PRIMARY KEY,
			l_orderkey INT,
			l_partkey INT,
			l_quantity FLOAT,
			l_extendedprice FLOAT,
			l_comment VARCHAR
		)`,
		`CREATE INDEX idx_l_orderkey ON lineitem (l_orderkey)`,
	}
	for _, q := range ddl {
		if _, err := sess.Exec(q, nil); err != nil {
			return cfg, fmt.Errorf("workload: %s: %w", q[:30], err)
		}
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	for i := 1; i <= cfg.Parts; i++ {
		err := insert(sess, "INSERT INTO part VALUES (@k, @n, @p)", map[string]sqltypes.Value{
			"k": sqltypes.NewInt(int64(i)),
			"n": sqltypes.NewString(fmt.Sprintf("part-%06d", i)),
			"p": sqltypes.NewFloat(900 + float64(r.Intn(200000))/100),
		})
		if err != nil {
			return cfg, err
		}
	}
	statuses := []string{"O", "F", "P"}
	for i := 1; i <= cfg.Orders; i++ {
		err := insert(sess, "INSERT INTO orders VALUES (@k, @c, @t, @s)", map[string]sqltypes.Value{
			"k": sqltypes.NewInt(int64(i)),
			"c": sqltypes.NewInt(int64(r.Intn(cfg.Orders/10 + 1))),
			"t": sqltypes.NewFloat(float64(r.Intn(5000000)) / 100),
			"s": sqltypes.NewString(statuses[r.Intn(len(statuses))]),
		})
		if err != nil {
			return cfg, err
		}
	}
	for i := 1; i <= cfg.Lineitems; i++ {
		err := insert(sess, "INSERT INTO lineitem VALUES (@i, @o, @p, @q, @e, @c)", map[string]sqltypes.Value{
			"i": sqltypes.NewInt(int64(i)),
			"o": sqltypes.NewInt(int64(r.Intn(cfg.Orders) + 1)),
			"p": sqltypes.NewInt(int64(r.Intn(cfg.Parts) + 1)),
			"q": sqltypes.NewFloat(float64(r.Intn(50) + 1)),
			"e": sqltypes.NewFloat(float64(r.Intn(10000000)) / 100),
			"c": sqltypes.NewString(fmt.Sprintf("comment-%d", i)),
		})
		if err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

func insert(sess *engine.Session, sql string, params map[string]sqltypes.Value) error {
	_, err := sess.Exec(sql, params)
	return err
}

// Zipf returns a deterministic sampler of ranks in [0, n) with skew s
// (s > 1; larger is more skewed). Both the §6.2 mix and the simulation
// harness's trace generator use it to produce the hot-statement/hot-user
// distributions real monitoring workloads exhibit: a few signatures absorb
// most events while a long tail keeps creating new LAT groups.
func Zipf(r *rand.Rand, s float64, n int) func() int {
	z := rand.NewZipf(r, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// Query is one workload statement with bound parameters.
type Query struct {
	SQL    string
	Params map[string]sqltypes.Value
	Join   bool // true for the expensive join queries
}

// Mix produces the deterministic §6.2 query sequence: ShortQueries
// single-row selections on lineitem and orders, with one join query after
// every ShortQueries/JoinQueries short ones (at least one; up to
// JoinQueries total). Identical seeds produce identical sequences,
// matching the paper's "exact same queries in order" methodology.
func Mix(cfg Config) []Query {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed + 1))
	out := make([]Query, 0, cfg.ShortQueries+cfg.JoinQueries)
	joins, joinEvery := 0, max(1, cfg.ShortQueries/cfg.JoinQueries)
	for i := 0; i < cfg.ShortQueries; i++ {
		if i%2 == 0 {
			out = append(out, Query{
				SQL: "SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_id = @key",
				Params: map[string]sqltypes.Value{
					"key": sqltypes.NewInt(int64(r.Intn(cfg.Lineitems) + 1)),
				},
			})
		} else {
			out = append(out, Query{
				SQL: "SELECT o_totalprice, o_status FROM orders WHERE o_orderkey = @key",
				Params: map[string]sqltypes.Value{
					"key": sqltypes.NewInt(int64(r.Intn(cfg.Orders) + 1)),
				},
			})
		}
		if joins < cfg.JoinQueries && (i+1)%joinEvery == 0 {
			// A selection of 1000–2000 rows from a 3-way join, per §6.2.
			// Key ranges are sized so the lineitem slice is ~1.5% of the
			// table (~1500 rows at default scale). Join queries carry
			// inline literals so that each instance has a distinct text —
			// the unit the top-k task identifies.
			span := cfg.Lineitems / 66
			lo := r.Intn(cfg.Lineitems - span)
			out = append(out, Query{
				SQL: fmt.Sprintf(`SELECT l.l_id, o.o_totalprice, p.p_retailprice
					FROM lineitem l
					JOIN orders o ON l.l_orderkey = o.o_orderkey
					JOIN part p ON l.l_partkey = p.p_partkey
					WHERE l.l_id >= %d AND l.l_id < %d`, lo, lo+span),
				Join: true,
			})
			joins++
		}
	}
	return out
}

// Run executes the workload sequentially on one session, returning the
// number of statements executed.
func Run(eng *engine.Engine, queries []Query, user, app string) (int, error) {
	sess := eng.NewSession(user, app)
	defer sess.Close() //nolint:errcheck
	for i, q := range queries {
		if _, err := sess.Exec(q.SQL, q.Params); err != nil {
			return i, fmt.Errorf("workload: query %d: %w", i, err)
		}
	}
	return len(queries), nil
}

// RunMeasured executes the workload and additionally records the maximum
// client-observed duration per statement text — the ground truth the
// top-k accuracy experiment compares monitoring approaches against.
func RunMeasured(eng *engine.Engine, queries []Query, user, app string) (map[string]time.Duration, time.Duration, error) {
	sess := eng.NewSession(user, app)
	defer sess.Close() //nolint:errcheck
	durations := make(map[string]time.Duration, 256)
	start := time.Now()
	for i, q := range queries {
		qs := time.Now()
		if _, err := sess.Exec(q.SQL, q.Params); err != nil {
			return nil, 0, fmt.Errorf("workload: query %d: %w", i, err)
		}
		d := time.Since(qs)
		if d > durations[q.SQL] {
			durations[q.SQL] = d
		}
	}
	return durations, time.Since(start), nil
}
