package main

import (
	"fmt"
	"math/rand"

	"sqlcm/internal/engine"
	"sqlcm/internal/sqltypes"
)

// workload is one traffic mix. The names are the ones BENCHMARK.json
// declares; README.md says why each exists.
type workload struct {
	name string
	// monitored is false when the run executes with Monitor().Suspend():
	// the rule set is loaded, but no hook runs.
	monitored bool
	mix       mixKind
}

type mixKind uint8

const (
	mixPointRead mixKind = iota // prepared single-row SELECTs
	mixAdhoc                    // simple-protocol range SELECTs, every text new
	mixOLTP                     // 60 % two-UPDATE transactions, 40 % point SELECTs
)

var workloads = []workload{
	{name: "point_read_mon_off", monitored: false, mix: mixPointRead},
	{name: "point_read_mon_on", monitored: true, mix: mixPointRead},
	{name: "adhoc_compile_mon_on", monitored: true, mix: mixAdhoc},
	{name: "oltp_mixed_mon_on", monitored: true, mix: mixOLTP},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale is the data size. The default is workload.Setup's: at 8 KiB a page
// the three tables take about 1 100 pages, so the default 2048-page
// (16 MiB) buffer pool holds all of it.
type scale struct {
	lineitems, orders, parts int
}

var defaultScale = scale{lineitems: 100_000, orders: 25_000, parts: 2_000}

// Statement texts. The four prepared ones are prepared once per connection;
// the range SELECT carries its bounds inline, so no two texts are equal.
const (
	sqlSelL  = "SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_id = @key"
	sqlSelO  = "SELECT o_totalprice, o_status FROM orders WHERE o_orderkey = @key"
	sqlUpdL  = "UPDATE lineitem SET l_quantity = l_quantity + @d WHERE l_id = @key"
	sqlUpdO  = "UPDATE orders SET o_totalprice = o_totalprice + @d WHERE o_orderkey = @key"
	sqlRange = "SELECT l_id, l_quantity, l_extendedprice FROM lineitem WHERE l_id >= %d AND l_id < %d"
)

// maxSpan is the longest range an ad-hoc SELECT asks for.
const maxSpan = 20

type opKind uint8

const (
	opSelL opKind = iota
	opSelO
	opRange
	opBegin
	opUpdL
	opUpdO
	opCommit
)

// op is one wire statement of a stream.
type op struct {
	kind opKind
	key  int64 // row key, or the lower bound of a range
	n    int64 // range span, or the increment of an UPDATE
}

// text is the SQL a server sees for the op.
func (o op) text() string {
	switch o.kind {
	case opSelL:
		return sqlSelL
	case opSelO:
		return sqlSelO
	case opRange:
		return fmt.Sprintf(sqlRange, o.key, o.key+o.n)
	case opBegin:
		return "BEGIN"
	case opUpdL:
		return sqlUpdL
	case opUpdO:
		return sqlUpdO
	default:
		return "COMMIT"
	}
}

// wantRows is the row count a correct server returns (keys are dense and
// never deleted), or -1 for statements that return no rows.
func (o op) wantRows() int {
	switch o.kind {
	case opSelL, opSelO:
		return 1
	case opRange:
		return int(o.n)
	default:
		return -1
	}
}

// stream generates one connection's statements from the seed. The program
// under test sees only the statements; equal seeds give equal streams, and
// a longer run is a longer prefix of the same stream.
type stream struct {
	mix mixKind
	r   *rand.Rand
	// zipfL and zipfO draw the rank of a lineitem or orders key.
	zipfL, zipfO *rand.Zipf
	pending      []op // rest of the transaction being emitted
	// Ad-hoc ranges: lane and lanes make the streams of different
	// connections disjoint, i counts this stream's ranges, and k → k*mult
	// mod pairs is a permutation of the (lower bound, span) pairs.
	lane, lanes, i, pairs, mult int64
}

// zipfS is the key skew: a few hot rows take most accesses, so the oltp
// mix contends and grows version chains on the rows its readers visit.
const zipfS = 1.3

func newStream(mix mixKind, sc scale, seed int64, lane, lanes int) *stream {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(lane)))
	pairs := int64(sc.lineitems-maxSpan) * maxSpan
	mult := 1_000_003 + seed%1_000
	for gcd(mult, pairs) != 1 {
		mult++
	}
	return &stream{
		mix: mix, r: r,
		zipfL: rand.NewZipf(r, zipfS, 1, uint64(sc.lineitems-1)),
		zipfO: rand.NewZipf(r, zipfS, 1, uint64(sc.orders-1)),
		lane:  int64(lane), lanes: int64(lanes), pairs: pairs, mult: mult,
	}
}

func (s *stream) pointSelect() op {
	if s.r.Intn(2) == 0 {
		return op{kind: opSelL, key: int64(s.zipfL.Uint64()) + 1}
	}
	return op{kind: opSelO, key: int64(s.zipfO.Uint64()) + 1}
}

// adhocRange walks the (lower bound, span) pairs in a scattered order that
// visits each pair once before repeating any, so every text is new to the
// plan cache for the first lows×maxSpan statements.
func (s *stream) adhocRange() op {
	k := (s.i*s.lanes + s.lane) % s.pairs
	s.i++
	p := (k * s.mult) % s.pairs
	return op{kind: opRange, key: p/maxSpan + 1, n: p%maxSpan + 1}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (s *stream) next() op {
	if len(s.pending) > 0 {
		o := s.pending[0]
		s.pending = s.pending[1:]
		return o
	}
	switch s.mix {
	case mixPointRead:
		return s.pointSelect()
	case mixAdhoc:
		return s.adhocRange()
	default:
		if s.r.Float64() >= 0.6 {
			return s.pointSelect()
		}
		// Small whole increments keep every sum exactly representable.
		d := int64(s.r.Intn(5) + 1)
		s.pending = append(s.pending[:0],
			op{kind: opUpdL, key: int64(s.zipfL.Uint64()) + 1, n: d},
			op{kind: opUpdO, key: int64(s.zipfO.Uint64()) + 1, n: d},
			op{kind: opCommit},
		)
		return op{kind: opBegin}
	}
}

// load creates workload.Setup's schema and fills it with seeded rows. Each
// table is loaded in one transaction: with autocommit inserts every 256th
// commit would run a version-prune pass over all rows loaded so far, and
// the load would take ten times as long for the same final state.
func load(eng *engine.Engine, sc scale, seed int64) error {
	sess := eng.NewSession("loader", "bench")
	defer sess.Close() //nolint:errcheck
	for _, ddl := range []string{
		`CREATE TABLE part (p_partkey INT PRIMARY KEY, p_name VARCHAR NOT NULL, p_retailprice FLOAT)`,
		`CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_custkey INT, o_totalprice FLOAT, o_status VARCHAR)`,
		`CREATE TABLE lineitem (l_id INT PRIMARY KEY, l_orderkey INT, l_partkey INT,
			l_quantity FLOAT, l_extendedprice FLOAT, l_comment VARCHAR)`,
		`CREATE INDEX idx_l_orderkey ON lineitem (l_orderkey)`,
	} {
		if _, err := sess.Exec(ddl, nil); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	r := rand.New(rand.NewSource(seed))
	statuses := []string{"O", "F", "P"}
	tables := []struct {
		insert string
		rows   int
		row    func(i int64) map[string]sqltypes.Value
	}{
		{"INSERT INTO part VALUES (@k, @n, @p)", sc.parts, func(i int64) map[string]sqltypes.Value {
			return map[string]sqltypes.Value{
				"k": sqltypes.NewInt(i),
				"n": sqltypes.NewString(fmt.Sprintf("part-%06d", i)),
				"p": sqltypes.NewFloat(float64(900 + r.Intn(2000))),
			}
		}},
		{"INSERT INTO orders VALUES (@k, @c, @t, @s)", sc.orders, func(i int64) map[string]sqltypes.Value {
			return map[string]sqltypes.Value{
				"k": sqltypes.NewInt(i),
				"c": sqltypes.NewInt(int64(r.Intn(sc.orders/10 + 1))),
				"t": sqltypes.NewFloat(float64(r.Intn(50000))),
				"s": sqltypes.NewString(statuses[r.Intn(len(statuses))]),
			}
		}},
		{"INSERT INTO lineitem VALUES (@i, @o, @p, @q, @e, @c)", sc.lineitems, func(i int64) map[string]sqltypes.Value {
			return map[string]sqltypes.Value{
				"i": sqltypes.NewInt(i),
				"o": sqltypes.NewInt(int64(r.Intn(sc.orders) + 1)),
				"p": sqltypes.NewInt(int64(r.Intn(sc.parts) + 1)),
				"q": sqltypes.NewFloat(float64(r.Intn(50) + 1)),
				"e": sqltypes.NewFloat(float64(r.Intn(100000))),
				"c": sqltypes.NewString(fmt.Sprintf("comment-%d", i)),
			}
		}},
	}
	for _, t := range tables {
		ins, err := sess.Prepare(t.insert)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
		if _, err := sess.Exec("BEGIN", nil); err != nil {
			return fmt.Errorf("load: %w", err)
		}
		for i := int64(1); i <= int64(t.rows); i++ {
			if _, err := ins.Exec(t.row(i)); err != nil {
				return fmt.Errorf("load: %s: %w", t.insert, err)
			}
		}
		if _, err := sess.Exec("COMMIT", nil); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}
