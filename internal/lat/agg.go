package lat

import (
	"math"
	"time"

	"sqlcm/internal/faults"
	"sqlcm/internal/sqltypes"
)

// Accumulator folds the values of one aggregate — every function of
// AggFunc at once — and is the one fold behind LAT columns, aging blocks
// and the SQL executor's GROUP BY. Its zero value is the empty
// accumulator (the zero sqltypes.Value is NULL).
//
// n counts every observation, NULLs included (FIRST and LAST track
// presence), nonNull the non-NULL ones (COUNT), and numeric those with a
// float value (SUM, AVG, STDEV). min and max are set once nonNull > 0,
// first and last once n > 0. A COUNT(*) aggregate folds StarArg per row.
//
// Variance state (mean, m2) is kept with Welford's algorithm rather than a
// sum-of-squares accumulator: (Σx² − (Σx)²/n)/(n−1) cancels catastrophically
// once |x| ≫ stdev (at x ≈ 1e9 the subtraction loses every significant
// digit of a single-digit variance), which the differential oracle caught
// on seed 41's TxnStats.SdB column. SUM/AVG keep the plain running sum: its
// result is bit-identical to a naive in-order recomputation, which the
// simulation harness relies on for exact comparison.
type Accumulator struct {
	n, nonNull, numeric   int64
	sum, mean, m2         float64
	min, max, first, last sqltypes.Value
}

// StarArg is the argument a COUNT(*) aggregate folds for every row: a
// non-NULL value, so COUNT's count of non-NULL arguments is the row count.
var StarArg = sqltypes.NewInt(1)

// Add folds one observation in and returns how much the footprint grew.
func (a *Accumulator) Add(v sqltypes.Value) (grew int64) {
	if a.n == 0 {
		grew += set(&a.first, v)
	}
	grew += set(&a.last, v)
	a.n++
	if v.IsNull() {
		return grew
	}
	a.nonNull++
	if f, ok := v.AsFloat(); ok {
		a.sum += f
		a.numeric++
		delta := f - a.mean
		a.mean += delta / float64(a.numeric)
		a.m2 += delta * (f - a.mean)
	}
	if a.nonNull == 1 {
		grew += set(&a.min, v) + set(&a.max, v)
	} else {
		if sqltypes.Compare(v, a.min) < 0 {
			grew += set(&a.min, v)
		}
		if sqltypes.Compare(v, a.max) > 0 {
			grew += set(&a.max, v)
		}
	}
	return grew
}

// Merge folds b's observations in after a's, as if each had been added
// here: the running sum adds b's, and the Welford states combine by Chan
// et al.'s pairwise formula.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		a.first = b.first
	}
	a.last = b.last
	a.n += b.n
	a.sum += b.sum
	if b.numeric > 0 {
		tot := a.numeric + b.numeric
		delta := b.mean - a.mean
		a.m2 += b.m2 + delta*delta*float64(a.numeric)*float64(b.numeric)/float64(tot)
		a.mean += delta * float64(b.numeric) / float64(tot)
		a.numeric = tot
	}
	if b.nonNull > 0 {
		if a.nonNull == 0 {
			a.min, a.max = b.min, b.max
		} else {
			if sqltypes.Compare(b.min, a.min) < 0 {
				a.min = b.min
			}
			if sqltypes.Compare(b.max, a.max) > 0 {
				a.max = b.max
			}
		}
		a.nonNull += b.nonNull
	}
}

// Value is fn's result over the observations folded so far: NULL for SUM,
// AVG, MIN and MAX over no non-NULL value, and for STDEV over fewer than
// two numbers.
func (a *Accumulator) Value(fn AggFunc) sqltypes.Value {
	switch fn {
	case Count:
		return sqltypes.NewInt(a.nonNull)
	case Sum:
		if a.numeric == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(a.sum)
	case Avg:
		if a.numeric == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(a.sum / float64(a.numeric))
	case Stdev:
		if a.numeric < 2 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(math.Sqrt(max(a.m2/float64(a.numeric-1), 0)))
	case Min:
		return a.min
	case Max:
		return a.max
	case First:
		return a.first
	case Last:
		return a.last
	default:
		return sqltypes.Null
	}
}

// memSize approximates the accumulator's footprint; Add reports its
// changes.
func (a *Accumulator) memSize() int64 {
	return 96 + int64(a.min.MemSize()+a.max.MemSize()+a.first.MemSize()+a.last.MemSize())
}

// set assigns v to *dst and returns how much the footprint grew.
func set(dst *sqltypes.Value, v sqltypes.Value) int64 {
	grew := int64(v.MemSize() - dst.MemSize())
	*dst = v
	return grew
}

// aggState is one aggregation column of one row. A non-aging column folds
// into acc. An aging column keeps a bounded list of time blocks instead
// (the paper's block-based moving window: values are grouped into blocks
// spanning Δ, and whole blocks age out once older than the window t).
type aggState struct {
	acc    Accumulator
	blocks []agingBlock
}

// agingBlock accumulates the values observed in one Δ-wide interval.
type agingBlock struct {
	start time.Time
	acc   Accumulator
}

// add folds one observation in and returns how much memSize grew.
func (a *aggState) add(spec *Spec, col *AggCol, v sqltypes.Value, now time.Time) int64 {
	if col.Aging {
		return a.addAging(spec, v, now)
	}
	if col.Func == Sum {
		if _, ok := v.AsFloat(); ok && faults.AggSumDropped() {
			// The seeded fault: v is folded, but the running sum is not.
			sum := a.acc.sum
			grew := a.acc.Add(v)
			a.acc.sum = sum
			return grew
		}
	}
	return a.acc.Add(v)
}

// restoreFrom reconstructs the accumulator from a persisted output
// value (see Table.Restore for the per-function exactness contract).
func (a *aggState) restoreFrom(spec *Spec, col *AggCol, v sqltypes.Value, now time.Time) {
	if v.IsNull() {
		return
	}
	if col.Aging {
		// Block structure is not recoverable from one output value: fold
		// the persisted value back as a single observation.
		a.addAging(spec, v, now)
		return
	}
	a.acc.Add(v)
	if col.Func == Count {
		a.acc.n, a.acc.nonNull = v.Int(), v.Int()
	}
}

func (a *aggState) addAging(spec *Spec, v sqltypes.Value, now time.Time) (grew int64) {
	grew = -a.expire(spec, now)
	blockStart := now.Truncate(spec.AgingBlock)
	n := len(a.blocks)
	if n == 0 || a.blocks[n-1].start.Before(blockStart) {
		a.blocks = append(a.blocks, agingBlock{start: blockStart})
		n++
		grew += a.blocks[n-1].acc.memSize()
	}
	return grew + a.blocks[n-1].acc.Add(v)
}

// aged returns how many leading blocks are entirely older than the window.
func (a *aggState) aged(spec *Spec, now time.Time) int {
	cutoff := now.Add(-spec.AgingWindow)
	i := 0
	for i < len(a.blocks) && a.blocks[i].start.Add(spec.AgingBlock).Before(cutoff) {
		i++
	}
	return i
}

// expire drops the aged blocks and returns their memSize.
func (a *aggState) expire(spec *Spec, now time.Time) (freed int64) {
	i := a.aged(spec, now)
	for j := range a.blocks[:i] {
		freed += a.blocks[j].acc.memSize()
	}
	a.blocks = append(a.blocks[:0], a.blocks[i:]...)
	return freed
}

// value materializes the aggregate's current output. It does not modify
// the accumulator.
func (a *aggState) value(spec *Spec, col *AggCol, now time.Time) sqltypes.Value {
	if !col.Aging {
		return a.acc.Value(col.Func)
	}
	// The live blocks merged oldest first, so the running sum adds them in
	// the order their values arrived. COUNT, SUM and AVG read only the
	// counts and that sum, so they skip the rest of Merge.
	var live Accumulator
	for i := a.aged(spec, now); i < len(a.blocks); i++ {
		b := &a.blocks[i].acc
		switch {
		case col.Func != Count && col.Func != Sum && col.Func != Avg:
			live.Merge(b)
		case b.n > 0:
			live.nonNull += b.nonNull
			live.numeric += b.numeric
			live.sum += b.sum
		}
	}
	return live.Value(col.Func)
}

// emptyAggMem is the footprint of an accumulator that has seen nothing.
var emptyAggMem = new(aggState).memSize()

// memSize approximates the column's footprint; add reports its changes.
func (a *aggState) memSize() int64 {
	n := a.acc.memSize()
	for i := range a.blocks {
		n += a.blocks[i].acc.memSize()
	}
	return n
}
