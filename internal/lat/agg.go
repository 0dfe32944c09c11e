package lat

import (
	"math"
	"time"

	"sqlcm/internal/faults"
	"sqlcm/internal/sqltypes"
)

// aggState holds the accumulator for one aggregation column of one row;
// its zero value is the empty accumulator (the zero sqltypes.Value is NULL).
// Non-aging aggregates use the scalar fields; aging aggregates additionally
// maintain a bounded list of time blocks (the paper's block-based moving
// window: values are grouped into blocks spanning Δ, and whole blocks age
// out once older than the window t).
//
// Variance state (mean, m2) is kept with Welford's algorithm rather than a
// sum-of-squares accumulator: (Σx² − (Σx)²/n)/(n−1) cancels catastrophically
// once |x| ≫ stdev (at x ≈ 1e9 the subtraction loses every significant
// digit of a single-digit variance), which the differential oracle caught
// on seed 41's TxnStats.SdB column. SUM/AVG keep the plain running sum: its
// result is bit-identical to a naive in-order recomputation, which the
// simulation harness relies on for exact comparison.
type aggState struct {
	// non-aging scalar accumulators
	count   int64
	sum     float64
	mean    float64
	m2      float64
	numeric int64
	min     sqltypes.Value
	max     sqltypes.Value
	hasMM   bool
	first   sqltypes.Value
	last    sqltypes.Value
	hasF    bool

	// aging window
	blocks []agingBlock
}

// agingBlock accumulates the values observed in one Δ-wide interval.
// nonNull counts non-NULL observations (count includes NULLs, which
// FIRST/LAST need for presence tracking).
type agingBlock struct {
	start   time.Time
	count   int64
	nonNull int64
	sum     float64
	mean    float64
	m2      float64
	numeric int64
	min     sqltypes.Value
	max     sqltypes.Value
	hasMM   bool
	first   sqltypes.Value
	last    sqltypes.Value
}

// add folds one observation in and returns how much memSize grew.
func (a *aggState) add(spec *Spec, col *AggCol, v sqltypes.Value, now time.Time) (grew int64) {
	if col.Aging {
		return a.addAging(spec, v, now)
	}
	if !a.hasF {
		grew += set(&a.first, v)
		a.hasF = true
	}
	grew += set(&a.last, v)
	if col.Func == Count && col.Attr == "" {
		a.count++
		return grew
	}
	if v.IsNull() {
		return grew
	}
	a.count++
	if f, ok := v.AsFloat(); ok {
		if !(col.Func == Sum && faults.AggSumDropped()) {
			a.sum += f
		}
		a.numeric++
		delta := f - a.mean
		a.mean += delta / float64(a.numeric)
		a.m2 += delta * (f - a.mean)
	}
	if !a.hasMM {
		grew += set(&a.min, v) + set(&a.max, v)
		a.hasMM = true
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

// set assigns v to *dst and returns how much the footprint grew.
func set(dst *sqltypes.Value, v sqltypes.Value) int64 {
	grew := int64(v.MemSize() - dst.MemSize())
	*dst = v
	return grew
}

// restoreFrom reconstructs the accumulator from a checkpointed output
// value (see Table.Restore for the per-function exactness contract).
func (a *aggState) restoreFrom(spec *Spec, col *AggCol, v sqltypes.Value, now time.Time) {
	if col.Aging {
		// Block structure is not recoverable from one output value: fold
		// the checkpointed value back as a single observation.
		if !v.IsNull() {
			a.addAging(spec, v, now)
		}
		return
	}
	if v.IsNull() {
		return
	}
	a.first, a.last, a.hasF = v, v, true
	switch col.Func {
	case Count:
		a.count = v.Int()
	case Sum, Avg:
		if f, ok := v.AsFloat(); ok {
			a.sum, a.mean, a.m2 = f, f, 0
			a.count, a.numeric = 1, 1
		}
	case Stdev:
		// Not reconstructible (needs n, mean, M2): resume as one observation.
		if f, ok := v.AsFloat(); ok {
			a.sum, a.mean, a.m2 = f, f, 0
			a.count, a.numeric = 1, 1
		}
	case Min, Max:
		a.min, a.max, a.hasMM = v, v, true
		a.count = 1
	case First, Last:
		a.count = 1
	}
}

func (a *aggState) addAging(spec *Spec, v sqltypes.Value, now time.Time) (grew int64) {
	grew = -a.expire(spec, now)
	blockStart := now.Truncate(spec.AgingBlock)
	var b *agingBlock
	if n := len(a.blocks); n > 0 && !a.blocks[n-1].start.Before(blockStart) {
		b = &a.blocks[n-1]
	} else {
		a.blocks = append(a.blocks, agingBlock{
			start: blockStart,
			min:   sqltypes.Null, max: sqltypes.Null,
			first: sqltypes.Null, last: sqltypes.Null,
		})
		b = &a.blocks[len(a.blocks)-1]
		grew += b.memSize()
	}
	if b.count == 0 {
		grew += set(&b.first, v)
	}
	grew += set(&b.last, v)
	b.count++
	if v.IsNull() {
		return grew
	}
	b.nonNull++
	if f, ok := v.AsFloat(); ok {
		b.sum += f
		b.numeric++
		delta := f - b.mean
		b.mean += delta / float64(b.numeric)
		b.m2 += delta * (f - b.mean)
	}
	if !b.hasMM {
		grew += set(&b.min, v) + set(&b.max, v)
		b.hasMM = true
	} else {
		if sqltypes.Compare(v, b.min) < 0 {
			grew += set(&b.min, v)
		}
		if sqltypes.Compare(v, b.max) > 0 {
			grew += set(&b.max, v)
		}
	}
	return grew
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
		freed += a.blocks[j].memSize()
	}
	a.blocks = append(a.blocks[:0], a.blocks[i:]...)
	return freed
}

// value materializes the aggregate's current output. It does not modify
// the accumulator: Lookup and Rows call it under the read side of the
// table latch.
func (a *aggState) value(spec *Spec, col *AggCol, now time.Time) sqltypes.Value {
	if col.Aging {
		return a.agingValue(spec, col, now)
	}
	switch col.Func {
	case Count:
		return sqltypes.NewInt(a.count)
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
		return stdevOf(a.numeric, a.m2)
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

func (a *aggState) agingValue(spec *Spec, col *AggCol, now time.Time) sqltypes.Value {
	var count, nonNull, numeric int64
	var sum, mean, m2 float64
	mn, mx := sqltypes.Null, sqltypes.Null
	first, last := sqltypes.Null, sqltypes.Null
	hasMM, hasF := false, false
	for i := a.aged(spec, now); i < len(a.blocks); i++ {
		b := &a.blocks[i]
		count += b.count
		nonNull += b.nonNull
		sum += b.sum
		if b.numeric > 0 {
			// Chan et al. pairwise merge of per-block Welford states.
			tot := numeric + b.numeric
			delta := b.mean - mean
			m2 += b.m2 + delta*delta*float64(numeric)*float64(b.numeric)/float64(tot)
			mean += delta * float64(b.numeric) / float64(tot)
			numeric = tot
		}
		if b.hasMM {
			if !hasMM {
				mn, mx = b.min, b.max
				hasMM = true
			} else {
				if sqltypes.Compare(b.min, mn) < 0 {
					mn = b.min
				}
				if sqltypes.Compare(b.max, mx) > 0 {
					mx = b.max
				}
			}
		}
		if b.count > 0 {
			if !hasF {
				first = b.first
				hasF = true
			}
			last = b.last
		}
	}
	switch col.Func {
	case Count:
		if col.Attr == "" {
			return sqltypes.NewInt(count)
		}
		// COUNT(attr) excludes NULLs, exactly like the non-aging path (which
		// bumps count only after the null check). The aging path used to
		// return the block presence counter — which includes NULLs — so the
		// two variants of the same column could disagree.
		return sqltypes.NewInt(nonNull)
	case Sum:
		if numeric == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(sum)
	case Avg:
		if numeric == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(sum / float64(numeric))
	case Stdev:
		return stdevOf(numeric, m2)
	case Min:
		return mn
	case Max:
		return mx
	case First:
		return first
	case Last:
		return last
	default:
		return sqltypes.Null
	}
}

func stdevOf(n int64, m2 float64) sqltypes.Value {
	if n < 2 {
		return sqltypes.Null
	}
	variance := m2 / float64(n-1)
	if variance < 0 {
		variance = 0
	}
	return sqltypes.NewFloat(math.Sqrt(variance))
}

// emptyAggMem is the footprint of an accumulator that has seen nothing.
var emptyAggMem = new(aggState).memSize()

// memSize approximates the accumulator footprint; add reports its changes.
func (a *aggState) memSize() int64 {
	n := 96 + int64(a.min.MemSize()+a.max.MemSize()+a.first.MemSize()+a.last.MemSize())
	for i := range a.blocks {
		n += a.blocks[i].memSize()
	}
	return n
}

func (b *agingBlock) memSize() int64 {
	return 96 + int64(b.min.MemSize()+b.max.MemSize()+b.first.MemSize()+b.last.MemSize())
}
