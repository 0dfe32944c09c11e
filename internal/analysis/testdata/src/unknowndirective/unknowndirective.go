// Package unknowndirective seeds directive typos. Each would switch a
// check off without a word: the misspelled guards list leaves n
// unguarded, so the unlocked read in peek would pass guardedby, and the
// misspelled hotpath marker lets stamp read the clock unflagged. A
// leftover verb whose check was deleted, like the cancellable marker on
// drain, reads the same way. A bare allow suppresses without saying why.
// The repaired shapes (reg2, stamp2) report nothing.
package unknowndirective

import (
	"sync"
	"time"
)

type reg struct {
	//sqlcm:lock ud.reg
	//sqlcm:guard n
	mu sync.Mutex
	n  int
}

func (r *reg) peek() int { return r.n }

//sqlcm:hotpth
func stamp() int64 { return time.Now().UnixNano() }

//sqlcm:cancellable
func drain(rows []int) (sum int) {
	for _, v := range rows {
		sum += v
	}
	return sum
}

func bare(r *reg) int {
	//sqlcm:allow
	return r.n
}

type reg2 struct {
	//sqlcm:lock ud.reg2
	//sqlcm:guards n
	mu sync.Mutex
	n  int
}

func (r *reg2) peek() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// stamp2 takes the time its caller already read.
//
//sqlcm:hotpath
func stamp2(now time.Time) int64 { return now.UnixNano() }
