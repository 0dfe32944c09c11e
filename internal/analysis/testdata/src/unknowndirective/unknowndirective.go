// Package unknowndirective seeds directive typos. Each would switch a
// check off without a word: the misspelled guards list leaves n
// unguarded, so the unlocked read in peek would pass guardedby, and the
// misspelled cancellable marker leaves drain's loop unchecked. A verb
// whose check was deleted reads the same way. A bare allow suppresses
// without saying why. The repaired shapes (reg2, drain2) report nothing.
package unknowndirective

import (
	"context"
	"sync"
)

type reg struct {
	//sqlcm:lock ud.reg
	//sqlcm:guard n
	mu sync.Mutex
	n  int
}

func (r *reg) peek() int { return r.n }

//sqlcm:cancelable
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

//sqlcm:cancellable
func drain2(ctx context.Context, rows []int) (sum int, err error) {
	for _, v := range rows {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}
