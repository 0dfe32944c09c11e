package rulecheck

import (
	"fmt"
	"slices"
	"strings"

	"sqlcm/internal/monitor"
	"sqlcm/internal/rules"
)

// Rule-trigger graph analysis. Two action kinds raise further monitored
// events and therefore add edges from the acting rule to every
// subscriber of the raised event:
//
//   - Set(timer, period, n) with n ≠ 0 arms a timer whose alarms
//     dispatch Timer.Alarm from a background goroutine. These edges are
//     asynchronous: a cycle through them is a self-sustaining feedback
//     loop (rules re-arming timers forever), worth a warning but
//     bounded in stack depth.
//   - Insert(LAT) into a size-bounded LAT can evict a row, and the
//     engine dispatches LATRow.Evicted re-entrantly on the inserting
//     thread. These edges are synchronous: a cycle means potentially
//     unbounded recursion on a query thread (an eviction rule whose
//     insert evicts again), and even an acyclic chain deepens the
//     thread's stack by its length.
//
// The graph spans the live and the added rules. The analysis reports,
// for each added rule, an error when a synchronous cycle passes through
// it, otherwise a warning when a cycle through a timer alarm does; and,
// when no synchronous cycle exists, a warning for the deepest synchronous
// chain when it exceeds the set's nesting bound (MaxTriggerDepth) and
// starts at an added rule. Naming every rule on a cycle is what lets the
// engine judge what a registration adds by the findings that name it.

// triggerEdge is one edge of the rule-trigger graph.
type triggerEdge struct {
	from, to int  // indices in checker.rules
	sync     bool // true for LAT-eviction edges, false for timer edges
	via      string
}

// checkTriggers builds the trigger graph and reports cycles and
// excessive synchronous nesting depth.
func (c *checker) checkTriggers() {
	edges := c.triggerEdges()
	if len(edges) == 0 {
		return
	}
	maxDepth := c.set.MaxTriggerDepth
	if maxDepth <= 0 {
		maxDepth = DefaultMaxTriggerDepth
	}

	// Adjacency, split by edge kind.
	n := len(c.rules)
	syncAdj := make([][]triggerEdge, n)
	allAdj := make([][]triggerEdge, n)
	for _, e := range edges {
		allAdj[e.from] = append(allAdj[e.from], e)
		if e.sync {
			syncAdj[e.from] = append(syncAdj[e.from], e)
		}
	}

	// Acyclic: bound the deepest synchronous chain.
	if depth, path, cyclic := longestChain(syncAdj); !cyclic && depth > maxDepth && path[0] >= c.first {
		c.report(Diagnostic{Rule: c.rules[path[0]].Name, Analysis: "trigger", Severity: Warning, Pos: -1,
			Message: fmt.Sprintf("synchronous trigger chain of depth %d exceeds the nesting bound %d: %s",
				depth, maxDepth, c.describePath(path))})
	}

	for u := c.first; u < n; u++ {
		if cyc := cycleThrough(u, syncAdj); cyc != nil {
			// Unbounded same-thread recursion.
			c.report(Diagnostic{Rule: c.rules[u].Name, Analysis: "trigger", Severity: Error, Pos: -1,
				Message: "synchronous trigger cycle (LAT eviction re-dispatches on the inserting thread): " + c.describeCycle(cyc)})
		} else if cyc := cycleThrough(u, allAdj); cyc != nil {
			// Not on a synchronous cycle, so this one crosses a timer
			// edge: a self-sustaining feedback loop.
			c.report(Diagnostic{Rule: c.rules[u].Name, Analysis: "trigger", Severity: Warning, Pos: -1,
				Message: "rule-trigger cycle through timer alarms (self-sustaining feedback loop): " + c.describeCycle(cyc)})
		}
	}
}

// triggerEdges derives the graph's edges from the rules' actions.
func (c *checker) triggerEdges() []triggerEdge {
	// Subscribers per event class.
	var timerRules, evictRules []int
	for i, r := range c.rules {
		switch r.Event {
		case monitor.EvTimerAlarm:
			timerRules = append(timerRules, i)
		case monitor.EvLATRowEvicted:
			evictRules = append(evictRules, i)
		}
	}
	var edges []triggerEdge
	for i, r := range c.rules {
		for _, a := range r.Actions {
			switch x := a.(type) {
			case *rules.SetTimerAction:
				if x.Count == 0 {
					continue // disarms: raises nothing
				}
				for _, j := range timerRules {
					edges = append(edges, triggerEdge{from: i, to: j, sync: false,
						via: "Set(" + x.Timer + ")"})
				}
			case *rules.InsertAction:
				spec, ok := c.lats[x.LAT]
				if !ok || (spec.MaxRows == 0 && spec.MaxBytes == 0) {
					continue // unbounded LATs never evict
				}
				for _, j := range evictRules {
					edges = append(edges, triggerEdge{from: i, to: j, sync: true,
						via: "Insert(" + x.LAT + ")"})
				}
			}
		}
	}
	return edges
}

// cycleThrough returns a shortest cycle through u (as a node sequence
// starting at u, u repeated implicitly), or nil. Breadth-first in edge
// order, so the result is deterministic.
func cycleThrough(u int, adj [][]triggerEdge) []int {
	parent := map[int]int{u: -1}
	queue := []int{u}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		for _, e := range adj[w] {
			if e.to == u {
				var cyc []int
				for x := w; x >= 0; x = parent[x] {
					cyc = append(cyc, x)
				}
				slices.Reverse(cyc)
				return cyc
			}
			if _, seen := parent[e.to]; !seen {
				parent[e.to] = w
				queue = append(queue, e.to)
			}
		}
	}
	return nil
}

// longestChain reports whether the graph has a cycle and, when it has
// none, its longest path length (in edges) and one maximal path.
func longestChain(adj [][]triggerEdge) (depth int, path []int, cyclic bool) {
	n := len(adj)
	memo := make([]int, n) // longest chain starting at node, -1 = unknown
	next := make([]int, n) // successor on that chain
	onPath := make([]bool, n)
	for i := range memo {
		memo[i], next[i] = -1, -1
	}
	var dfs func(u int) int
	dfs = func(u int) int {
		if onPath[u] {
			cyclic = true
			return 0
		}
		if memo[u] >= 0 {
			return memo[u]
		}
		onPath[u] = true
		best := 0
		for _, e := range adj[u] {
			if d := dfs(e.to) + 1; d > best {
				best = d
				next[u] = e.to
			}
		}
		onPath[u] = false
		memo[u] = best
		return best
	}
	bestDepth, bestStart := 0, -1
	for i := 0; i < n; i++ {
		if d := dfs(i); d > bestDepth {
			bestDepth, bestStart = d, i
		}
	}
	if cyclic || bestStart < 0 {
		return 0, nil, cyclic
	}
	for u := bestStart; u >= 0; u = next[u] {
		path = append(path, u)
	}
	return bestDepth, path, cyclic
}

func (c *checker) describeCycle(cyc []int) string {
	names := make([]string, 0, len(cyc)+1)
	for _, i := range cyc {
		names = append(names, fmt.Sprintf("%q", c.rules[i].Name))
	}
	names = append(names, fmt.Sprintf("%q", c.rules[cyc[0]].Name))
	return strings.Join(names, " → ")
}

func (c *checker) describePath(path []int) string {
	names := make([]string, 0, len(path))
	for _, i := range path {
		names = append(names, fmt.Sprintf("%q", c.rules[i].Name))
	}
	return strings.Join(names, " → ")
}

// checkShadow finds duplicate and shadowed rules: rules on the same
// event with the same canonical condition all fire on the same events,
// so identical actions mean a pure duplicate (double-firing side
// effects) and differing actions likely mean one rule was meant to
// replace the other. Each added rule is compared with the earlier rules
// on its event; the first match is the rule it repeats.
func (c *checker) checkShadow() {
	for i := c.first; i < len(c.rules); i++ {
		r := c.rules[i]
		for _, first := range c.rules[:i] {
			if first.Event != r.Event || first.CanonicalCondition() != r.CanonicalCondition() {
				continue
			}
			if actionsSignature(r.Actions) == actionsSignature(first.Actions) {
				c.report(Diagnostic{Rule: r.Name, Analysis: "shadow", Severity: Error, Pos: -1,
					Message: fmt.Sprintf("duplicate of rule %q (same event, condition and actions): every firing runs the actions twice", first.Name)})
			} else {
				c.report(Diagnostic{Rule: r.Name, Analysis: "shadow", Severity: Warning, Pos: -1,
					Message: fmt.Sprintf("shadows rule %q: same event %s and condition, different actions — both fire on every match", first.Name, r.Event)})
			}
			break
		}
	}
}

// actionsSignature renders an action list canonically via Describe.
func actionsSignature(actions []rules.Action) string {
	parts := make([]string, len(actions))
	for i, a := range actions {
		parts[i] = a.Describe()
	}
	return strings.Join(parts, "; ")
}
