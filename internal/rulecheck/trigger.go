package rulecheck

import (
	"fmt"
	"sort"
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
// The analysis reports synchronous cycles as errors, asynchronous
// cycles as warnings, and synchronous chains deeper than the set's
// nesting bound (MaxTriggerDepth) as warnings.

// triggerEdge is one edge of the rule-trigger graph.
type triggerEdge struct {
	from, to int  // rule indices in Set.Rules
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
	n := len(c.set.Rules)
	syncAdj := make([][]triggerEdge, n)
	allAdj := make([][]triggerEdge, n)
	for _, e := range edges {
		allAdj[e.from] = append(allAdj[e.from], e)
		if e.sync {
			syncAdj[e.from] = append(syncAdj[e.from], e)
		}
	}

	// Synchronous cycles: unbounded same-thread recursion.
	if cyc := findCycle(n, syncAdj); cyc != nil {
		c.report(Diagnostic{Rule: c.set.Rules[cyc[0]].Name, Analysis: "trigger", Severity: Error, Pos: -1,
			Message: "synchronous trigger cycle (LAT eviction re-dispatches on the inserting thread): " + c.describeCycle(cyc, syncAdj)})
	} else {
		// Acyclic: bound the deepest synchronous chain.
		depth, path := longestChain(n, syncAdj)
		if depth > maxDepth {
			c.report(Diagnostic{Rule: c.set.Rules[path[0]].Name, Analysis: "trigger", Severity: Warning, Pos: -1,
				Message: fmt.Sprintf("synchronous trigger chain of depth %d exceeds the nesting bound %d: %s",
					depth, maxDepth, c.describePath(path))})
		}
	}

	// Mixed/asynchronous cycles: self-sustaining feedback loops.
	if cyc := findCycle(n, allAdj); cyc != nil && !cycleAllSync(cyc, allAdj) {
		c.report(Diagnostic{Rule: c.set.Rules[cyc[0]].Name, Analysis: "trigger", Severity: Warning, Pos: -1,
			Message: "rule-trigger cycle through timer alarms (self-sustaining feedback loop): " + c.describeCycle(cyc, allAdj)})
	}
}

// triggerEdges derives the graph's edges from the rules' actions.
func (c *checker) triggerEdges() []triggerEdge {
	// Subscribers per event class.
	var timerRules, evictRules []int
	for i := range c.set.Rules {
		switch c.set.Rules[i].Event {
		case monitor.EvTimerAlarm:
			timerRules = append(timerRules, i)
		case monitor.EvLATRowEvicted:
			evictRules = append(evictRules, i)
		}
	}
	var edges []triggerEdge
	for i := range c.set.Rules {
		for _, a := range c.set.Rules[i].Actions {
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

// findCycle returns one cycle (as a node sequence, first node repeated
// implicitly) or nil. Deterministic: DFS in index order.
func findCycle(n int, adj [][]triggerEdge) []int {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = grey
		for _, e := range adj[u] {
			v := e.to
			if color[v] == grey {
				// Unwind u → … → v.
				cycle = []int{v}
				for w := u; w != v; w = parent[w] {
					cycle = append(cycle, w)
				}
				// Reverse into forward order starting at v.
				for l, r := 1, len(cycle)-1; l < r; l, r = l+1, r-1 {
					cycle[l], cycle[r] = cycle[r], cycle[l]
				}
				return true
			}
			if color[v] == white {
				parent[v] = u
				if dfs(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for i := 0; i < n; i++ {
		if color[i] == white && dfs(i) {
			return cycle
		}
	}
	return nil
}

// cycleAllSync reports whether every consecutive hop of the cycle can be
// made over synchronous edges (then the sync-cycle error already covers
// it).
func cycleAllSync(cyc []int, adj [][]triggerEdge) bool {
	for i := range cyc {
		u, v := cyc[i], cyc[(i+1)%len(cyc)]
		syncHop := false
		for _, e := range adj[u] {
			if e.to == v && e.sync {
				syncHop = true
				break
			}
		}
		if !syncHop {
			return false
		}
	}
	return true
}

// longestChain returns the longest path length (in edges) of an acyclic
// graph and one maximal path.
func longestChain(n int, adj [][]triggerEdge) (int, []int) {
	memo := make([]int, n) // longest chain starting at node, -1 = unknown
	next := make([]int, n) // successor on that chain
	for i := range memo {
		memo[i], next[i] = -1, -1
	}
	var dfs func(u int) int
	dfs = func(u int) int {
		if memo[u] >= 0 {
			return memo[u]
		}
		memo[u] = 0
		best := 0
		for _, e := range adj[u] {
			if d := dfs(e.to) + 1; d > best {
				best = d
				next[u] = e.to
			}
		}
		memo[u] = best
		return best
	}
	bestDepth, bestStart := 0, -1
	for i := 0; i < n; i++ {
		if d := dfs(i); d > bestDepth {
			bestDepth, bestStart = d, i
		}
	}
	if bestStart < 0 {
		return 0, nil
	}
	var path []int
	for u := bestStart; u >= 0; u = next[u] {
		path = append(path, u)
	}
	return bestDepth, path
}

func (c *checker) describeCycle(cyc []int, adj [][]triggerEdge) string {
	names := make([]string, 0, len(cyc)+1)
	for _, i := range cyc {
		names = append(names, fmt.Sprintf("%q", c.set.Rules[i].Name))
	}
	names = append(names, fmt.Sprintf("%q", c.set.Rules[cyc[0]].Name))
	return strings.Join(names, " → ")
}

func (c *checker) describePath(path []int) string {
	names := make([]string, 0, len(path))
	for _, i := range path {
		names = append(names, fmt.Sprintf("%q", c.set.Rules[i].Name))
	}
	return strings.Join(names, " → ")
}

// checkShadow finds duplicate and shadowed rules: rules on the same
// event with the same normalized condition all fire on the same events,
// so identical actions mean a pure duplicate (double-firing side
// effects) and differing actions likely mean one rule was meant to
// replace the other.
func (c *checker) checkShadow() {
	type key struct {
		event monitor.Event
		cond  string
	}
	groups := make(map[key][]int)
	var order []key
	for i := range c.set.Rules {
		r := &c.set.Rules[i]
		k := key{event: r.Event, cond: normalizedCond(r)}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	sort.SliceStable(order, func(a, b int) bool { return groups[order[a]][0] < groups[order[b]][0] })
	for _, k := range order {
		idxs := groups[k]
		if len(idxs) < 2 {
			continue
		}
		first := &c.set.Rules[idxs[0]]
		for _, i := range idxs[1:] {
			r := &c.set.Rules[i]
			if actionsSignature(r.Actions) == actionsSignature(first.Actions) {
				c.report(Diagnostic{Rule: r.Name, Analysis: "shadow", Severity: Error, Pos: -1,
					Message: fmt.Sprintf("duplicate of rule %q (same event, condition and actions): every firing runs the actions twice", first.Name)})
			} else {
				c.report(Diagnostic{Rule: r.Name, Analysis: "shadow", Severity: Warning, Pos: -1,
					Message: fmt.Sprintf("shadows rule %q: same event %s and condition, different actions — both fire on every match", first.Name, r.Event)})
			}
		}
	}
}

// normalizedCond renders a rule's condition canonically (the parser's
// String() fully parenthesizes, so textual equality is structural
// equality up to literal spelling).
func normalizedCond(r *RuleDef) string {
	if r.Cond == nil {
		return ""
	}
	return r.Cond.String()
}

// actionsSignature renders an action list canonically via Describe.
func actionsSignature(actions []rules.Action) string {
	parts := make([]string, len(actions))
	for i, a := range actions {
		parts[i] = a.Describe()
	}
	return strings.Join(parts, "; ")
}
