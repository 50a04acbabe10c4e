package ecrpq

// The backtracking join. Every tractable fragment is evaluated the same
// way: one reachability relation per atom over the product of the graph and
// the atom's automaton, joined conjunctively over the node variables. The
// evaluator's streams, the bounded engine's leaf joins over materialized
// relations, any-k's extension lists and the witness search all step atoms
// through the code below:
//
//   - atomRel is the binary-atom relation a join reads: the evaluator's lazy
//     memoized reachability (lazyRel, engine.go) or a materialized EdgeRel
//     (atomrel.go), the latter optionally restricted to the candidate
//     domains of an arc-consistency pass;
//   - binAtom.bind is the one binding step of a binary atom (both ends
//     bound, one bound, neither), with the dead-endpoint cuts of cuts.go;
//     groupAtom (engine.go) is the second atom kind, a relation group bound
//     through the synchronized product;
//   - backtrack is the one backtracking loop: it owns the atom order, the
//     projection-cut schedule, the per-step budget poll and the output
//     projection.

import (
	"sort"

	"cxrpq/internal/engine"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
)

// joinAtom is one constraint of a backtracking join.
type joinAtom interface {
	// vars lists the node variables the atom reads or binds.
	vars() []string
	// minCost is an admissible lower bound on the cost of any binding
	// (any-k's suffix bounds).
	minCost() int32
	// bind enumerates the atom's satisfying bindings over assign, applying
	// each to assign while cont runs on its witness cost and undoing it
	// afterwards. A false return from cont ends the enumeration. dead holds
	// the variables the projection cuts settle by one witness (nil for
	// none); bud is polled between batches of bindings.
	bind(assign map[string]int, dead map[string]bool, bud *engine.Budget, cont func(cost int) bool)
}

// atomRel is the relation of one binary atom from→to, read node by node.
type atomRel interface {
	// next returns the sorted targets (fwd) or sources of x, with the
	// per-row witness costs (nil when every row costs 0).
	next(x int, fwd bool) ([]int, []int32)
	// hasPath reports whether x has a target (fwd) or source, without
	// enumerating them where the relation can probe.
	hasPath(x int, fwd bool) bool
	// prefetch announces that next(x, fwd) is about to be read for every x
	// in xs, so a lazy relation can fill them in one batched sweep.
	prefetch(xs []int, fwd bool)
	minCost() int32
}

// binAtom is a binary atom: a relation between the variables from and to
// over n nodes, whose endpoints only take values in dom (nil: any node).
type binAtom struct {
	from, to string
	n        int
	rel      atomRel
	dom      *planner.Domains
}

func (a *binAtom) vars() []string { return []string{a.from, a.to} }

func (a *binAtom) minCost() int32 { return a.rel.minCost() }

// rowCost returns the cost of row i of a next list.
func rowCost(ds []int32, i int) int {
	if ds == nil {
		return 0
	}
	return int(ds[i])
}

// findRow reports whether v is among the rows ws, with its cost.
func findRow(ws []int, ds []int32, v int) (int, bool) {
	i := sort.SearchInts(ws, v)
	if i < len(ws) && ws[i] == v {
		return rowCost(ds, i), true
	}
	return 0, false
}

func (a *binAtom) bind(assign map[string]int, dead map[string]bool, bud *engine.Budget, cont func(cost int) bool) {
	u, uok := assign[a.from]
	v, vok := assign[a.to]
	switch {
	case uok && vok:
		ws, ds := a.rel.next(u, true)
		if d, ok := findRow(ws, ds, v); ok {
			cont(d)
		}
	case uok:
		a.walk(u, true, a.to, assign, dead[a.to], cont)
	case vok:
		a.walk(v, false, a.from, assign, dead[a.from], cont)
	default:
		a.sweep(assign, dead, bud, cont)
	}
}

// walk binds the unbound endpoint z to each target (fwd) or source of x in
// its domain. A dead z is settled by one witness: the existence probe when
// no domain restricts it.
func (a *binAtom) walk(x int, fwd bool, z string, assign map[string]int, dead bool, cont func(cost int) bool) {
	if dead && a.dom == nil {
		if a.rel.hasPath(x, fwd) {
			cont(0)
		}
		return
	}
	ws, ds := a.rel.next(x, fwd)
	for i, w := range ws {
		if !a.dom.Has(z, w) {
			continue
		}
		assign[z] = w
		if !cont(rowCost(ds, i)) || dead {
			break
		}
	}
	delete(assign, z)
}

// sweep binds both endpoints, walking the sources in escalating chunks (1,
// 4, 16, 64, then 256 wide) so a lazy relation's first row costs one small
// batched sweep while the geometric growth keeps a full drain within a
// constant factor of one sweep over every source. The budget is polled per
// chunk. A dead source is bound by its first witness per target (targets
// already continued are skipped); a dead target by the first target per
// source.
func (a *binAtom) sweep(assign map[string]int, dead map[string]bool, bud *engine.Budget, cont func(cost int) bool) {
	deadFrom, deadTo := dead[a.from], dead[a.to]
	done := newTargetSet(dead, a.from, a.to, a.n)
	srcs := make([]int, 0, 256)
	more := true
	for lo, chunk := 0, 1; lo < a.n && more && !bud.Canceled(); chunk = min(4*chunk, 256) {
		hi := min(lo+chunk, a.n)
		srcs = srcs[:0]
		for u := lo; u < hi; u++ {
			srcs = append(srcs, u)
		}
		a.rel.prefetch(srcs, true)
		for u := lo; u < hi && more; u++ {
			if !a.dom.Has(a.from, u) {
				continue
			}
			ws, ds := a.rel.next(u, true)
			if len(ws) == 0 {
				continue
			}
			assign[a.from] = u
			if a.from == a.to {
				if d, ok := findRow(ws, ds, u); ok {
					more = cont(d) && !deadFrom
				}
				continue
			}
			for i, w := range ws {
				if !a.dom.Has(a.to, w) || !done.admit(w) {
					continue
				}
				assign[a.to] = w
				if !cont(rowCost(ds, i)) {
					more = false
					break
				}
				if deadTo {
					more = !deadFrom
					break
				}
			}
			delete(assign, a.to)
		}
		lo = hi
	}
	delete(assign, a.from)
}

// backtrack runs the backtracking join of atoms, in order, with the
// variables of pre pre-bound, yielding each completed assignment's
// projection on out with its summed witness cost. A false return from yield
// or a canceled budget, polled on every step, unwinds the join.
//
// With cut set the projection cuts of cuts.go apply. They skip only
// repeated tuples, so the distinct tuples and the order of their first
// appearance are those of the uncut join; ranked joins run uncut.
func backtrack(atoms []joinAtom, pre map[string]int, out []string, cut bool, bud *engine.Budget, yield StreamFunc) {
	vars := make([][]string, len(atoms))
	for ci, a := range atoms {
		vars[ci] = a.vars()
	}
	cuts := projectionCuts(vars, pre, out, !cut)
	assign := make(map[string]int, len(pre))
	for z, v := range pre {
		assign[z] = v
	}
	stop := false
	// Per-level state: rec(ci) has at most one active frame per level, so
	// each level's continuation is built once and keeps its running cost
	// and completion flag here. A closure per step would be heap-allocated
	// on every binding, since it escapes through the atom interface.
	costs := make([]int, len(atoms))
	found := make([]bool, len(atoms))
	conts := make([]func(d int) bool, len(atoms))
	// rec reports whether the subtree below atom ci completed at least once.
	var rec func(ci, cost int) bool
	rec = func(ci, cost int) bool {
		if stop {
			return false
		}
		if ci == len(atoms) {
			t := make(pattern.Tuple, len(out))
			for i, z := range out {
				v, ok := assign[z]
				if !ok {
					return false // output var not constrained; Validate prevents this
				}
				t[i] = v
			}
			if !yield(t, cost) {
				stop = true
			}
			return true
		}
		if bud.Canceled() {
			stop = true
			return false
		}
		costs[ci], found[ci] = cost, false
		atoms[ci].bind(assign, cuts.dead[ci], bud, conts[ci])
		return found[ci]
	}
	for ci := range atoms {
		conts[ci] = func(d int) bool {
			if rec(ci+1, costs[ci]+d) {
				found[ci] = true
			}
			return !stop && !(found[ci] && ci >= cuts.exist)
		}
	}
	rec(0, 0)
}
