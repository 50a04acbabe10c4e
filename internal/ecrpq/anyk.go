package ecrpq

// Incremental any-k ranked enumeration (ROADMAP item 3). The legacy ranked
// path drained the whole enumeration and sorted it before serving row one;
// AnyK replaces the drain with a best-first search over partial assignments,
// Lawler-style: the answer space is partitioned by the rank of the extension
// chosen at each join constraint, every node of the partition tree is pushed
// exactly once, and the priority key of a node is
//
//	cost(determined constraints) + lb(remaining constraints)
//
// where lb is an admissible per-suffix lower bound — each undetermined
// constraint contributes its global minimum witness contribution (the
// cheapest level any binding of that atom carries; see EdgeRel.MinDist and
// edgeMinCost). Keys are monotone along tree edges: a child determines one
// more constraint at actual cost d ≥ that constraint's minimum, so pops come
// off the heap in nondecreasing key order and a complete assignment (whose
// key IS its exact cost, the suffix bound being empty) is emitted in
// nondecreasing cost. Top-k therefore costs O(k) tree expansions after the
// first constraint's extension list is built — no full drain.
//
// Extension lists are computed lazily per (constraint, bound-variable
// values) and memoized: a popped node materializes the cost-sorted list of
// ways to satisfy its next constraint, pushes the child for its rank and one
// sibling for rank+1, and nothing else. Emission is NOT deduplicated (the
// same tuple may complete under several assignments, each with its own
// cost); the cxrpq layer keeps the first — i.e. cheapest — occurrence,
// which is exact precisely because costs are nondecreasing.
//
// Multiple roots (VSF branch combos, bounded-engine variable mappings) share
// one heap, so the merged emission across all of them is globally
// nondecreasing too.

import (
	"encoding/binary"
	"sort"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
)

// anykExt is one way to satisfy a constraint: the constraint's witness
// contribution and the values of its variable set (rt.vars[ci]) under that
// choice. Lists of these are cost-sorted and memoized per root.
type anykExt struct {
	d    int32
	vals []int
}

// anykRoot is one independent enumeration source feeding the shared heap:
// a join over one atom list (the evaluator's atoms for AddQuery, atoms over
// materialized EdgeRels for AddJoin), whose extension lists come from the
// atoms' binding steps (join.go).
type anykRoot struct {
	bud   *engine.Budget
	atoms []joinAtom
	out   []string
	vars  [][]string // per order position: the atom's variable set (unique)
	lb    []int32    // lb[i] = admissible lower bound of atoms i..end; lb[len] = 0
	memo  map[string][]anykExt

	hint    []int     // per order position: last extension-list length (presize hint)
	scratch []anykExt // counting-sort scratch, reused across extends
}

// anykNode is one node of the Lawler partition tree: constraints before ci
// are determined in assign at total witness cost cost, and the node stands
// for choosing extension rank of constraint ci (a node with ci == len(atoms)
// is a complete assignment). assign is shared with the node's siblings —
// only child creation copies it.
type anykNode struct {
	root   *anykRoot
	ci     int
	rank   int
	cost   int32
	assign map[string]int
}

// AnyK is the incremental ranked enumerator. Zero or more roots are added
// (AddQuery/AddJoin), then Next pops complete assignments in globally
// nondecreasing witness cost until the space is exhausted or the budget
// cancels. Not safe for concurrent use.
type AnyK struct {
	bud   *engine.Budget
	h     wHeap
	nodes []anykNode
	ord   int64
}

// NewAnyK returns an enumerator under an optional budget (nil = unlimited),
// polled once per pop and inside every extension computation.
func NewAnyK(bud *engine.Budget) *AnyK {
	return &AnyK{bud: bud}
}

func (a *AnyK) pushNode(nd anykNode, key int32) {
	a.nodes = append(a.nodes, nd)
	a.ord++
	a.h.push(wItem{cost: key, ord: a.ord, idx: len(a.nodes) - 1})
}

func uniqueVars(names ...string) []string {
	out := names[:0:0]
	for _, z := range names {
		dup := false
		for _, y := range out {
			if y == z {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, z)
		}
	}
	return out
}

// edgeMinCost is the admissible per-atom bound for an evaluator edge: 0 when
// the edge language accepts the empty word (a node can witness itself for
// free), otherwise the cheapest single traversal — 1 under unit cost, the
// minimum clamped symbol weight under a pluggable weight.
func (ev *evaluator) edgeMinCost(ei int) int32 {
	c := ev.ents[ei].cache
	if c.Final(c.Start()) {
		return 0
	}
	if ev.weight == nil {
		return 1
	}
	nSyms := ev.ix.NumSyms()
	if nSyms == 0 {
		return 0
	}
	min := ev.symCost(ev.ix.Sym(0))
	for s := int32(1); s < int32(nSyms); s++ {
		if w := ev.symCost(ev.ix.Sym(s)); w < min {
			min = w
		}
	}
	return min
}

// AddQuery adds a root enumerating q over db under the enumerator's
// budget, ranked, with an optional pluggable edge weight.
func (a *AnyK) AddQuery(q *Query, db *graph.DB, weight engine.Weight) error {
	ev, err := newEvaluator(q, db)
	if err != nil {
		return err
	}
	ev.bud, ev.ranked, ev.lazy, ev.weight = a.bud, true, true, weight
	a.addRoot(ev.constraintOrder(nil), nil, q.Pattern.Out)
	return nil
}

// AddJoin adds a root joining a relation-free pattern over materialized
// per-edge relations in the physical plan's order (nil spec falls back to
// the structural JoinOrder), with the variables of pre pre-bound. The
// relations should carry levels (RelationForW) for the costs to be
// meaningful; level-free relations enumerate at cost 0. A nil relation
// makes the join empty.
func (a *AnyK) AddJoin(g *pattern.Graph, rels []*EdgeRel, spec *planner.PlanSpec, pre map[string]int) {
	var order []int
	if spec != nil {
		order = spec.Order
	} else {
		order = JoinOrder(g, pre)
	}
	atoms := make([]joinAtom, len(order))
	for ci, ei := range order {
		if rels[ei] == nil {
			return
		}
		atoms[ci] = relAtom(g.Edges[ei], rels[ei], nil)
	}
	a.addRoot(atoms, pre, g.Out)
}

// addRoot pushes the partition-tree root of a join over atoms.
func (a *AnyK) addRoot(atoms []joinAtom, pre map[string]int, out []string) {
	rt := &anykRoot{
		bud:   a.bud,
		atoms: atoms,
		out:   out,
		vars:  make([][]string, len(atoms)),
		lb:    make([]int32, len(atoms)+1),
		memo:  map[string][]anykExt{},
		hint:  make([]int, len(atoms)),
	}
	for i := len(atoms) - 1; i >= 0; i-- {
		rt.vars[i] = uniqueVars(atoms[i].vars()...)
		rt.lb[i] = rt.lb[i+1] + atoms[i].minCost()
	}
	assign := make(map[string]int, len(pre))
	for z, v := range pre {
		assign[z] = v
	}
	a.pushNode(anykNode{root: rt, assign: assign}, rt.lb[0])
}

// extKey identifies an extension list: the constraint position plus the
// bound-or-not value of each of its variables (the only parts of assign the
// binding step reads).
func (rt *anykRoot) extKey(ci int, assign map[string]int) string {
	buf := make([]byte, 0, 2+5*len(rt.vars[ci]))
	buf = binary.AppendVarint(buf, int64(ci))
	for _, z := range rt.vars[ci] {
		v, ok := assign[z]
		if !ok {
			v = -2
		}
		buf = binary.AppendVarint(buf, int64(v))
	}
	return string(buf)
}

// extend materializes (or recalls) the cost-sorted extension list of
// constraint ci under assign. A budget-canceled computation may be partial
// and is not memoized.
func (rt *anykRoot) extend(ci int, assign map[string]int) []anykExt {
	key := rt.extKey(ci, assign)
	if exts, ok := rt.memo[key]; ok {
		return exts
	}
	vars := rt.vars[ci]
	// Presize from the previous list of the same constraint: siblings in the
	// partition tree materialize lists of similar length, and append-doubling
	// on the ~1k-wide cohort lists used to dominate allocation churn.
	h := rt.hint[ci]
	exts := make([]anykExt, 0, h)
	slab := make([]int, 0, h*len(vars)) // one backing array for every value tuple
	rt.atoms[ci].bind(assign, nil, rt.bud, func(d int) bool {
		base := len(slab)
		for _, z := range vars {
			slab = append(slab, assign[z]) // every atom var is bound at yield time
		}
		exts = append(exts, anykExt{d: int32(d), vals: slab[base:len(slab):len(slab)]})
		return true
	})
	rt.hint[ci] = len(exts)
	rt.sortExts(exts)
	if !rt.bud.Canceled() {
		rt.memo[key] = exts
		rt.prefetchNext(ci, exts, assign)
	}
	return exts
}

// prefetchNext batches the per-source sweeps the cheapest cohort of a fresh
// extension list is about to trigger. Every extension tied at the minimum
// cost spawns a child with the same heap key, so before the enumerator can
// emit its first row at that key it expands all of them — and when the next
// constraint is an edge with exactly one endpoint bound, each expansion is
// one single-source reachability sweep. Issuing those sweeps individually
// wastes the sharded multi-source kernel; this collects the cohort's
// distinct sources and fills the evaluator's memos in one ReachBatchEx
// call. Extensions beyond the cheapest cohort are left to fault in lazily —
// under distinct costs (e.g. pluggable weights) the cohort is one node and
// the prefetch degenerates to a no-op, as it is for materialized relations.
func (rt *anykRoot) prefetchNext(ci int, exts []anykExt, assign map[string]int) {
	if ci+1 >= len(rt.atoms) || len(exts) < 2 {
		return
	}
	e, ok := rt.atoms[ci+1].(*binAtom)
	if !ok {
		return
	}
	pos := func(z string) int {
		for i, y := range rt.vars[ci] {
			if y == z {
				return i
			}
		}
		return -1
	}
	_, fromBound := assign[e.from]
	_, toBound := assign[e.to]
	fi, ti := pos(e.from), pos(e.to)
	fromKnown, toKnown := fromBound || fi >= 0, toBound || ti >= 0
	if fromKnown == toKnown {
		return // both or neither endpoint determined: not a single-source sweep
	}
	idx := fi
	if toKnown {
		idx = ti
	}
	if idx < 0 {
		return // the determined endpoint is already fixed in assign: one source
	}
	cohort := exts[0].d
	seen := make(map[int]bool, len(exts))
	srcs := make([]int, 0, len(exts))
	for _, x := range exts {
		if x.d != cohort {
			break // sorted: the cheapest cohort is a prefix
		}
		if v := x.vals[idx]; !seen[v] {
			seen[v] = true
			srcs = append(srcs, v)
		}
	}
	if len(srcs) < 2 {
		return
	}
	e.rel.prefetch(srcs, fromKnown)
}

// sortExts orders an extension list by cost, stably (within a cost, the
// binding steps' deterministic enumeration order is preserved — rank
// indexing and cursor fast-forward both depend on it). Costs are small BFS
// levels or clamped weighted distances, so the common case is a stable
// counting sort into a root-owned scratch buffer — extension sorting used to
// dominate the time-to-first-row of cohort-heavy unit-cost queries through
// reflect-based SliceStable, and per-call scratch allocation through the
// zeroing of pointer-bearing memory. Wide or negative cost ranges fall back
// to the comparison sort.
func (rt *anykRoot) sortExts(exts []anykExt) {
	if len(exts) < 2 {
		return
	}
	maxD := int32(0)
	narrow := true
	for i := range exts {
		d := exts[i].d
		if d < 0 || d > 1<<20 {
			narrow = false
			break
		}
		if d > maxD {
			maxD = d
		}
	}
	if !narrow || int(maxD) > 4*len(exts)+1024 {
		sort.SliceStable(exts, func(i, j int) bool { return exts[i].d < exts[j].d })
		return
	}
	counts := make([]int32, maxD+2)
	for i := range exts {
		counts[exts[i].d+1]++
	}
	for d := 1; d < len(counts); d++ {
		counts[d] += counts[d-1]
	}
	if cap(rt.scratch) < len(exts) {
		rt.scratch = make([]anykExt, len(exts))
	}
	out := rt.scratch[:len(exts)]
	for i := range exts {
		d := exts[i].d
		out[counts[d]] = exts[i]
		counts[d]++
	}
	copy(exts, out)
}

// Next pops the next complete assignment's output projection and exact
// witness cost, in globally nondecreasing cost across every root. ok is
// false when the space is exhausted or the budget canceled — the caller
// distinguishes the two through the budget's Err.
func (a *AnyK) Next() (pattern.Tuple, int, bool) {
	for len(a.h) > 0 {
		if a.bud.Canceled() {
			return nil, 0, false
		}
		it := a.h.pop()
		nd := a.nodes[it.idx] // copy: pushNode below may grow the slab
		rt := nd.root
		if nd.ci == len(rt.atoms) {
			t := make(pattern.Tuple, len(rt.out))
			ok := true
			for i, z := range rt.out {
				v, bound := nd.assign[z]
				if !bound {
					ok = false // output var unconstrained; Validate prevents this
					break
				}
				t[i] = v
			}
			if ok {
				return t, int(nd.cost), true
			}
			continue
		}
		exts := rt.extend(nd.ci, nd.assign)
		if nd.rank >= len(exts) {
			continue
		}
		ext := exts[nd.rank]
		if nd.rank+1 < len(exts) {
			a.pushNode(
				anykNode{root: rt, ci: nd.ci, rank: nd.rank + 1, cost: nd.cost, assign: nd.assign},
				nd.cost+exts[nd.rank+1].d+rt.lb[nd.ci+1])
		}
		child := anykNode{root: rt, ci: nd.ci + 1, cost: nd.cost + ext.d}
		child.assign = make(map[string]int, len(nd.assign)+len(ext.vals))
		for z, v := range nd.assign {
			child.assign[z] = v
		}
		for i, z := range rt.vars[nd.ci] {
			child.assign[z] = ext.vals[i]
		}
		a.pushNode(child, child.cost+rt.lb[nd.ci+1])
	}
	return nil, 0, false
}
