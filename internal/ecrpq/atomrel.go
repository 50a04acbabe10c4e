package ecrpq

import (
	"sort"
	"sync"

	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
	"cxrpq/internal/xregex"
)

// EdgeRel is the materialized binary reachability relation of one classical
// regular expression over a database: Forward(u) lists (sorted) the nodes v
// such that some path u→v matches the expression. It is the unit of sharing
// of the bounded-evaluation engine: exponentially many variable mappings of
// a CXRPQ^≤k enumeration instantiate the same classical label, and all of
// them join over the same EdgeRel instead of re-running the product search.
// An EdgeRel is immutable after RelationFor returns and safe for concurrent
// readers.
type EdgeRel struct {
	fwd  [][]int
	lev  [][]int32 // parallel to fwd: BFS first-hit level per target (nil unless built with levels)
	size int

	revOnce sync.Once
	rev     [][]int
	rlev    [][]int32 // parallel to rev when the relation carries levels

	estOnce sync.Once
	est     planner.Estimate

	minOnce sync.Once
	min     int32
}

// RelationFor computes the full relation of label over db with the sharded
// multi-source kernel (engine.ReachBatch over db's degree-balanced
// partition — one batched product sweep per 64 sources instead of a
// per-source BFS fan), reusing the process-wide compiled-NFA/subset caches.
// The ∅ expression short-circuits to the empty relation without touching
// the automata layer.
func RelationFor(db *graph.DB, label xregex.Node, sigma []rune) (*EdgeRel, error) {
	return RelationForEx(db, label, sigma, nil, false)
}

// RelationForEx is RelationFor with streaming extensions: an optional
// budget polled at BFS-level granularity, and first-hit level capture for
// ranked enumeration (EdgeRel.Dist). A budget-truncated sweep returns
// (nil, engine.ErrCanceled) rather than a partial relation — relations are
// cross-query building blocks and an incomplete one must never be shared.
func RelationForEx(db *graph.DB, label xregex.Node, sigma []rune, bud *engine.Budget, levels bool) (*EdgeRel, error) {
	return RelationForW(db, label, sigma, bud, levels, nil)
}

// RelationForW is RelationForEx under a pluggable edge weight: the captured
// per-pair levels (EdgeRel.Dist) become minimum total edge weights instead of
// edge counts (weighted sweeps run the per-source Dijkstra fan — see
// engine.BatchOpts.Weight). A non-nil weight implies level capture. Weighted
// relations must NEVER enter cross-query relation caches: a weight function
// has no cache identity, so two queries with distinct weights would collide
// on the same label key. Callers build them per query.
func RelationForW(db *graph.DB, label xregex.Node, sigma []rune, bud *engine.Budget, levels bool, w engine.Weight) (*EdgeRel, error) {
	if w != nil {
		levels = true
	}
	n := db.NumNodes()
	r := &EdgeRel{fwd: make([][]int, n)}
	if levels {
		r.lev = make([][]int32, n)
	}
	if _, empty := label.(*xregex.Empty); empty {
		return r, nil
	}
	ent, err := compiledFor(label, sigma)
	if err != nil {
		return nil, err
	}
	ix := db.Index()
	srcs := make([]int, n)
	for i := range srcs {
		srcs[i] = i
	}
	res := engine.ReachBatchEx(ix, db.Partition(engine.Shards()), ent.cache, srcs, true,
		engine.BatchOpts{Budget: bud, Levels: levels, Weight: w})
	if res.Truncated {
		return nil, engine.ErrCanceled
	}
	for u, vs := range res.Hits {
		r.fwd[u] = vs
		r.size += len(vs)
	}
	if levels {
		copy(r.lev, res.Levs)
	}
	return r, nil
}

// LabelsSomePath reports whether label labels at least one path of db —
// whether RelationFor(db, label, sigma) would be non-empty — without
// building the relation: one multi-source product search with every node
// seeded (engine.AnyPath) that stops at the first accepting configuration.
// A budget that fires before the answer is known yields engine.ErrCanceled.
func LabelsSomePath(db *graph.DB, label xregex.Node, sigma []rune, bud *engine.Budget) (bool, error) {
	if _, empty := label.(*xregex.Empty); empty {
		return false, nil
	}
	ent, err := compiledFor(label, sigma)
	if err != nil {
		return false, err
	}
	srcs := make([]int, db.NumNodes())
	for i := range srcs {
		srcs[i] = i
	}
	if engine.AnyPath(db.Index(), ent.cache, srcs, true, bud) {
		return true, nil
	}
	if bud.Canceled() {
		return false, engine.ErrCanceled
	}
	return false, nil
}

// HasLevels reports whether the relation carries BFS first-hit levels
// (built by RelationForEx with levels, required for ranked joins).
func (r *EdgeRel) HasLevels() bool { return r.lev != nil }

// Dist returns the BFS level of (u, v) — the number of graph edges on a
// shortest path u→v matching the relation's label — or 0 when the relation
// was built without levels or the pair is absent.
func (r *EdgeRel) Dist(u, v int) int32 {
	if r.lev == nil || u < 0 || u >= len(r.fwd) {
		return 0
	}
	ws := r.fwd[u]
	i := sort.SearchInts(ws, v)
	if i < len(ws) && ws[i] == v {
		return r.lev[u][i]
	}
	return 0
}

// MinDist returns the minimum Dist over every pair in the relation — the
// cheapest single witness any binding of this atom can contribute. It is the
// atom's admissible lower bound for the any-k priority queue: an
// undetermined atom will cost at least MinDist, whatever binding the
// enumeration eventually picks. Relations without levels (or empty ones)
// report 0, which is trivially admissible.
func (r *EdgeRel) MinDist() int32 {
	r.minOnce.Do(func() {
		if r.lev == nil || r.size == 0 {
			return
		}
		min := int32(-1)
		for _, ls := range r.lev {
			for _, l := range ls {
				if min < 0 || l < min {
					min = l
				}
			}
		}
		if min > 0 {
			r.min = min
		}
	})
	return r.min
}

// Empty reports whether the relation holds for no pair at all.
func (r *EdgeRel) Empty() bool { return r.size == 0 }

// Size returns the number of pairs in the relation.
func (r *EdgeRel) Size() int { return r.size }

// NumNodes returns the number of database nodes the relation ranges over.
func (r *EdgeRel) NumNodes() int { return len(r.fwd) }

// Forward returns the sorted targets reachable from u (caller must not
// modify).
func (r *EdgeRel) Forward(u int) []int {
	if u < 0 || u >= len(r.fwd) {
		return nil
	}
	return r.fwd[u]
}

// Backward returns the sorted sources that reach v, building the reverse
// index from the forward lists on first use (no second automaton pass).
func (r *EdgeRel) Backward(v int) []int {
	us, _ := r.backward(v)
	return us
}

// backward is Backward plus the levels parallel to the sources (nil without
// levels).
func (r *EdgeRel) backward(v int) ([]int, []int32) {
	r.revOnce.Do(func() {
		r.rev = make([][]int, len(r.fwd))
		if r.lev != nil {
			r.rlev = make([][]int32, len(r.fwd))
		}
		for u, vs := range r.fwd {
			for i, w := range vs {
				r.rev[w] = append(r.rev[w], u) // u ascending ⇒ lists sorted
				if r.lev != nil {
					r.rlev[w] = append(r.rlev[w], r.lev[u][i])
				}
			}
		}
	})
	if v < 0 || v >= len(r.rev) {
		return nil, nil
	}
	if r.rlev == nil {
		return r.rev[v], nil
	}
	return r.rev[v], r.rlev[v]
}

// next, hasPath, prefetch and minCost make a materialized relation an
// atomRel (join.go): its rows are already computed, so prefetch has
// nothing to do.
func (r *EdgeRel) next(x int, fwd bool) ([]int, []int32) {
	if !fwd {
		return r.backward(x)
	}
	if r.lev == nil || x < 0 || x >= len(r.lev) {
		return r.Forward(x), nil
	}
	return r.Forward(x), r.lev[x]
}

func (r *EdgeRel) hasPath(x int, fwd bool) bool {
	ws, _ := r.next(x, fwd)
	return len(ws) > 0
}

func (r *EdgeRel) prefetch([]int, bool) {}

func (r *EdgeRel) minCost() int32 { return r.MinDist() }

// relAtom returns the binary join atom of edge e over relation r, its
// endpoints restricted to the candidate domains dom (nil: unrestricted).
func relAtom(e pattern.Edge, r *EdgeRel, dom *planner.Domains) *binAtom {
	return &binAtom{from: e.From, to: e.To, n: r.NumNodes(), rel: r, dom: dom}
}

// Has reports whether (u, v) is in the relation.
func (r *EdgeRel) Has(u, v int) bool {
	ws := r.Forward(u)
	i := sort.SearchInts(ws, v)
	return i < len(ws) && ws[i] == v
}

// Estimate returns the relation's exact planner cardinalities, computed
// once per EdgeRel (relations are shared through the session cache, so the
// sweep amortizes across every mapping that joins over the relation).
func (r *EdgeRel) Estimate() planner.Estimate {
	r.estOnce.Do(func() { r.est = planner.EstimateRel(r) })
	return r.est
}

// PlanJoin builds the cost-based physical plan for joining g over the
// materialized per-edge relations with the node variables of pre already
// bound: each atom carries its exact relation cardinalities
// (EdgeRel.Estimate) and the planner's greedy search orders them by
// estimated cost with bound-variable selectivity propagation. When the
// planner is disabled the spec degrades to the structural heuristic, making
// the ordering identical to JoinOrder.
func PlanJoin(g *pattern.Graph, rels []*EdgeRel, pre map[string]int) *planner.PlanSpec {
	atoms := make([]planner.Atom, len(g.Edges))
	for i, e := range g.Edges {
		atoms[i] = planner.Atom{From: e.From, To: e.To}
		if i < len(rels) && rels[i] != nil {
			atoms[i].Est = rels[i].Estimate()
		}
	}
	return planner.Order(atoms, boundSet(pre))
}

// boundSet converts a pre-assignment into the planner's bound-variable set.
func boundSet(pre map[string]int) map[string]bool {
	if len(pre) == 0 {
		return nil
	}
	bound := make(map[string]bool, len(pre))
	for z := range pre {
		bound[z] = true
	}
	return bound
}

// JoinOrder returns the structural greedy edge order for joining g with the
// node variables of pre already bound: most-bound edges first. It is the
// cardinality-blind baseline the planner's cost-based search replaces (and
// degrades to when disabled); callers joining materialized relations should
// prefer PlanJoin.
func JoinOrder(g *pattern.Graph, pre map[string]int) []int {
	bound := map[string]bool{}
	for z := range pre {
		bound[z] = true
	}
	remaining := make([]int, len(g.Edges))
	for i := range remaining {
		remaining[i] = i
	}
	var order []int
	for len(remaining) > 0 {
		best, bestScore := -1, -1
		for idx, ei := range remaining {
			e := g.Edges[ei]
			score := 0
			if bound[e.From] {
				score += 2
			}
			if bound[e.To] {
				score++
			}
			if score > bestScore {
				bestScore, best = score, idx
			}
		}
		ei := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		bound[g.Edges[ei].From], bound[g.Edges[ei].To] = true, true
		order = append(order, ei)
	}
	return order
}

// semijoinFloorFor resolves the cost floor gating the semijoin and
// Yannakakis passes of JoinRelations for one plan: the per-plan override
// (PlanSpec.SemijoinFloor, threaded from SessionOptions.SemijoinCostFloor)
// when set, the process-wide planner.SemijoinFloor() knob otherwise. A
// negative result disables the passes.
func semijoinFloorFor(spec *planner.PlanSpec) float64 {
	if spec != nil && spec.SemijoinFloor != 0 {
		return spec.SemijoinFloor
	}
	return planner.SemijoinFloor()
}

// JoinRelations runs the backtracking join of a relation-free pattern over
// precomputed per-edge relations (the leaf step of the bounded-evaluation
// engine), visiting edges in the order of the physical plan (see PlanJoin;
// nil falls back to the structural JoinOrder) and enumerating node
// variables from the relation rows. For plans whose estimated cost clears
// the semijoin floor (planner.SemijoinFloor, overridable per plan through
// PlanSpec.SemijoinFloor) an acyclic conjunct graph is evaluated with the
// Yannakakis semijoin program (yannakakis.go) — linear in the relation
// sizes, no backtracking — and a cyclic one falls back to the
// backtracking join after a semijoin reduction pass shrinks each node
// variable's candidate domain by propagating the relations' endpoint
// sets. pre pre-binds node variables (Check-style); with boolOnly the
// join stops at the first complete assignment.
func JoinRelations(g *pattern.Graph, rels []*EdgeRel, spec *planner.PlanSpec, pre map[string]int, boolOnly bool) *pattern.TupleSet {
	out := pattern.NewTupleSet()
	JoinRelationsStream(g, rels, spec, pre, nil, func(t pattern.Tuple, _ int) bool {
		out.Add(t)
		return !boolOnly
	})
	return out
}

// JoinRelationsStream is the streaming form of JoinRelations: each
// satisfying assignment's output projection is yielded as the backtracking
// completes it (with the summed EdgeRel.Dist witness cost when the
// relations carry levels, 0 otherwise), and a false return from yield — or
// a canceled budget, polled per recursion step — unwinds the join. Tuples
// are NOT deduplicated here: a projection can complete under several
// assignments, and the caller (the bounded engine merges many leaf joins
// anyway) owns dedup and min-cost selection.
//
// The backtracking branch is the join operator of join.go, cut by the
// projection (see backtrack) unless the relations carry levels.
func JoinRelationsStream(g *pattern.Graph, rels []*EdgeRel, spec *planner.PlanSpec, pre map[string]int, bud *engine.Budget, yield func(t pattern.Tuple, cost int) bool) {
	var order []int
	if spec != nil {
		order = spec.Order
	} else {
		order = JoinOrder(g, pre)
	}
	// Relations carrying levels mean a ranked join: every atom's Dist flows
	// into the witness cost, so nothing may be collapsed or cut.
	ranked := false
	for _, r := range rels {
		if r != nil && r.HasLevels() {
			ranked = true
		}
	}
	var dom *planner.Domains
	floor := semijoinFloorFor(spec)
	if spec != nil && spec.CostBased && floor >= 0 && spec.Cost >= floor && len(rels) > 0 && rels[0] != nil {
		refs := make([]planner.EdgeRef, len(g.Edges))
		prels := make([]planner.Rel, len(g.Edges))
		complete := len(rels) >= len(g.Edges)
		for i, e := range g.Edges {
			refs[i] = planner.EdgeRef{From: e.From, To: e.To}
			if i < len(rels) && rels[i] != nil {
				prels[i] = rels[i]
			} else {
				complete = false
			}
		}
		// Acyclic cores take the Yannakakis program: relation-level
		// semijoins along the join tree, then a backtrack-free streaming
		// enumeration under the same yield contract. Parallel atoms over
		// the identical relation are collapsed first (sound: identical
		// constraint) — except in ranked joins, where each atom's Dist
		// contributes to the witness cost.
		if complete && planner.YannakakisEnabled() {
			var skip []bool
			kept := len(g.Edges)
			if !ranked {
				skip = make([]bool, len(g.Edges))
				for i, e := range g.Edges {
					for j := 0; j < i; j++ {
						ej := g.Edges[j]
						if !skip[j] && ej.From == e.From && ej.To == e.To && rels[j] == rels[i] {
							skip[i] = true
							kept--
							break
						}
					}
				}
			}
			if kept > 0 {
				if tree, ok := planner.BuildJoinTree(refs, skip); ok {
					yannakakisStream(g, rels, tree, pre, bud, yield)
					return
				}
				planner.CountCyclicFallback()
			}
		}
		// Cyclic fallback: shrink the variable domains by arc consistency
		// and run the backtracking join over the reduced candidate sets.
		planner.CountSemijoinPass()
		d, ok := planner.Reduce(refs, prels, rels[0].NumNodes(), pre)
		if !ok {
			return // a variable lost every candidate: the join is empty
		}
		dom = d
	}
	atoms := make([]joinAtom, len(order))
	for ci, ei := range order {
		atoms[ci] = relAtom(g.Edges[ei], rels[ei], dom)
	}
	backtrack(atoms, pre, g.Out, !ranked, bud, yield)
}
