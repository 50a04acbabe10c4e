package ecrpq

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"cxrpq/internal/automata"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
	"cxrpq/internal/xregex"
)

// Eval computes q(D): the set of output tuples (node ids in the order of
// q.Pattern.Out). For Boolean queries the result is the empty tuple set or
// the set containing the empty tuple (D |= q).
//
// The algorithm follows the product constructions behind the paper's NL
// upper bounds, realized deterministically: ungrouped edges become binary
// reachability relations solved by the integer-interned product core of
// internal/engine (label-indexed CSR graph × on-the-fly determinized NFA);
// each relation group is expanded by a synchronized product over D^s
// (lock-step moves for equality relations; relation-NFA-driven moves with ⊥
// masks for general regular relations); a backtracking join over node
// variables combines them.
func Eval(q *Query, db *graph.DB) (*pattern.TupleSet, error) {
	ev, err := newEvaluator(q, db)
	if err != nil {
		return nil, err
	}
	return ev.run(false)
}

// EvalBool decides D |= q for Boolean q (it also works for non-Boolean
// queries, deciding non-emptiness of q(D)).
func EvalBool(q *Query, db *graph.DB) (bool, error) {
	ev, err := newEvaluator(q, db)
	if err != nil {
		return false, err
	}
	res, err := ev.run(true)
	if err != nil {
		return false, err
	}
	return res.Len() > 0, nil
}

// EvalUnion computes ⋃ qi(D). Members are evaluated concurrently across
// the engine worker pool (engine.Fan) — each worker materializes its own
// member's tuple set, and a mutex-guarded shared set dedupes the union as
// results land. The first member error (by member index, so the outcome is
// deterministic) wins.
func EvalUnion(u *Union, db *graph.DB) (*pattern.TupleSet, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	db.Index() // force one index build before the fan-out races on it
	out := pattern.NewTupleSet()
	errs := make([]error, len(u.Members))
	var mu sync.Mutex
	engine.Fan(len(u.Members), func(i int) {
		res, err := Eval(u.Members[i], db)
		if err != nil {
			errs[i] = err
			return
		}
		mu.Lock()
		for _, t := range res.All() {
			out.Add(t)
		}
		mu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// EvalUnionBool decides whether some member matches. Members run
// concurrently; any satisfied member settles the answer (errors from other
// members are irrelevant once a witness exists, matching the sequential
// short-circuit semantics).
func EvalUnionBool(u *Union, db *graph.DB) (bool, error) {
	if err := u.Validate(); err != nil {
		return false, err
	}
	db.Index()
	var found atomic.Bool
	errs := make([]error, len(u.Members))
	engine.Fan(len(u.Members), func(i int) {
		if found.Load() {
			return
		}
		ok, err := EvalBool(u.Members[i], db)
		if err != nil {
			errs[i] = err
			return
		}
		if ok {
			found.Store(true)
		}
	})
	if found.Load() {
		return true, nil
	}
	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

type evaluator struct {
	q     *Query
	db    *graph.DB
	ix    *graph.Index
	stats *graph.Stats
	sigma []rune
	ents  []*compiledEntry // per edge: shared compiled NFA + subset caches
	nfas  []*automata.NFA  // per edge, aliases ents[i].nfa (witness search)
	fwd   []map[int][]int  // per edge: memoized u -> targets
	rev   []map[int][]int  // per edge: memoized v -> sources
	fwdOK []bool           // per edge: fwd memo covers every node
	gmemo []map[string]groupExp

	inGroup []bool

	// dropped marks edges deleted by the planner's containment-based
	// minimization pass (planner.Minimize): an ungrouped edge whose
	// language contains a kept same-endpoint edge's language is implied
	// by it and never evaluated. Dropped edges still participate in the
	// witness-reconstruction search (soundness is free — they are
	// implied), just not in the join.
	dropped []bool

	// Streaming/any-k state (see stream.go). bud is polled at level
	// granularity inside the BFS expansions and per node in the join
	// recursion; nil means unlimited. ranked turns on BFS-level capture so
	// every emitted tuple carries a witness length. lazy switches the
	// both-ends-unbound edge case from one full multi-source sweep to
	// escalating source chunks, trading a little drain throughput for a
	// first row that arrives after one chunk instead of after the sweep.
	bud    *engine.Budget
	ranked bool
	lazy   bool
	fwdLev []map[int][]int32 // per edge: memoized u -> BFS level per target
	revLev []map[int][]int32 // per edge: memoized v -> BFS level per source

	// some memoizes the existence checks of dead endpoints (hasPath): per
	// edge, u -> "u has a target" and -1-v -> "v has a source".
	some []map[int]bool

	// weight generalizes witness cost from edge count to a pluggable
	// per-edge-label weight (engine.Weight): with it set and ranked, level
	// lookups run the Dijkstra kernel (engine.ReachLevelsW) and group
	// expansions the weighted product search, so every cost this evaluator
	// reports is a minimum total weight instead of a minimum edge count.
	// The memos above are keyed per evaluator, so a fixed weight never
	// mixes with unit-cost entries.
	weight engine.Weight
}

// rankedWeight returns the weight to hand the kernels: only a ranked
// evaluation consumes level data, so unranked runs keep the plain BFS.
func (ev *evaluator) rankedWeight() engine.Weight {
	if !ev.ranked {
		return nil
	}
	return ev.weight
}

// groupExp is one memoized group expansion: the reachable end tuples and —
// when the evaluator is ranked — the product-BFS depth (synchronized word
// length) at which each was first produced.
type groupExp struct {
	ends [][]int
	deps []int32
}

func newEvaluator(q *Query, db *graph.DB) (*evaluator, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	sigma := xregex.MergeAlphabets(db.Alphabet(), xregex.AlphabetOf(q.Pattern.Labels()...))
	ev := &evaluator{
		q:       q,
		db:      db,
		ix:      db.Index(),
		stats:   db.Stats(),
		sigma:   sigma,
		ents:    make([]*compiledEntry, len(q.Pattern.Edges)),
		nfas:    make([]*automata.NFA, len(q.Pattern.Edges)),
		fwd:     make([]map[int][]int, len(q.Pattern.Edges)),
		rev:     make([]map[int][]int, len(q.Pattern.Edges)),
		fwdOK:   make([]bool, len(q.Pattern.Edges)),
		gmemo:   make([]map[string]groupExp, len(q.Groups)),
		inGroup: make([]bool, len(q.Pattern.Edges)),
		fwdLev:  make([]map[int][]int32, len(q.Pattern.Edges)),
		revLev:  make([]map[int][]int32, len(q.Pattern.Edges)),
		some:    make([]map[int]bool, len(q.Pattern.Edges)),
	}
	for i, e := range q.Pattern.Edges {
		ent, err := compiledFor(e.Label, sigma)
		if err != nil {
			return nil, err
		}
		ev.ents[i] = ent
		ev.nfas[i] = ent.nfa
		ev.fwd[i] = map[int][]int{}
		ev.rev[i] = map[int][]int{}
		ev.fwdLev[i] = map[int][]int32{}
		ev.revLev[i] = map[int][]int32{}
		ev.some[i] = map[int]bool{}
	}
	for gi, g := range q.Groups {
		ev.gmemo[gi] = map[string]groupExp{}
		for _, ei := range g.Edges {
			ev.inGroup[ei] = true
		}
	}
	// Containment-based minimization (planner v2): delete redundant
	// ungrouped atoms before any relation work. Grouped edges are
	// ineligible (their semantics involve the group relation, not the
	// edge language alone) and marked with a nil cache.
	minAtoms := make([]planner.MinAtom, len(q.Pattern.Edges))
	for i, e := range q.Pattern.Edges {
		minAtoms[i] = planner.MinAtom{From: e.From, To: e.To}
		if !ev.inGroup[i] {
			minAtoms[i].Cache = ev.ents[i].cache
		}
	}
	ev.dropped = planner.Minimize(minAtoms, 0)
	return ev, nil
}

// forward returns the nodes v with a path u→v matching edge ei's regex.
func (ev *evaluator) forward(ei, u int) []int {
	if vs, ok := ev.fwd[ei][u]; ok {
		return vs
	}
	vs := engine.Reach(ev.ix, ev.ents[ei].cache, u, true)
	ev.fwd[ei][u] = vs
	return vs
}

// forwardAll fills the forward memo of edge ei for every node still
// missing, in one sharded multi-source sweep (engine.ReachBatch) instead of
// a per-source fan.
func (ev *evaluator) forwardAll(ei int) {
	if ev.fwdOK[ei] {
		return
	}
	var missing []int
	for u := 0; u < ev.db.NumNodes(); u++ {
		if _, ok := ev.fwd[ei][u]; !ok {
			missing = append(missing, u)
		}
	}
	res := engine.ReachBatchEx(ev.ix, ev.db.Partition(engine.Shards()), ev.ents[ei].cache, missing, true,
		engine.BatchOpts{Budget: ev.bud})
	if res.Truncated {
		return // partial sweep: don't memoize, the join is unwinding anyway
	}
	for i, u := range missing {
		ev.fwd[ei][u] = res.Hits[i]
	}
	ev.fwdOK[ei] = true
}

// ensureForward fills the forward memo (and, when ranked, the level memo)
// for exactly the given sources in one batched sweep. Results computed under
// a canceled budget are discarded rather than memoized — a truncated hit
// list is sound for the current unwinding but would poison later lookups.
func (ev *evaluator) ensureForward(ei int, srcs []int) {
	var missing []int
	for _, u := range srcs {
		if _, ok := ev.fwd[ei][u]; !ok {
			missing = append(missing, u)
		} else if ev.ranked {
			if _, ok := ev.fwdLev[ei][u]; !ok {
				missing = append(missing, u)
			}
		}
	}
	if len(missing) == 0 {
		return
	}
	res := engine.ReachBatchEx(ev.ix, ev.db.Partition(engine.Shards()), ev.ents[ei].cache, missing, true,
		engine.BatchOpts{Budget: ev.bud, Levels: ev.ranked, Weight: ev.rankedWeight()})
	if res.Truncated {
		return
	}
	for i, u := range missing {
		ev.fwd[ei][u] = res.Hits[i]
		if ev.ranked {
			ev.fwdLev[ei][u] = res.Levs[i]
		}
	}
}

// ensureBackward mirrors ensureForward for reverse sweeps: it fills the
// backward memo (and, when ranked, the level memo) for exactly the given
// targets in one sharded multi-source sweep over the reversed automaton.
func (ev *evaluator) ensureBackward(ei int, tgts []int) {
	var missing []int
	for _, v := range tgts {
		if _, ok := ev.rev[ei][v]; !ok {
			missing = append(missing, v)
		} else if ev.ranked {
			if _, ok := ev.revLev[ei][v]; !ok {
				missing = append(missing, v)
			}
		}
	}
	if len(missing) == 0 {
		return
	}
	_, rc := ev.ents[ei].reverse()
	res := engine.ReachBatchEx(ev.ix, ev.db.Partition(engine.Shards()), rc, missing, false,
		engine.BatchOpts{Budget: ev.bud, Levels: ev.ranked, Weight: ev.rankedWeight()})
	if res.Truncated {
		return
	}
	for i, v := range missing {
		ev.rev[ei][v] = res.Hits[i]
		if ev.ranked {
			ev.revLev[ei][v] = res.Levs[i]
		}
	}
}

// forwardLev is forward plus the BFS level (shortest matching-path edge
// count) per target, for ranked enumeration.
func (ev *evaluator) forwardLev(ei, u int) ([]int, []int32) {
	if vs, ok := ev.fwd[ei][u]; ok {
		if ls, ok2 := ev.fwdLev[ei][u]; ok2 {
			return vs, ls
		}
	}
	vs, ls := engine.ReachLevelsW(ev.ix, ev.ents[ei].cache, u, true, ev.bud, ev.weight)
	if !ev.bud.Canceled() {
		ev.fwd[ei][u] = vs
		ev.fwdLev[ei][u] = ls
	}
	return vs, ls
}

// backward returns the nodes u with a path u→v matching edge ei's regex.
func (ev *evaluator) backward(ei, v int) []int {
	if us, ok := ev.rev[ei][v]; ok {
		return us
	}
	_, rc := ev.ents[ei].reverse()
	us := engine.ReachBitsToList(engine.ReachBitsBudget(ev.ix, rc, v, false, ev.bud))
	if !ev.bud.Canceled() {
		ev.rev[ei][v] = us
	}
	return us
}

// backwardLev is backward plus the BFS level per source.
func (ev *evaluator) backwardLev(ei, v int) ([]int, []int32) {
	if us, ok := ev.rev[ei][v]; ok {
		if ls, ok2 := ev.revLev[ei][v]; ok2 {
			return us, ls
		}
	}
	_, rc := ev.ents[ei].reverse()
	us, ls := engine.ReachLevelsW(ev.ix, rc, v, false, ev.bud, ev.weight)
	if !ev.bud.Canceled() {
		ev.rev[ei][v] = us
		ev.revLev[ei][v] = ls
	}
	return us, ls
}

// hasPath reports whether node x has some target (forward) or some source
// (backward) under edge ei's regex: the existence check that stands in for
// a dead endpoint's bindings (see cuts.go). A memoized endpoint list
// answers it outright; otherwise one single-source probe (engine.AnyPath)
// stops at the first accepting configuration instead of enumerating them.
func (ev *evaluator) hasPath(ei, x int, forward bool) bool {
	memo, key := ev.fwd[ei], x
	if !forward {
		memo, key = ev.rev[ei], -1-x
	}
	if xs, ok := memo[x]; ok {
		return len(xs) > 0
	}
	if ok, hit := ev.some[ei][key]; hit {
		return ok
	}
	c := ev.ents[ei].cache
	if !forward {
		_, c = ev.ents[ei].reverse()
	}
	ok := engine.AnyPath(ev.ix, c, []int{x}, forward, ev.bud)
	if ok || !ev.bud.Canceled() {
		ev.some[ei][key] = ok
	}
	return ok
}

// intsKey encodes an integer tuple as a compact binary map key.
func intsKey[T interface{ ~int | ~int32 }](xs []T) string {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
	}
	return string(buf)
}

// expandGroup returns all end tuples reachable from the given source tuple
// under the group's synchronized semantics (plus, when ranked, the product
// depth each first appeared at), memoized. Expansions cut short by the
// budget are returned for the current unwinding but not memoized.
func (ev *evaluator) expandGroup(gi int, src []int) groupExp {
	k := intsKey(src)
	if res, ok := ev.gmemo[gi][k]; ok {
		return res
	}
	g := ev.q.Groups[gi]
	var res groupExp
	weighted := ev.ranked && ev.weight != nil
	switch rel := g.Rel.(type) {
	case *Equality:
		if weighted {
			res = ev.expandEqualityW(g, src)
		} else {
			res = ev.expandEquality(g, src)
		}
	case *NFARelation:
		if weighted {
			res = ev.expandNFARelW(g, rel, src)
		} else {
			res = ev.expandNFARel(g, rel, src)
		}
	default:
		panic("ecrpq: unknown relation kind")
	}
	if !ev.bud.Canceled() {
		ev.gmemo[gi][k] = res
	}
	return res
}

// prodState and prodKey are retained for the witness-reconstruction product
// searches (witness.go), which re-run the cold path with parent tracking.
func prodKey(nodes []int, setKeys []string, extra string) string {
	var b []byte
	for _, n := range nodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	for _, k := range setKeys {
		b = append(b, 0xff)
		b = append(b, k...)
	}
	b = append(b, 0xfe)
	b = append(b, extra...)
	return string(b)
}

// encodeNodesIDs writes the (node, set id) pair encoding into buf (reused
// across calls), the shared layout of nodesIDsKey and relStateKey.
func encodeNodesIDs(buf []byte, nodes, ids []int32) []byte {
	buf = buf[:0]
	for i := range nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nodes[i]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ids[i]))
	}
	return buf
}

// nodesIDsKey encodes a product configuration of (node, set id) pairs as a
// compact binary key; buf is reused across calls.
func nodesIDsKey(buf []byte, nodes, ids []int32) ([]byte, string) {
	buf = encodeNodesIDs(buf, nodes, ids)
	return buf, string(buf)
}

// relStateKey is nodesIDsKey plus the relation set id and the freeze mask.
func relStateKey(buf []byte, nodes, ids []int32, rid int32, mask uint64) ([]byte, string) {
	buf = encodeNodesIDs(buf, nodes, ids)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rid))
	buf = binary.LittleEndian.AppendUint64(buf, mask)
	return buf, string(buf)
}

func toInts(nodes []int32) []int {
	out := make([]int, len(nodes))
	for i, x := range nodes {
		out[i] = int(x)
	}
	return out
}

// expandEquality explores the lock-step product: all components consume the
// same symbol in every step; acceptance requires every component NFA to
// accept simultaneously (equal words have equal length). The product runs
// over interned DFA set ids and label-indexed adjacency spans.
func (ev *evaluator) expandEquality(g Group, src []int) groupExp {
	s := len(g.Edges)
	caches := make([]*automata.SubsetCache, s)
	for i, ei := range g.Edges {
		caches[i] = ev.ents[ei].cache
	}
	ix := ev.ix
	nSyms := ix.NumSyms()

	type state struct {
		nodes []int32
		ids   []int32
	}
	init := state{nodes: make([]int32, s), ids: make([]int32, s)}
	for i := range init.nodes {
		init.nodes[i] = int32(src[i])
		init.ids[i] = caches[i].Start()
	}
	var kbuf []byte
	var k string
	kbuf, k = nodesIDsKey(kbuf, init.nodes, init.ids)
	seen := map[string]bool{k: true}
	queue := []state{init}
	var out groupExp
	outSeen := map[string]bool{}
	nextIDs := make([]int32, s)
	opts := make([][]int32, s)
	depth, levelEnd := int32(0), 1
	for qi := 0; qi < len(queue); qi++ {
		if qi == levelEnd {
			depth++
			levelEnd = len(queue)
			if ev.bud.Canceled() {
				break
			}
		}
		cur := queue[qi]
		allFinal := true
		for i := range caches {
			if !caches[i].Final(cur.ids[i]) {
				allFinal = false
				break
			}
		}
		if allFinal {
			k := intsKey(cur.nodes)
			if !outSeen[k] {
				outSeen[k] = true
				out.ends = append(out.ends, toInts(cur.nodes))
				if ev.ranked {
					out.deps = append(out.deps, depth)
				}
			}
		}
		for sy := int32(0); sy < int32(nSyms); sy++ {
			sym := int32(ix.Sym(sy))
			ok := true
			for i := range caches {
				// candidate next nodes per component, from the label index
				opts[i] = ix.OutByID(int(cur.nodes[i]), sy)
				if len(opts[i]) == 0 {
					ok = false
					break
				}
				nextIDs[i] = caches[i].Step(cur.ids[i], sym)
				if nextIDs[i] == automata.Dead {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			productNodes32(opts, func(nodes []int32) {
				var k string
				kbuf, k = nodesIDsKey(kbuf, nodes, nextIDs)
				if !seen[k] {
					seen[k] = true
					queue = append(queue, state{
						nodes: append([]int32(nil), nodes...),
						ids:   append([]int32(nil), nextIDs...),
					})
				}
			})
		}
	}
	return out
}

// expandNFARel explores the padded product driven by the relation NFA:
// components with a ⊥ column are frozen (their word has ended, so their
// edge NFA must accept at freeze time); acceptance requires the relation
// NFA to accept and every unfrozen component NFA to accept. Component and
// relation automata run through their interned subset caches.
func (ev *evaluator) expandNFARel(g Group, rel *NFARelation, src []int) groupExp {
	s := len(g.Edges)
	caches := make([]*automata.SubsetCache, s)
	for i, ei := range g.Edges {
		caches[i] = ev.ents[ei].cache
	}
	ix := ev.ix
	rc := rel.subsetCache()
	labels := rel.labelSet()

	type state struct {
		nodes []int32
		ids   []int32
		rid   int32
		mask  uint64
	}
	init := state{nodes: make([]int32, s), ids: make([]int32, s), rid: rc.Start()}
	for i := range init.nodes {
		init.nodes[i] = int32(src[i])
		init.ids[i] = caches[i].Start()
	}
	var kbuf []byte
	var k string
	kbuf, k = relStateKey(kbuf, init.nodes, init.ids, init.rid, 0)
	seen := map[string]bool{k: true}
	queue := []state{init}
	var out groupExp
	outSeen := map[string]bool{}
	nextIDs := make([]int32, s)
	opts := make([][]int32, s)
	selfOpts := make([]int32, s) // per-component single-node option backing
	depth, levelEnd := int32(0), 1
	for qi := 0; qi < len(queue); qi++ {
		if qi == levelEnd {
			depth++
			levelEnd = len(queue)
			if ev.bud.Canceled() {
				break
			}
		}
		cur := queue[qi]
		accept := rc.Final(cur.rid)
		if accept {
			for i := range caches {
				if cur.mask&(1<<uint(i)) != 0 {
					continue
				}
				if !caches[i].Final(cur.ids[i]) {
					accept = false
					break
				}
			}
		}
		if accept {
			k := intsKey(cur.nodes)
			if !outSeen[k] {
				outSeen[k] = true
				out.ends = append(out.ends, toInts(cur.nodes))
				if ev.ranked {
					out.deps = append(out.deps, depth)
				}
			}
		}
		for _, code := range labels {
			rnext := rc.Step(cur.rid, code)
			if rnext == automata.Dead {
				continue
			}
			tuple := rel.codec.decode(code)
			mask := cur.mask
			ok := true
			for i := range tuple {
				if tuple[i] == Bottom {
					// component i is (or becomes) frozen; its word must be
					// complete, i.e. its NFA accepting at freeze time
					if mask&(1<<uint(i)) == 0 {
						if !caches[i].Final(cur.ids[i]) {
							ok = false
							break
						}
						mask |= 1 << uint(i)
					}
					nextIDs[i] = cur.ids[i]
					selfOpts[i] = cur.nodes[i]
					opts[i] = selfOpts[i : i+1]
					continue
				}
				if mask&(1<<uint(i)) != 0 {
					ok = false // symbol after ⊥ in the same column
					break
				}
				nextIDs[i] = caches[i].Step(cur.ids[i], int32(tuple[i]))
				if nextIDs[i] == automata.Dead {
					ok = false
					break
				}
				opts[i] = ix.OutByLabel(int(cur.nodes[i]), tuple[i])
				if len(opts[i]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			productNodes32(opts, func(nodes []int32) {
				var k string
				kbuf, k = relStateKey(kbuf, nodes, nextIDs, rnext, mask)
				if !seen[k] {
					seen[k] = true
					queue = append(queue, state{
						nodes: append([]int32(nil), nodes...),
						ids:   append([]int32(nil), nextIDs...),
						rid:   rnext,
						mask:  mask,
					})
				}
			})
		}
	}
	return out
}

// productNodes32 enumerates the cartesian product of node options.
func productNodes32(opts [][]int32, f func([]int32)) {
	nodes := make([]int32, len(opts))
	var rec func(i int)
	rec = func(i int) {
		if i == len(opts) {
			f(nodes)
			return
		}
		for _, v := range opts[i] {
			nodes[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// productNodes enumerates the cartesian product of node options (witness
// reconstruction still uses the int-slice form).
func (ev *evaluator) productNodes(opts [][]int, f func([]int)) {
	nodes := make([]int, len(opts))
	var rec func(i int)
	rec = func(i int) {
		if i == len(opts) {
			f(nodes)
			return
		}
		for _, v := range opts[i] {
			nodes[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// constraintOrder builds the join's execution order: the ungrouped edges
// are ordered by the cost-based planner over each edge NFA's estimation
// shape crossed with the database's per-label statistics (bound-variable
// selectivity propagated from pre; the structural most-bound-first greedy
// when the planner is disabled), then the relation groups follow in query
// order. This is the single ordering decision shared by every evaluator
// join.
func (ev *evaluator) constraintOrder(pre map[string]int) []joinAtom {
	var unary []int
	for i := range ev.q.Pattern.Edges {
		if !ev.inGroup[i] && !ev.dropped[i] {
			unary = append(unary, i)
		}
	}
	atoms := make([]planner.Atom, len(unary))
	for j, ei := range unary {
		e := ev.q.Pattern.Edges[ei]
		atoms[j] = planner.Atom{From: e.From, To: e.To, Est: ev.ents[ei].shape().Estimate(ev.stats)}
	}
	spec := planner.Order(atoms, boundSet(pre))
	edges := make([]int, len(spec.Order))
	for j, ai := range spec.Order {
		edges[j] = unary[ai]
	}
	return ev.joinAtoms(edges)
}

// joinAtoms returns the join atoms of the given ungrouped edges, in order,
// followed by the relation groups in query order.
func (ev *evaluator) joinAtoms(edges []int) []joinAtom {
	out := make([]joinAtom, 0, len(edges)+len(ev.q.Groups))
	for _, ei := range edges {
		e := ev.q.Pattern.Edges[ei]
		out = append(out, &binAtom{from: e.From, to: e.To, n: ev.db.NumNodes(), rel: &lazyRel{ev: ev, ei: ei}})
	}
	for gi := range ev.q.Groups {
		out = append(out, &groupAtom{ev: ev, gi: gi})
	}
	return out
}

// run executes the backtracking join, materializing the result set. If
// boolOnly, it stops at the first matching assignment. It is the
// accumulate-everything shim over runStream (stream.go).
func (ev *evaluator) run(boolOnly bool) (*pattern.TupleSet, error) {
	out := pattern.NewTupleSet()
	err := ev.runStream(nil, func(t pattern.Tuple, _ int) bool {
		out.Add(t)
		return !boolOnly
	})
	return out, err
}

// lazyRel is the atomRel of ungrouped edge ei read through the evaluator's
// memoized reachability: rows carry BFS levels (or weighted distances) when
// the evaluator is ranked, a dead endpoint is probed by hasPath, and the
// both-unbound sweep prefetches each chunk in one batched kernel call (the
// whole forward memo at once for a non-lazy evaluator).
type lazyRel struct {
	ev *evaluator
	ei int
}

func (r *lazyRel) next(x int, fwd bool) ([]int, []int32) {
	switch {
	case r.ev.ranked && fwd:
		return r.ev.forwardLev(r.ei, x)
	case r.ev.ranked:
		return r.ev.backwardLev(r.ei, x)
	case fwd:
		return r.ev.forward(r.ei, x), nil
	}
	return r.ev.backward(r.ei, x), nil
}

func (r *lazyRel) hasPath(x int, fwd bool) bool { return r.ev.hasPath(r.ei, x, fwd) }

func (r *lazyRel) prefetch(xs []int, fwd bool) {
	switch {
	case !fwd:
		r.ev.ensureBackward(r.ei, xs)
	case r.ev.lazy:
		r.ev.ensureForward(r.ei, xs)
	default:
		r.ev.forwardAll(r.ei)
	}
}

func (r *lazyRel) minCost() int32 { return r.ev.edgeMinCost(r.ei) }

// groupAtom is relation group gi of the evaluator's query, the join's
// second atom kind: its bindings come from the synchronized product
// (expandGroup).
type groupAtom struct {
	ev *evaluator
	gi int
}

func (a *groupAtom) vars() []string {
	var vs []string
	for _, ei := range a.ev.q.Groups[a.gi].Edges {
		e := a.ev.q.Pattern.Edges[ei]
		vs = append(vs, e.From, e.To)
	}
	return vs
}

func (a *groupAtom) minCost() int32 { return 0 }

// bind enumerates the group's satisfying bindings, passing each
// continuation the group's witness contribution — the synchronized product
// depth (shared word length) of the chosen end tuple — when ranked. When
// every variable the group binds is dead, the first binding is the only one
// continued. The budget is polled once per source tuple: a group with
// unbound sources walks up to n^s of them, each a product search.
func (a *groupAtom) bind(assign map[string]int, dead map[string]bool, bud *engine.Budget, cont func(cost int) bool) {
	ev, gi := a.ev, a.gi
	g := ev.q.Groups[gi]
	srcVars := make([]string, len(g.Edges))
	tgtVars := make([]string, len(g.Edges))
	for i, ei := range g.Edges {
		srcVars[i] = ev.q.Pattern.Edges[ei].From
		tgtVars[i] = ev.q.Pattern.Edges[ei].To
	}
	// enumerate unbound source variables
	var unbound []string
	seenVar := map[string]bool{}
	once := true
	for _, x := range append(srcVars, tgtVars...) {
		if _, ok := assign[x]; !ok && !seenVar[x] {
			seenVar[x] = true
			once = once && dead[x]
		}
	}
	clear(seenVar)
	for _, x := range srcVars {
		if _, ok := assign[x]; !ok && !seenVar[x] {
			seenVar[x] = true
			unbound = append(unbound, x)
		}
	}
	more := true
	var bindSrc func(i int)
	bindSrc = func(i int) {
		if i < len(unbound) {
			for u := 0; u < ev.db.NumNodes() && more; u++ {
				assign[unbound[i]] = u
				bindSrc(i + 1)
			}
			delete(assign, unbound[i])
			return
		}
		if bud.Canceled() {
			more = false
			return
		}
		src := make([]int, len(srcVars))
		for j, x := range srcVars {
			src[j] = assign[x]
		}
		exp := ev.expandGroup(gi, src)
		for ti := 0; ti < len(exp.ends) && more; ti++ {
			end := exp.ends[ti]
			// bind/check target variables consistently
			var newly []string
			ok := true
			for j, y := range tgtVars {
				if v, bound := assign[y]; bound {
					if v != end[j] {
						ok = false
						break
					}
					continue
				}
				assign[y] = end[j]
				newly = append(newly, y)
			}
			if ok {
				cost := 0
				if exp.deps != nil {
					cost = int(exp.deps[ti])
				}
				more = cont(cost) && !once
			}
			for _, y := range newly {
				delete(assign, y)
			}
		}
	}
	bindSrc(0)
}
