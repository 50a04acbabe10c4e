package ecrpq

// Streaming (any-k) enumeration for the ECRPQ^er evaluator. The
// backtracking join was historically accumulate-then-return; runStream
// inverts it into a push-with-cancel loop — every satisfying assignment is
// projected and yielded the moment the recursion completes it, and the
// consumer's return value unwinds the whole search. Eval/EvalBool/Check are
// thin shims over it, so there is exactly one enumeration loop.
//
// Ranked mode threads a witness length alongside every tuple: the sum over
// join constraints of the BFS level at which the chosen binding was first
// reached (ungrouped edges: shortest matching-path edge count, straight off
// the bitset BFS level indices the engine kernels already compute; groups:
// the synchronized product depth, i.e. the shared word length). Ranked
// emission is NOT deduplicated — the same tuple may arrive once per
// distinct assignment, each with that assignment's cost — because only a
// full drain can know the minimal witness; the cxrpq layer keeps the min
// per tuple while ordering. Unranked emission is deduplicated.

import (
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// StreamFunc consumes one enumerated tuple with its witness cost (0 unless
// ranked). Returning false stops the enumeration.
type StreamFunc func(t pattern.Tuple, cost int) bool

// EvalStream enumerates q(D) through yield instead of materializing it,
// under an optional budget (nil = unlimited) polled at BFS-level and
// join-node granularity. With ranked set, each tuple carries its witness
// length and duplicates may be emitted (see the package comment above);
// without it, tuples are distinct and cost is always 0. A canceled budget
// ends the enumeration early: everything already yielded is a sound subset
// of q(D). The error reports construction/validation failures only — the
// caller owns the budget and checks it for truncation.
func EvalStream(q *Query, db *graph.DB, bud *engine.Budget, ranked bool, yield StreamFunc) error {
	return EvalStreamW(q, db, bud, ranked, nil, yield)
}

// EvalStreamW is EvalStream under a pluggable edge weight (engine.Weight):
// with ranked set and a non-nil weight, every yielded cost is the minimum
// total edge weight of a witness for that assignment instead of its edge
// count — level lookups run the Dijkstra kernels and group expansions the
// cost-ordered product search. A nil weight is exactly EvalStream.
func EvalStreamW(q *Query, db *graph.DB, bud *engine.Budget, ranked bool, weight engine.Weight, yield StreamFunc) error {
	ev, err := newEvaluator(q, db)
	if err != nil {
		return err
	}
	ev.bud, ev.ranked, ev.lazy, ev.weight = bud, ranked, true, weight
	return ev.runStream(nil, yield)
}

// EvalBoolBudget is EvalBool under an optional budget, running the lazy
// (chunked-sweep) search so the first witness is found without
// materializing full relations. A canceled budget yields
// (false, engine.ErrCanceled) unless a witness was already found.
func EvalBoolBudget(q *Query, db *graph.DB, bud *engine.Budget) (bool, error) {
	ev, err := newEvaluator(q, db)
	if err != nil {
		return false, err
	}
	ev.bud, ev.lazy = bud, true
	res, err := ev.run(true)
	if err != nil {
		return false, err
	}
	if res.Len() == 0 {
		if berr := bud.Err(); berr != nil {
			return false, berr
		}
	}
	return res.Len() > 0, nil
}

// EvalBudget is Eval under an optional budget. On cancellation it returns
// the sound partial set found so far together with engine.ErrCanceled.
func EvalBudget(q *Query, db *graph.DB, bud *engine.Budget) (*pattern.TupleSet, error) {
	ev, err := newEvaluator(q, db)
	if err != nil {
		return nil, err
	}
	ev.bud = bud
	res, err := ev.run(false)
	if err != nil {
		return res, err
	}
	return res, bud.Err()
}

// runStream is the enumeration loop behind every evaluator entry point:
// the Yannakakis program when it applies, otherwise the backtracking join
// (backtrack, join.go) over the planner's constraint order with the
// variables of pre pre-bound, cut by the projection (unranked runs) and
// deduplicated unless ranked.
func (ev *evaluator) runStream(pre map[string]int, yield StreamFunc) error {
	seen := map[string]bool{}
	sink := func(t pattern.Tuple, cost int) bool {
		if !ev.ranked {
			k := intsKey(t)
			if seen[k] {
				return true
			}
			seen[k] = true
		}
		return yield(t, cost)
	}
	// Acyclic-core specialization: when the minimized conjunct graph has
	// a join tree and the backtracking search is estimated expensive
	// enough to pay for materializing the relations, run the Yannakakis
	// semijoin program instead (yannakakis.go) — same yields, same
	// dedup, same budget discipline.
	if ev.tryYannakakis(pre, sink) {
		return nil
	}
	backtrack(ev.constraintOrder(pre), pre, ev.q.Pattern.Out, !ev.ranked, ev.bud, sink)
	return nil
}
