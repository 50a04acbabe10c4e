package cxrpq_test

// Differential checks for the projection cuts of the unranked backtracking
// joins (ecrpq cuts.go): dead existential bindings are proved by one
// witness, and once every output variable is bound the rest of the join
// order runs as an existence check. On random stars, triangles, chains with
// projected-out middles and disconnected existential components, every
// evaluation path must agree with the brute-force oracle — materialized,
// streamed at every page size, through the bounded engine's leaf joins and
// in check mode (output variables pre-bound) — and the unranked streams
// must list each answer in the order of its first appearance in the uncut
// enumeration, which the ranked streams still walk in full.

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/oracle"
	"cxrpq/internal/pattern"
	"cxrpq/internal/workload"
)

// cutQuery draws one query text of the cut-relevant shapes. Labels are
// finite languages (so the length-bounded oracle is exact on any graph)
// unless starred is set, which the caller only does on layered DAGs.
func cutQuery(r *workload.RNG, starred bool) string {
	labels := []string{"a", "b", "ab", "ba", "a|b", "aa|b", "b(a|b)"}
	if starred {
		labels = append(labels, "(a|b)+", "a*b", "b*", "ab*")
	}
	lab := func() string { return labels[r.Intn(len(labels))] }
	pick := func(opts ...string) string { return opts[r.Intn(len(opts))] }
	var b strings.Builder
	switch r.Intn(4) {
	case 0: // star of 2-4 arms around c
		arms := 2 + r.Intn(3)
		fmt.Fprintf(&b, "ans(%s)\n", pick("c, y0", "c", "y0", "y0, y1", "y1, c"))
		for i := 0; i < arms; i++ {
			fmt.Fprintf(&b, "c y%d : %s\n", i, lab())
		}
		if arms == 2 && r.Intn(2) == 0 {
			fmt.Fprintf(&b, "y1 c : %s\n", lab()) // a second atom on an arm
		}
	case 1: // triangle
		fmt.Fprintf(&b, "ans(%s)\n", pick("x, z", "x", "y", "x, y, z"))
		fmt.Fprintf(&b, "x y : %s\ny z : %s\nx z : %s\n", lab(), lab(), lab())
	case 2: // chain of 3-4 atoms with projected-out middles
		n := 3 + r.Intn(2)
		fmt.Fprintf(&b, "ans(%s)\n", pick("x0, x"+fmt.Sprint(n), "x0", "x1, x"+fmt.Sprint(n), "x"+fmt.Sprint(n)))
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "x%d x%d : %s\n", i, i+1, lab())
		}
	default: // an answer component beside disconnected existential ones
		fmt.Fprintf(&b, "ans(%s)\nx y : %s\n", pick("x, y", "x", "y"), lab())
		fmt.Fprintf(&b, "z w : %s\n", lab())
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, "v v : %s\n", lab())
		}
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, "w u : %s\n", lab())
		}
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// firstSeen returns tuples in order of first appearance, without repeats.
func firstSeen(ts []pattern.Tuple) []pattern.Tuple {
	seen := pattern.NewTupleSet()
	var out []pattern.Tuple
	for _, t := range ts {
		if seen.Add(t) {
			out = append(out, t)
		}
	}
	return out
}

func sameOrder(a, b []pattern.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y pattern.Tuple) bool { return slices.Equal(x, y) })
}

// drainStream drains an unranked Session.Stream in pages of the given size.
func drainStream(t *testing.T, s *cxrpq.Session, opts cxrpq.StreamOptions, page int) []pattern.Tuple {
	t.Helper()
	cur, err := s.Stream(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var out []pattern.Tuple
	for {
		rows := cur.Fetch(page)
		if len(rows) == 0 {
			break
		}
		for _, r := range rows {
			out = append(out, r.Tuple)
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func projectionCutSeed(t *testing.T, seed int64) {
	r := workload.NewRNG(seed)
	starred := seed%3 == 0
	var db *graph.DB
	if starred {
		db = workload.Layered(seed, 3, 2+r.Intn(2), "ab") // paths have ≤ 2 edges
	} else {
		db = workload.Random(seed, 4+r.Intn(2), 5+r.Intn(6), "ab")
	}
	text := cutQuery(r, starred)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s\nquery:\n%s", seed, fmt.Sprintf(format, args...), text)
	}
	q, err := cxrpq.Parse(text)
	if err != nil {
		fail("parse: %v", err)
	}
	eq, err := ecrpq.ParseQuery(text, []rune("ab"))
	if err != nil {
		fail("ecrpq parse: %v", err)
	}
	want, err := oracle.EvalECRPQ(eq, db, 3)
	if err != nil {
		fail("oracle: %v", err)
	}

	// Materialized.
	got, err := cxrpq.Eval(q, db)
	if err != nil || !got.Equal(want) {
		fail("Eval = %v (err %v), oracle %v", got.Sorted(), err, want.Sorted())
	}

	// Unranked streams list each answer once, in the order of its first
	// appearance in the uncut (ranked) enumeration of the same join.
	var cut, full []pattern.Tuple
	if err := ecrpq.EvalStream(eq, db, nil, false, func(t pattern.Tuple, _ int) bool {
		cut = append(cut, append(pattern.Tuple(nil), t...))
		return true
	}); err != nil {
		fail("EvalStream: %v", err)
	}
	if err := ecrpq.EvalStream(eq, db, nil, true, func(t pattern.Tuple, _ int) bool {
		full = append(full, append(pattern.Tuple(nil), t...))
		return true
	}); err != nil {
		fail("ranked EvalStream: %v", err)
	}
	if !sameOrder(cut, firstSeen(full)) {
		fail("unranked stream %v, first appearances of the full enumeration %v", cut, firstSeen(full))
	}

	// Streamed through the session at every page size, and through the
	// bounded engine's leaf joins.
	s := cxrpq.MustPrepare(q).Bind(db)
	for _, sem := range []string{"", "bounded"} {
		var ref []pattern.Tuple
		for page := 1; page <= len(want.Sorted())+1; page++ {
			rows := drainStream(t, s, cxrpq.StreamOptions{Semantics: sem, K: 1}, page)
			if sem == "" && len(firstSeen(rows)) != len(rows) {
				fail("stream (page %d) repeats answers: %v", page, rows)
			}
			set := pattern.NewTupleSet()
			for _, t := range rows {
				set.Add(t)
			}
			if !set.Equal(want) {
				fail("stream %q (page %d) = %v, oracle %v", sem, page, set.Sorted(), want.Sorted())
			}
			if page == 1 {
				ref = rows
			} else if !sameOrder(rows, ref) {
				fail("stream %q order depends on the page size: %v vs %v", sem, rows, ref)
			}
		}
	}
	bounded, err := cxrpq.EvalBounded(q, db, 1)
	if err != nil || !bounded.Equal(want) {
		fail("EvalBounded = %v (err %v), oracle %v", bounded.Sorted(), err, want.Sorted())
	}

	// The bounded leaf join alone: unranked (cut) vs ranked (uncut)
	// relations over the same backtracking order.
	rels := make([]*ecrpq.EdgeRel, len(q.Pattern.Edges))
	lrels := make([]*ecrpq.EdgeRel, len(q.Pattern.Edges))
	for i, e := range q.Pattern.Edges {
		if rels[i], err = ecrpq.RelationFor(db, e.Label, []rune("ab")); err != nil {
			fail("RelationFor: %v", err)
		}
		if lrels[i], err = ecrpq.RelationForEx(db, e.Label, []rune("ab"), nil, true); err != nil {
			fail("RelationForEx: %v", err)
		}
	}
	spec := ecrpq.PlanJoin(q.Pattern, rels, nil)
	spec.SemijoinFloor = -1 // backtracking, not Yannakakis
	var leafCut, leafFull []pattern.Tuple
	ecrpq.JoinRelationsStream(q.Pattern, rels, spec, nil, nil, func(t pattern.Tuple, _ int) bool {
		leafCut = append(leafCut, t)
		return true
	})
	ecrpq.JoinRelationsStream(q.Pattern, lrels, spec, nil, nil, func(t pattern.Tuple, _ int) bool {
		leafFull = append(leafFull, t)
		return true
	})
	if !sameOrder(firstSeen(leafCut), firstSeen(leafFull)) {
		fail("leaf join first appearances %v, uncut %v", firstSeen(leafCut), firstSeen(leafFull))
	}
	if len(leafCut) > len(leafFull) {
		fail("cut leaf join emitted %d rows, uncut %d", len(leafCut), len(leafFull))
	}

	// Check mode: the output variables are pre-bound, so the whole order
	// is an existence check.
	arity := len(q.Pattern.Out)
	tuple := make(pattern.Tuple, arity)
	var each func(i int)
	each = func(i int) {
		if i == arity {
			in := want.Contains(tuple)
			if ok, err := s.Check(tuple); err != nil || ok != in {
				fail("Check(%v) = %v (err %v), oracle %v", tuple, ok, err, in)
			}
			if ok, err := s.CheckBounded(1, tuple); err != nil || ok != in {
				fail("CheckBounded(%v) = %v (err %v), oracle %v", tuple, ok, err, in)
			}
			return
		}
		for v := 0; v < db.NumNodes(); v++ {
			tuple[i] = v
			each(i + 1)
		}
	}
	each(0)
}

func TestProjectionCutsDifferential(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 30
	}
	for seed := int64(0); seed < seeds; seed++ {
		projectionCutSeed(t, seed)
	}
}

// budgetScale multiplies the wall-clock budgets tests assert (10 under the
// race detector, see race_test.go).
var budgetScale time.Duration = 1

// TestReadColdStarDrainsUnderBudget pins the shape that motivated the
// cuts: a 4-arm star with three existential arms on gMark-1200, as the
// read-cold benchmark workload sends it. Without the cuts, the unranked
// stream walked the cross product of the existential arms and ran into a
// 250 ms deadline after a dozen rows; with them all ~29k rows drain well
// within it.
func TestReadColdStarDrainsUnderBudget(t *testing.T) {
	db := workload.GMark(1, 1200)
	q := cxrpq.MustParse("ans(c, y0)\nc y0 : (a|c)b*\nc y1 : b*|(b|c)\nc y2 : b*b+\nc y3 : b+a")
	s := cxrpq.MustPrepare(q).Bind(db)
	start := time.Now()
	cur, err := s.Stream(cxrpq.StreamOptions{Deadline: start.Add(250 * time.Millisecond * budgetScale)})
	if err != nil {
		t.Fatal(err)
	}
	var rows []pattern.Tuple
	for {
		page := cur.Fetch(100)
		if len(page) == 0 {
			break
		}
		for _, r := range page {
			rows = append(rows, r.Tuple)
		}
	}
	cur.Close()
	elapsed := time.Since(start)
	if cur.Truncated() {
		t.Fatalf("star truncated by its %v budget after %v and %d rows", 250*time.Millisecond*budgetScale, elapsed, len(rows))
	}
	want, err := s.Eval()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want.Len() || len(firstSeen(rows)) != len(rows) {
		t.Fatalf("streamed %d rows (%d distinct), Eval has %d", len(rows), len(firstSeen(rows)), want.Len())
	}
	t.Logf("drained %d rows in %v", len(rows), elapsed)
}

// TestEqualityProductHonorsBudget pins the budget poll of the equality
// product's source loop. A group whose source variables are unbound walks
// up to n² source tuples, one product search each; polled only between
// BFS levels of each search, a 20 ms budget on gMark-1200 overran to
// seconds. The shapes are the read-cold equality variants.
func TestEqualityProductHonorsBudget(t *testing.T) {
	db := workload.GMark(1, 1200)
	budget := 20 * time.Millisecond * budgetScale
	bound := 500 * time.Millisecond * budgetScale
	for _, tc := range []struct {
		src      string
		boolOnly bool
	}{
		{"ans(x, y)\nx m : $v{a|b}\nm y : $v c", true},
		{"ans(x, y)\nx m : $v{a|b}\nm y : $v c", false},
		{"ans(x, y)\nx m : $v{b|c}\nm y : $v", false},
	} {
		eq, err := cxrpq.SimpleToECRPQer(cxrpq.MustParse(tc.src), nil)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		bud := engine.NewBudget(nil, start.Add(budget), 0)
		if tc.boolOnly {
			_, err = ecrpq.EvalBoolBudget(eq, db, bud)
		} else {
			_, err = ecrpq.EvalBudget(eq, db, bud)
		}
		elapsed := time.Since(start)
		if elapsed > bound {
			t.Errorf("%q (bool=%v) under a %v budget returned after %v (err %v)", tc.src, tc.boolOnly, budget, elapsed, err)
		}
	}
}
