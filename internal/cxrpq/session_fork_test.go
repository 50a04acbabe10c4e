package cxrpq_test

// MVCC snapshot semantics of the session layer: Session.Fork carries the
// cache epoch onto a successor graph.Snapshot view without touching the
// receiver, so readers pinned to the old session/view never observe the
// mutation — while the forked session answers exactly like a fresh bind on
// the new view, at delta-maintenance cost for insert-only windows.

import (
	"sync"
	"testing"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
)

func TestSessionForkSnapshotIsolation(t *testing.T) {
	db := graph.MustParse("u a v\nu a w\nv b w\nw a u\n")
	q := cxrpq.MustParse("ans(x, y)\nx y : $w{a|b}\ny z : $w+\n")
	plan := cxrpq.MustPrepare(q)
	const k = 1

	snap1 := db.Snapshot()
	s1 := plan.Bind(snap1.DB())
	base, err := s1.EvalBounded(k)
	if err != nil {
		t.Fatal(err)
	}

	// Insert-only write: fork onto the new snapshot.
	if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{
		{From: "v", Label: 'a', To: "u"}, {From: "x", Label: 'b', To: "u"},
	}}); err != nil {
		t.Fatal(err)
	}
	snap2 := db.Snapshot()
	s2 := s1.Fork(snap2.DB())

	// The old session, pinned to the old view, answers as before.
	again, err := s1.EvalBounded(k)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(base) {
		t.Fatal("pinned session observed a later revision")
	}
	// The fork agrees with a fresh bind on the new view.
	want, err := plan.Bind(snap2.DB()).EvalBounded(k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.EvalBounded(k)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("forked session diverged: %d tuples, want %d", got.Len(), want.Len())
	}
	if got.Equal(base) {
		t.Fatal("test vacuous: the delta did not change the answer")
	}
	st := s2.Stats()
	if st.Maint.DeltaApplies != 1 || st.Maint.FullRebuilds != 1 {
		t.Fatalf("insert-only fork should delta-maintain (applies=1, rebuilds=1), got %+v", st.Maint)
	}
	if st.Rel.Retained+st.Rel.Extended == 0 {
		t.Fatalf("fork maintained no relation entries: %+v", st.Rel)
	}

	// A removal window cannot be maintained: the next fork rebuilds.
	if _, err := db.ApplyDelta(graph.Delta{Del: []graph.DeltaEdge{
		{From: "x", Label: 'b', To: "u"},
	}}); err != nil {
		t.Fatal(err)
	}
	snap3 := db.Snapshot()
	s3 := s2.Fork(snap3.DB())
	want3, err := plan.Bind(snap3.DB()).EvalBounded(k)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := s3.EvalBounded(k)
	if err != nil {
		t.Fatal(err)
	}
	if !got3.Equal(want3) {
		t.Fatal("post-removal fork diverged from a fresh bind")
	}
	if st3 := s3.Stats(); st3.Maint.FullRebuilds != 2 {
		t.Fatalf("removal fork should full-rebuild, got %+v", st3.Maint)
	}

	// Forking without an intervening mutation shares the epoch.
	s4 := s3.Fork(snap3.DB())
	if s4.Stats().ResultHits == 0 {
		if _, err := s4.EvalBounded(k); err != nil {
			t.Fatal(err)
		}
		if s4.Stats().ResultHits == 0 {
			t.Fatal("same-revision fork did not share the result cache")
		}
	}
}

// Differential sweep: a fork chain across a MutationStream delta sequence
// must answer exactly like a fresh session on every snapshot.
func TestSessionForkMutationStreamDifferential(t *testing.T) {
	db, deltas := workload.MutationStream(5, 40, 12, 4)
	q := cxrpq.MustParse("ans(x, y)\nx y : $w{a|b}\ny z : $w+\n")
	plan := cxrpq.MustPrepare(q)
	const k = 1

	sess := plan.Bind(db.Snapshot().DB())
	if _, err := sess.EvalBounded(k); err != nil {
		t.Fatal(err)
	}
	for i, delta := range deltas {
		if _, err := db.ApplyDelta(delta); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		view := db.Snapshot().DB()
		sess = sess.Fork(view)
		got, err := sess.EvalBounded(k)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, err := plan.Bind(view).EvalBounded(k)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("step %d: fork chain diverged: %d tuples, want %d", i, got.Len(), want.Len())
		}
	}
	if st := sess.Stats(); st.Maint.DeltaApplies == 0 {
		t.Fatalf("MutationStream deltas are insert-only; expected delta maintenance, got %+v", st.Maint)
	}
}

// Readers keep evaluating on their pinned sessions while the writer applies
// deltas and forks — under -race this proves reads never synchronize with
// the write path.
func TestSessionForkConcurrentReaders(t *testing.T) {
	db, deltas := workload.MutationStream(7, 30, 8, 3)
	q := cxrpq.MustParse("ans(x, y)\nx y : a|b\n")
	plan := cxrpq.MustPrepare(q)

	sess := plan.Bind(db.Snapshot().DB())
	var wg sync.WaitGroup
	for i, delta := range deltas {
		cur := sess
		wantLen := -1
		wg.Add(1)
		go func(s *cxrpq.Session, step int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				res, err := s.Eval()
				if err != nil {
					t.Errorf("step %d: %v", step, err)
					return
				}
				if wantLen == -1 {
					wantLen = res.Len()
				} else if res.Len() != wantLen {
					t.Errorf("step %d: pinned session answer drifted %d -> %d", step, wantLen, res.Len())
					return
				}
			}
		}(cur, i)
		if _, err := db.ApplyDelta(delta); err != nil {
			t.Fatal(err)
		}
		sess = sess.Fork(db.Snapshot().DB())
	}
	wg.Wait()
	final, err := sess.Eval()
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Bind(db.Snapshot().DB()).Eval()
	if err != nil {
		t.Fatal(err)
	}
	if !final.Equal(want) {
		t.Fatal("final forked session diverged")
	}
}

// The bounded engine memoizes its relaxed-atom emptiness probes per cache
// epoch. An insert can turn an empty relaxed atom non-empty, so only the
// non-empty verdicts may survive an insert-only Fork or ApplyDelta; a
// removal can turn a non-empty one empty. Here the atom $w{a}bc relaxes to
// Σ*bc before w is guessed: empty on the first graph (no b edge is followed
// by a c edge), non-empty once w c z is inserted, empty again once v b w is
// removed. Each session must answer like a fresh bind on its graph.
func TestSessionForkNonemptinessMemo(t *testing.T) {
	db := graph.MustParse("u a v\nv b w\np c q\n")
	plan := cxrpq.MustPrepare(cxrpq.MustParse("ans(x, y)\nx y : $w{a}bc\n"))
	const k = 1
	check := func(name string, s *cxrpq.Session, db *graph.DB, wantLen int) {
		t.Helper()
		want, err := plan.Bind(db).EvalBounded(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.EvalBounded(k)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: %v, fresh bind %v", name, got.Sorted(), want.Sorted())
		}
		if want.Len() != wantLen {
			t.Fatalf("%s: vacuous: %d answers, expected %d", name, want.Len(), wantLen)
		}
	}

	snap1 := db.Snapshot().DB()
	s1 := plan.Bind(snap1)
	check("empty relaxed atom", s1, snap1, 0)

	if _, err := db.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: "w", Label: 'c', To: "z"}}}); err != nil {
		t.Fatal(err)
	}
	snap2 := db.Snapshot().DB()
	s2 := s1.Fork(snap2)
	if st := s2.Stats(); st.Maint.DeltaApplies != 1 {
		t.Fatalf("insert-only fork was not delta-maintained: %+v", st.Maint)
	}
	check("fork after insert", s2, snap2, 1)

	if _, err := db.ApplyDelta(graph.Delta{Del: []graph.DeltaEdge{{From: "v", Label: 'b', To: "w"}}}); err != nil {
		t.Fatal(err)
	}
	snap3 := db.Snapshot().DB()
	check("fork after removal", s2.Fork(snap3), snap3, 0)

	// The same two steps through in-place maintenance (Session.ApplyDelta).
	live := graph.MustParse("u a v\nv b w\np c q\n")
	s := plan.Bind(live)
	check("live, empty relaxed atom", s, live, 0)
	if _, err := s.ApplyDelta(graph.Delta{Add: []graph.DeltaEdge{{From: "w", Label: 'c', To: "z"}}}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Maint.DeltaApplies != 1 {
		t.Fatalf("insert-only ApplyDelta was not delta-maintained: %+v", st.Maint)
	}
	check("live after insert", s, live, 1)
	if _, err := s.ApplyDelta(graph.Delta{Del: []graph.DeltaEdge{{From: "v", Label: 'b', To: "w"}}}); err != nil {
		t.Fatal(err)
	}
	check("live after removal", s, live, 0)
}
