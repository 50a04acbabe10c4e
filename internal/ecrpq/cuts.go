package ecrpq

// Projection cuts for the unranked backtracking join (backtrack, join.go).
// An unranked join only reports the output projection of each completed
// assignment, so two kinds of work are invisible in its answer:
//
//   - Dead bindings. A variable that is not an output variable and that no
//     later constraint reads can take any satisfying value: the subtree
//     below the constraint does not depend on it. One witness value proves
//     the binding; the others would replay the same subtree and emit only
//     duplicates.
//   - The existence tail. Once every output variable is bound, every
//     completion of the current prefix projects to the same tuple, so the
//     rest of the order only has to find one completion.
//
// Both cuts skip only completions that would have been duplicates, and the
// skipped ones come after the first occurrence they duplicate, so the set of
// answers and the order in which each answer first appears are unchanged.
// Ranked joins need every binding — each contributes a witness cost — and
// run without cuts, as do any-k's extension lists and the witness search.

// joinCuts is the cut schedule of one join order, computed once per join by
// projectionCuts.
type joinCuts struct {
	// dead[ci] holds the variables first bound by constraint ci that no
	// output and no later constraint reads (nil when there are none).
	dead []map[string]bool
	// exist is the first constraint index at which every output variable
	// is bound; constraints from exist on run as an existence check.
	exist int
}

// projectionCuts computes the cut schedule for a join order, given each
// constraint's variables in order, the pre-bound variables and the output
// variables. Ranked joins get the schedule that cuts nothing.
func projectionCuts(vars [][]string, pre map[string]int, out []string, ranked bool) joinCuts {
	c := joinCuts{dead: make([]map[string]bool, len(vars)), exist: len(vars)}
	if ranked {
		return c
	}
	last := map[string]int{}
	for ci, vs := range vars {
		for _, z := range vs {
			last[z] = ci
		}
	}
	isOut := map[string]bool{}
	for _, z := range out {
		isOut[z] = true
	}
	bound := map[string]bool{}
	for z := range pre {
		bound[z] = true
	}
	outBound := func() bool {
		for _, z := range out {
			if !bound[z] {
				return false
			}
		}
		return true
	}
	if outBound() {
		c.exist = 0
	}
	for ci, vs := range vars {
		for _, z := range vs {
			if bound[z] {
				continue
			}
			bound[z] = true
			if !isOut[z] && last[z] == ci {
				if c.dead[ci] == nil {
					c.dead[ci] = map[string]bool{}
				}
				c.dead[ci][z] = true
			}
		}
		if c.exist == len(vars) && outBound() {
			c.exist = ci + 1
		}
	}
	return c
}

// targetSet tracks, for an edge constraint binding both endpoints, the
// targets already continued when the source is dead and the target live:
// one witness source per target suffices, so repeats are dropped. A nil
// set (any other case) admits everything.
type targetSet []uint64

// newTargetSet returns the set for an edge from→to over n nodes under the
// dead variables of its constraint, or nil when the cut does not apply.
func newTargetSet(dead map[string]bool, from, to string, n int) targetSet {
	if !dead[from] || dead[to] || from == to {
		return nil
	}
	return make(targetSet, (n+63)/64)
}

// admit reports whether target w has not been continued yet, marking it.
func (s targetSet) admit(w int) bool {
	if s == nil {
		return true
	}
	if s[w/64]&(1<<(w%64)) != 0 {
		return false
	}
	s[w/64] |= 1 << (w % 64)
	return true
}
