package ecrpq

import (
	"fmt"

	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
)

// Witness is one matching morphism together with a tuple of matching words
// (§2.3): NodeOf assigns database nodes to the pattern's node variables and
// Words[i] is the label of the path matched by edge i. The paper's §8
// discusses extracting paths from the evaluation automata; this is the
// deterministic counterpart for one match.
type Witness struct {
	NodeOf map[string]int
	Words  []string
}

// FindWitness searches for a matching morphism of q on db (extending the
// pre-bound output tuple t if t is non-nil) and reconstructs a tuple of
// matching words. It returns false if no match exists.
func FindWitness(q *Query, db *graph.DB, t pattern.Tuple) (*Witness, bool, error) {
	ev, err := newEvaluator(q, db)
	if err != nil {
		return nil, false, err
	}
	pre := map[string]int{}
	if t != nil {
		if len(t) != len(q.Pattern.Out) {
			return nil, false, fmt.Errorf("ecrpq: tuple arity %d, query arity %d", len(t), len(q.Pattern.Out))
		}
		for i, z := range q.Pattern.Out {
			if prev, ok := pre[z]; ok && prev != t[i] {
				return nil, false, nil
			}
			pre[z] = t[i]
		}
	}
	assign, ok := ev.findAssignment(pre)
	if !ok {
		return nil, false, nil
	}
	w := &Witness{NodeOf: assign, Words: make([]string, len(q.Pattern.Edges))}
	// Per-group word reconstruction (components share the search).
	done := make([]bool, len(q.Pattern.Edges))
	for gi, g := range q.Groups {
		words, err := ev.groupWitness(gi, assign)
		if err != nil {
			return nil, false, err
		}
		for j, ei := range g.Edges {
			w.Words[ei] = words[j]
			done[ei] = true
		}
	}
	for ei, e := range q.Pattern.Edges {
		if done[ei] {
			continue
		}
		word, ok := ev.edgeWitness(ei, assign[e.From], assign[e.To])
		if !ok {
			return nil, false, fmt.Errorf("ecrpq: internal error: matched edge %d has no witness word", ei)
		}
		w.Words[ei] = word
	}
	return w, true, nil
}

// findAssignment runs the uncut join over every ungrouped edge in query
// order (dropped ones included: they are implied, and their words are
// reconstructed too), then the groups, and captures the first full
// assignment.
func (ev *evaluator) findAssignment(pre map[string]int) (map[string]int, bool) {
	var edges []int
	for ei := range ev.q.Pattern.Edges {
		if !ev.inGroup[ei] {
			edges = append(edges, ei)
		}
	}
	vars := ev.q.Pattern.Vars()
	var assign map[string]int
	backtrack(ev.joinAtoms(edges), pre, vars, false, nil, func(t pattern.Tuple, _ int) bool {
		assign = make(map[string]int, len(vars))
		for i, z := range vars {
			assign[z] = t[i]
		}
		return false
	})
	return assign, assign != nil
}

// edgeWitness reconstructs a shortest word labelling a path u→v that
// matches edge ei's regex, via parent-tracked BFS over (node, NFA-state).
func (ev *evaluator) edgeWitness(ei, u, v int) (string, bool) {
	m := ev.nfas[ei]
	type cfg struct{ node, state int }
	type parentInfo struct {
		prev cfg
		sym  rune
		has  bool
	}
	parent := map[cfg]parentInfo{}
	var queue []cfg
	push := func(c cfg, from cfg, sym rune, has bool) {
		if _, seen := parent[c]; seen {
			return
		}
		parent[c] = parentInfo{prev: from, sym: sym, has: has}
		queue = append(queue, c)
	}
	for _, s := range m.EpsClosure(m.Start()) {
		push(cfg{u, s}, cfg{}, 0, false)
	}
	for i := 0; i < len(queue); i++ {
		c := queue[i]
		if c.node == v && m.IsFinal(c.state) {
			// reconstruct
			var rev []rune
			cur := c
			for {
				p := parent[cur]
				if !p.has {
					break
				}
				if p.sym != 0 {
					rev = append(rev, p.sym)
				}
				cur = p.prev
			}
			out := make([]rune, len(rev))
			for j := range rev {
				out[j] = rev[len(rev)-1-j]
			}
			return string(out), true
		}
		// ε-moves in the NFA
		for _, tr := range m.Transitions(c.state) {
			if tr.Label == automata.Epsilon {
				push(cfg{c.node, tr.To}, c, 0, true)
			}
		}
		// synchronized symbol moves
		for _, e := range ev.db.Out(c.node) {
			for _, tr := range m.Transitions(c.state) {
				if tr.Label == int32(e.Label) {
					push(cfg{e.To, tr.To}, c, e.Label, true)
				}
			}
		}
	}
	return "", false
}

// groupWitness reconstructs per-component matching words for a group given
// the node assignment, by a parent-tracked re-run of the synchronized
// product.
func (ev *evaluator) groupWitness(gi int, assign map[string]int) ([]string, error) {
	g := ev.q.Groups[gi]
	src := make([]int, len(g.Edges))
	tgt := make([]int, len(g.Edges))
	for j, ei := range g.Edges {
		src[j] = assign[ev.q.Pattern.Edges[ei].From]
		tgt[j] = assign[ev.q.Pattern.Edges[ei].To]
	}
	switch rel := g.Rel.(type) {
	case *Equality:
		w, ok := ev.equalityWitness(g, src, tgt)
		if !ok {
			return nil, fmt.Errorf("ecrpq: internal error: no equality witness for group %d", gi)
		}
		words := make([]string, len(g.Edges))
		for j := range words {
			words[j] = w
		}
		return words, nil
	case *NFARelation:
		words, ok := ev.nfaRelWitness(g, rel, src, tgt)
		if !ok {
			return nil, fmt.Errorf("ecrpq: internal error: no relation witness for group %d", gi)
		}
		return words, nil
	}
	return nil, fmt.Errorf("ecrpq: unknown relation kind")
}

// equalityWitness finds one shared word for an equality group between the
// given source and target tuples.
func (ev *evaluator) equalityWitness(g Group, src, tgt []int) (string, bool) {
	s := len(g.Edges)
	ms := make([]*automata.NFA, s)
	for i, ei := range g.Edges {
		ms[i] = ev.nfas[ei]
	}
	type node struct {
		nodes []int
		sets  []automata.StateSet
	}
	start := node{nodes: src, sets: make([]automata.StateSet, s)}
	for i, m := range ms {
		start.sets[i] = m.EpsClosure(m.Start())
		if len(start.sets[i]) == 0 {
			return "", false
		}
	}
	keyOf := func(n node) string {
		ks := make([]string, s)
		for i, set := range n.sets {
			ks[i] = set.Key()
		}
		return prodKey(n.nodes, ks, "")
	}
	type pinfo struct {
		prevKey string
		sym     rune
		has     bool
	}
	parent := map[string]pinfo{}
	queue := []node{start}
	parent[keyOf(start)] = pinfo{}
	accept := func(n node) bool {
		for i, m := range ms {
			if n.nodes[i] != tgt[i] || !m.ContainsFinal(n.sets[i]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		ck := keyOf(cur)
		if accept(cur) {
			var rev []rune
			k := ck
			for {
				p := parent[k]
				if !p.has {
					break
				}
				rev = append(rev, p.sym)
				k = p.prevKey
			}
			out := make([]rune, len(rev))
			for j := range rev {
				out[j] = rev[len(rev)-1-j]
			}
			return string(out), true
		}
		for _, sym := range ev.sigma {
			nextSets := make([]automata.StateSet, s)
			opts := make([][]int, s)
			ok := true
			for j, m := range ms {
				nextSets[j] = m.Step(cur.sets[j], int32(sym))
				if len(nextSets[j]) == 0 {
					ok = false
					break
				}
				for _, e := range ev.db.Out(cur.nodes[j]) {
					if e.Label == sym {
						opts[j] = append(opts[j], e.To)
					}
				}
				if len(opts[j]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			ev.productNodes(opts, func(nodes []int) {
				n := node{nodes: append([]int(nil), nodes...), sets: nextSets}
				k := keyOf(n)
				if _, seen := parent[k]; !seen {
					parent[k] = pinfo{prevKey: ck, sym: sym, has: true}
					queue = append(queue, n)
				}
			})
		}
	}
	return "", false
}

// nfaRelWitness finds per-component words for a general relation group.
func (ev *evaluator) nfaRelWitness(g Group, rel *NFARelation, src, tgt []int) ([]string, bool) {
	s := len(g.Edges)
	ms := make([]*automata.NFA, s)
	for i, ei := range g.Edges {
		ms[i] = ev.nfas[ei]
	}
	type node struct {
		nodes []int
		sets  []automata.StateSet
		rset  automata.StateSet
		mask  uint64
	}
	start := node{nodes: src, sets: make([]automata.StateSet, s), rset: rel.M.EpsClosure(rel.M.Start())}
	for i, m := range ms {
		start.sets[i] = m.EpsClosure(m.Start())
		if len(start.sets[i]) == 0 {
			return nil, false
		}
	}
	keyOf := func(n node) string {
		ks := make([]string, s)
		for i, set := range n.sets {
			ks[i] = set.Key()
		}
		return prodKey(n.nodes, ks, fmt.Sprint(n.rset.Key(), n.mask))
	}
	type pinfo struct {
		prevKey string
		tuple   []rune
		has     bool
	}
	parent := map[string]pinfo{}
	queue := []node{start}
	parent[keyOf(start)] = pinfo{}
	labels := rel.M.Labels()
	accept := func(n node) bool {
		if !rel.M.ContainsFinal(n.rset) {
			return false
		}
		for i, m := range ms {
			if n.nodes[i] != tgt[i] {
				return false
			}
			if n.mask&(1<<uint(i)) == 0 && !m.ContainsFinal(n.sets[i]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		ck := keyOf(cur)
		if accept(cur) {
			words := make([][]rune, s)
			k := ck
			var chain []pinfo
			for {
				p := parent[k]
				if !p.has {
					break
				}
				chain = append(chain, p)
				k = p.prevKey
			}
			for j := len(chain) - 1; j >= 0; j-- {
				for c, sym := range chain[j].tuple {
					if sym != Bottom {
						words[c] = append(words[c], sym)
					}
				}
			}
			out := make([]string, s)
			for c := range out {
				out[c] = string(words[c])
			}
			return out, true
		}
		for _, code := range labels {
			rnext := rel.M.Step(cur.rset, code)
			if len(rnext) == 0 {
				continue
			}
			tuple := rel.codec.decode(code)
			nextSets := make([]automata.StateSet, s)
			opts := make([][]int, s)
			mask := cur.mask
			ok := true
			for j := range tuple {
				if tuple[j] == Bottom {
					if mask&(1<<uint(j)) == 0 {
						if !ms[j].ContainsFinal(cur.sets[j]) {
							ok = false
							break
						}
						mask |= 1 << uint(j)
					}
					nextSets[j] = cur.sets[j]
					opts[j] = []int{cur.nodes[j]}
					continue
				}
				if mask&(1<<uint(j)) != 0 {
					ok = false
					break
				}
				nextSets[j] = ms[j].Step(cur.sets[j], int32(tuple[j]))
				if len(nextSets[j]) == 0 {
					ok = false
					break
				}
				for _, e := range ev.db.Out(cur.nodes[j]) {
					if e.Label == tuple[j] {
						opts[j] = append(opts[j], e.To)
					}
				}
				if len(opts[j]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			ev.productNodes(opts, func(nodes []int) {
				n := node{nodes: append([]int(nil), nodes...), sets: nextSets, rset: rnext, mask: mask}
				k := keyOf(n)
				if _, seen := parent[k]; !seen {
					parent[k] = pinfo{prevKey: ck, tuple: append([]rune(nil), tuple...), has: true}
					queue = append(queue, n)
				}
			})
		}
	}
	return nil, false
}
