// Package engine is the product-reachability core shared by every
// evaluation path in the library: CRPQs (Lemma 1), the ECRPQ^er
// synchronized-product engine, and the CXRPQ fragment algorithms all bottom
// out in reachability over the product of a graph database with an
// automaton. The engine runs that search over integer-interned machinery —
// a label-indexed CSR graph view (graph.Index), an on-the-fly subset
// construction with dense set ids (automata.SubsetCache), and per-set-id
// node bitsets for the visited structure — and fans independent searches
// out across a bounded worker pool.
package engine

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"cxrpq/internal/automata"
	"cxrpq/internal/graph"
)

// unknown marks a transition not yet copied from the shared SubsetCache
// into a Reach call's lock-free local table.
const unknown int32 = -2

// Reach returns the sorted graph nodes v reachable from src through a path
// whose label is accepted by the automaton behind c: paths follow out-edges
// when forward is true and in-edges otherwise (the caller supplies the
// reversed automaton for backward searches). It is the integer-interned
// replacement for the string-keyed (node, state-set) BFS. The result is
// materialized by scanning the hit bitset, so it comes out sorted for free
// (O(n/64 + h) instead of the old O(h log h) sort); callers that only need
// membership should take ReachBits directly.
func Reach(ix *graph.Index, c *automata.SubsetCache, src int, forward bool) []int {
	return ReachBitsToList(ReachBits(ix, c, src, forward))
}

// ReachBitsToList materializes a hit bitset into the sorted node list.
func ReachBitsToList(hitBits []uint64) []int {
	if hitBits == nil {
		return nil
	}
	var hits []int
	for wi, bs := range hitBits {
		for bs != 0 {
			hits = append(hits, wi*64+bits.TrailingZeros64(bs))
			bs &= bs - 1
		}
	}
	return hits
}

// ReachLevels is Reach that additionally reports, for every hit, the BFS
// level (number of graph edges on a shortest accepted path) at which the
// node was first reported, and honors an optional budget at level
// granularity. levs is parallel to hits. The levels come straight out of the
// FIFO order the kernel already runs in — no second search. When bud is
// canceled mid-search the prefix found so far is returned (every entry is a
// genuine hit with its true shortest level; deeper hits may be missing).
func ReachLevels(ix *graph.Index, c *automata.SubsetCache, src int, forward bool, bud *Budget) (hits []int, levs []int32) {
	n := ix.NumNodes()
	if src < 0 || src >= n {
		return nil, nil
	}
	hitLev := make([]int32, n)
	hitBits := reachCore(ix, c, []int{src}, forward, bud, hitLev, false)
	for wi, bs := range hitBits {
		for bs != 0 {
			v := wi*64 + bits.TrailingZeros64(bs)
			bs &= bs - 1
			hits = append(hits, v)
			levs = append(levs, hitLev[v])
		}
	}
	return hits, levs
}

// ReachBits is Reach returning the raw hit bitset (word i, bit b ⇔ node
// 64i+b reachable): membership-only callers skip the list materialization
// entirely. It returns nil when src is out of range.
func ReachBits(ix *graph.Index, c *automata.SubsetCache, src int, forward bool) []uint64 {
	return ReachBitsBudget(ix, c, src, forward, nil)
}

// ReachBitsBudget is ReachBits under an optional budget, polled once per BFS
// level; a canceled budget yields the (sound, incomplete) prefix bitset.
func ReachBitsBudget(ix *graph.Index, c *automata.SubsetCache, src int, forward bool, bud *Budget) []uint64 {
	n := ix.NumNodes()
	if src < 0 || src >= n {
		return nil
	}
	return reachCore(ix, c, []int{src}, forward, bud, nil, false)
}

// AnyPath reports whether some path starting at one of srcs (following
// out-edges when forward is true, in-edges otherwise) has a label accepted
// by the automaton behind c: one multi-source product search with every
// source seeded at level 0, stopping at the first accepting configuration.
// It is the emptiness probe for callers that only need to know whether a
// relation is empty, not which pairs it holds. A canceled budget ends the
// search early; the false it then returns is inconclusive, and the caller
// must consult the budget before trusting it.
func AnyPath(ix *graph.Index, c *automata.SubsetCache, srcs []int, forward bool, bud *Budget) bool {
	for _, w := range reachCore(ix, c, srcs, forward, bud, nil, true) {
		if w != 0 {
			return true
		}
	}
	return false
}

// reachCore is the scalar product BFS shared by Reach/ReachBits/ReachLevels
// and AnyPath. Every in-range node of srcs is seeded at level 0 with the
// start state, so the hits are the nodes reachable from any source. When
// hitLev is non-nil it receives the first-hit level per node (indexed by
// node id; positions whose hit bit is never set are untouched). With first
// set the search returns as soon as one accepting configuration is
// dequeued, its node the only hit.
func reachCore(ix *graph.Index, c *automata.SubsetCache, srcs []int, forward bool, bud *Budget, hitLev []int32, first bool) []uint64 {
	n := ix.NumNodes()
	nSyms := ix.NumSyms()
	words := (n + 63) / 64

	// visited[id] is a bitset over nodes for DFA set id; ids are dense and
	// appear in discovery order, so the slice grows lazily.
	var visited [][]uint64
	ensure := func(id int32) []uint64 {
		for int(id) >= len(visited) {
			visited = append(visited, nil)
		}
		if visited[id] == nil {
			visited[id] = make([]uint64, words)
		}
		return visited[id]
	}
	// local copies the shared (lock-guarded) transition table into a dense
	// per-call array so the BFS inner loop stays lock-free after first use.
	var local [][]int32
	localFor := func(id int32) []int32 {
		for int(id) >= len(local) {
			local = append(local, nil)
		}
		if local[id] == nil {
			row := make([]int32, nSyms)
			for s := range row {
				row[s] = unknown
			}
			local[id] = row
		}
		return local[id]
	}

	type cfg struct {
		node int32
		id   int32
	}
	startID := c.Start()
	var queue []cfg
	start := ensure(startID)
	for _, src := range srcs {
		if src < 0 || src >= n || start[src/64]&(1<<(src%64)) != 0 {
			continue
		}
		start[src/64] |= 1 << (src % 64)
		queue = append(queue, cfg{int32(src), startID})
	}

	hitBits := make([]uint64, words)
	depth := int32(0)
	levelEnd := len(queue) // queue prefix holding the current BFS level
	for qi := 0; qi < len(queue); qi++ {
		if qi == levelEnd {
			depth++
			levelEnd = len(queue)
			if bud.Canceled() {
				break
			}
		}
		cur := queue[qi]
		if c.Final(cur.id) {
			w, b := cur.node/64, uint64(1)<<(cur.node%64)
			if hitBits[w]&b == 0 {
				hitBits[w] |= b
				if hitLev != nil {
					hitLev[cur.node] = depth
				}
			}
			if first {
				break
			}
		}
		row := localFor(cur.id)
		for s := int32(0); s < int32(nSyms); s++ {
			var tgts []int32
			if forward {
				tgts = ix.OutByID(int(cur.node), s)
			} else {
				tgts = ix.InByID(int(cur.node), s)
			}
			if len(tgts) == 0 {
				continue
			}
			nid := row[s]
			if nid == unknown {
				nid = c.Step(cur.id, int32(ix.Sym(s)))
				row[s] = nid
			}
			if nid == automata.Dead {
				continue
			}
			vb := ensure(nid)
			for _, v := range tgts {
				if vb[v/64]&(1<<(uint(v)%64)) == 0 {
					vb[v/64] |= 1 << (uint(v) % 64)
					queue = append(queue, cfg{v, nid})
				}
			}
		}
	}
	return hitBits
}

// ReachAll runs Reach from every source in srcs, fanning the independent
// searches out across the worker pool, and returns the per-source results
// in input order.
func ReachAll(ix *graph.Index, c *automata.SubsetCache, srcs []int, forward bool) [][]int {
	out := make([][]int, len(srcs))
	Fan(len(srcs), func(i int) {
		out[i] = Reach(ix, c, srcs[i], forward)
	})
	return out
}

// maxWorkers bounds the engine's fan-out; 0 means GOMAXPROCS.
var maxWorkers atomic.Int64

// SetMaxWorkers bounds the worker pool used by Fan/ReachAll (0 restores the
// default of GOMAXPROCS). It returns the previous bound.
func SetMaxWorkers(n int) int {
	return int(maxWorkers.Swap(int64(n)))
}

// Workers returns the effective worker-pool size for n independent tasks.
func Workers(n int) int {
	w := int(maxWorkers.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Fan runs f(0..n-1) across the bounded worker pool and waits for all calls
// to finish. f must be safe for concurrent invocation on distinct indices;
// with a single worker (or n == 1) the calls run inline in order. Workers
// claim chunked runs of ~n/(8w) indices per fetch-and-add rather than one
// index each, so tiny per-task bodies stop serializing on the shared
// counter while the 8× oversubscription keeps load balance for skewed task
// costs.
func Fan(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	chunk := n / (8 * w)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					f(i)
				}
			}
		}()
	}
	wg.Wait()
}
