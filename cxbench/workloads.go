package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/graph"
	"cxrpq/internal/workload"
)

// A workloadSpec is one traffic mix: the gMark graph it runs on, the open-loop
// rate it is offered, and the seeded request stream it sends.
type workloadSpec struct {
	name  string
	why   string
	nodes int // gMark graph size
	// graphs is how many gMark graphs a run measures in turn, each with
	// its own server, splitting --seconds between them.
	graphs int
	// setups is how many times a run sets the server up; setup_s is the
	// median (the set-ups are spread over the graphs).
	setups int
	// rate is the open-loop offered rate in jobs per second, fixed at the
	// seed commit to a quarter to a third of the workload's closed-loop
	// capacity in jobs (read-hot: an eighth). At half capacity the queue
	// behind the slowest requests made the median swing between runs.
	rate float64
	// durable starts the server on a -data-dir store seeded from the graph.
	durable bool
	// warm sends every pool request once before setup ends (read-hot).
	warm bool
	// deadlineMS is carried by every /query of the workload (0: none).
	deadlineMS int
	// check selects how answers are verified: "all" against answers
	// computed in-process at setup, "sample" by re-evaluating a seeded
	// sample after the run, "durable" by the write-mix restart check.
	check string
	pool  []poolEntry // fixed query texts (read-hot, write-mix, vsf-equality)
	next  func(g *generator, id int) *job
}

// poolEntry is one query text of a fixed pool.
type poolEntry struct {
	text   string
	sem    string // "" (auto) or "bounded"
	k      int
	big    bool // answer too large for a materialized eval response
	ranked bool // served as ranked top-50 pages
	arity  int
}

// job is one client interaction: a /query first page followed by up to
// fetches cursor fetches, or one /update.
type job struct {
	id      int
	due     float64 // open loop: seconds after the phase start
	class   string  // page, full, bool, check, ranked or update
	entry   int     // pool index, -1 for generated texts
	q       *queryReq
	fetches int
	u       *updateReq
}

const (
	pageLimit   = 100 // rows per paginated page
	rankedLimit = 50  // rows per ranked page
	// deadlineSlackMS is added to deadline_ms before a response counts as
	// a deadline miss.
	deadlineSlackMS = 50
)

// workloads lists every workload the command runs. BENCHMARK.json lists
// only read-hot and read-cold: on write-mix and vsf-equality the median
// latency and the capacity moved by more than the benchmark's bounds
// between seeds (see CHANGES.md), so they are run by name, not gated.
var workloads = []*workloadSpec{
	{
		name: "read-hot", nodes: 1200, graphs: 3, setups: 3, rate: 100, warm: true, check: "all",
		why:  "zipf over 30 pooled texts on gMark-1200 (paged, materialized, bool/check, 5% ranked top-50): serve, result/relation caches, cursors, any-k; kernel and planner idle",
		pool: readHotPool, next: nextReadHot,
	},
	{
		name: "read-cold", nodes: 1200, graphs: 6, setups: 6, rate: 25, deadlineMS: 250, check: "sample",
		why:  "every text unseen (chains, stars, triangles, bounded $x/$y variants) with deadlines on gMark-1200: parse, plan, kernel relations and session-pool misses; caches bypassed",
		next: nextReadCold,
	},
	{
		name: "write-mix", nodes: 1200, graphs: 4, setups: 6, rate: 15, durable: true, check: "durable",
		why:  "durable store, ~10% fsynced insert batches (1 in 20 removes) beside hot reads: WAL, checkpoints, Fork and cursor invalidation",
		pool: writeMixPool, next: nextWriteMix,
	},
	{
		name: "vsf-equality", nodes: 150, graphs: 2, setups: 6, rate: 5, deadlineMS: 100, check: "sample",
		why:  "CXRPQ^vsf simple and vsf,fl texts (renamed per request, so no cache answers) on gMark-150 with deadlines: the ecrpq equality product",
		pool: vsfPool, next: nextVsf,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// The read-hot pool: CRPQ chains and closures, bounded CXRPQ^≤k texts, and
// two ranked texts. Zipf weights follow list order. Texts over the
// heavy-tailed a edges are "big": their answer size swings with the seed's
// few hub nodes, so they are served as pages, never materialized.
var readHotPool = []poolEntry{
	{text: "ans(x, y)\nx y : a", big: true},
	{text: "ans(x, z)\nx y : a\ny z : b", big: true},
	{text: "ans(x, y)\nx y : b+", big: true},
	{text: "ans(x, y)\nx y : (a|b)c", big: true},
	{text: "ans(x, y)\nx m : $w{a|b}\nm y : $w", sem: "bounded", k: 1, big: true},
	{text: "ans(x, y)\nx y : bc"},
	{text: "ans(x, y)\nx y : b"},
	{text: "ans(x, z)\nx y : b\ny z : c"},
	{text: "ans(x, y)\nx m : $w{b|c}\nm y : c$w", sem: "bounded", k: 2},
	{text: "ans(x, y)\nx y : c"},
	{text: "ans(x, y)\nx y : ab", big: true},
	{text: "ans(x)\nx y : b\ny z : b"},
	{text: "ans(x, y)\nx y : ba", big: true},
	{text: "ans(x, y)\nx y : b+c", big: true},
	{text: "ans(x, y)\nx m : $w{b|c}\nm y : $wb", sem: "bounded", k: 1},
	{text: "ans(x, y)\nx y : cb"},
	{text: "ans(x, y)\nx y : b(a|c)", big: true},
	{text: "ans(x, z)\nx y : c\ny z : b"},
	{text: "ans(x, y)\nx y : bb"},
	{text: "ans(x, y)\nx m : b$w{a|c}\nm y : $w", sem: "bounded", k: 1, big: true},
	{text: "ans(x, y)\nx y : ccc"},
	{text: "ans(x, y)\nx y : cb+", big: true},
	{text: "ans(x, y)\nx y : bcb"},
	{text: "ans(x, z)\nx y : b+\ny z : a", big: true},
	{text: "ans(x, y)\nx y : ca", big: true},
	{text: "ans(x, y)\nx y : c(a|b)", big: true},
	{text: "ans(x, y)\nx m : $w{ab|b}\nm y : $w", sem: "bounded", k: 2, big: true},
	{text: "ans(x, z)\nx y : b\ny z : b"},
	{text: "ans(x, y)\nx y : b+", ranked: true},
	{text: "ans(x, y)\nx y : (a|b)c", ranked: true},
}

// The write-mix hot pool: plain and bounded texts whose cached relations
// need maintenance on every insert, and two ranked texts whose parked
// cursors write WAL side records.
var writeMixPool = []poolEntry{
	{text: "ans(x, y)\nx y : a"},
	{text: "ans(x, z)\nx y : a\ny z : b"},
	{text: "ans(x, y)\nx y : b+", big: true},
	{text: "ans(x, y)\nx y : bc"},
	{text: "ans(x, y)\nx m : $w{a|b}\nm y : $w", sem: "bounded", k: 1, big: true},
	{text: "ans(x, y)\nx m : $w{b|c}\nm y : c$w", sem: "bounded", k: 2},
	{text: "ans(x, y)\nx y : b+", ranked: true},
	{text: "ans(x, y)\nx y : (a|b)c", ranked: true},
}

// The vsf-equality pool: CXRPQ^vsf texts evaluated under auto semantics,
// two simple (one definition, plain references) and two vsf,fl (a
// reference under alternation). The second one runs into the deadline on
// every graph size measured, so deadline overruns stay visible.
var vsfPool = []poolEntry{
	{text: "ans(x, y)\nx m : $v{b|c}\nm y : $v"},
	{text: "ans(x, y)\nx m : $v{a|b}\nm y : $v c"},
	{text: "ans(x, y)\nx m : $v{a|b}\nm y : $v|c"},
	{text: "ans(x)\nx m : $v{b|c}\nm y : c($v|b)"},
}

func init() {
	for _, pool := range [][]poolEntry{readHotPool, writeMixPool, vsfPool} {
		for i := range pool {
			q, err := cxrpq.Parse(pool[i].text)
			if err != nil {
				panic(fmt.Sprintf("pool text %q: %v", pool[i].text, err))
			}
			pool[i].arity = len(q.Pattern.Out)
		}
	}
}

// generator draws one workload's jobs from the seed. Everything it
// produces — graph, texts, tuples, batches, arrival times — is a function
// of the seed alone.
type generator struct {
	w       *workloadSpec
	seed    int64
	rng     *rand.Rand
	wrng    *workload.RNG // for workload.RandomQuery
	nodes   []string
	edges   []string // seed edge lines, "from label to"
	removal []int    // seed edge indices in removal order
	zipf    []float64
	deck    [][2]int  // vsf-equality: (entry, class) pairs left in this round
	shapes  []int     // read-cold: query shapes left in this round
	labels  []int     // read-cold: coldLabels indices left in this round
	reads   []int     // write-mix: writeMixReads indices left in this round
	updates int       // write-mix: batches generated so far
	exp     *expected // read-hot: in-process answers for check tuples
}

// graphText renders the gMark graph of the seed as the textual format the
// server loads, naming node i "v<i>" (the generator's own "#i" names read
// as comments in that format).
func graphText(seed int64, nodes int) (text string, names []string, edges []string) {
	db := workload.GMark(seed, nodes)
	names = make([]string, db.NumNodes())
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	var b strings.Builder
	for u := 0; u < db.NumNodes(); u++ {
		for _, e := range db.Out(u) {
			line := fmt.Sprintf("%s %c %s", names[e.From], e.Label, names[e.To])
			edges = append(edges, line)
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String(), names, edges
}

func newGenerator(w *workloadSpec, seed int64, names, edges []string) *generator {
	g := &generator{w: w, seed: seed, nodes: names, edges: edges,
		rng:  rand.New(rand.NewPCG(uint64(seed), 0x6378627270717321)),
		wrng: workload.NewRNG(seed)}
	g.removal = g.rng.Perm(len(edges))
	total := 0.0
	for i := range w.pool {
		if !w.pool[i].ranked {
			total += 1 / float64(i+1)
		}
		g.zipf = append(g.zipf, total)
	}
	return g
}

// arrivals returns Poisson arrival offsets (seconds) at the workload's rate
// over dur seconds, drawn from the seed.
func (g *generator) arrivals(dur float64) []float64 {
	r := rand.New(rand.NewPCG(uint64(g.seed), 0x617272697661))
	var out []float64
	for t := r.ExpFloat64() / g.w.rate; t < dur; t += r.ExpFloat64() / g.w.rate {
		out = append(out, t)
	}
	return out
}

// pick draws a non-ranked pool entry by Zipf weight.
func (g *generator) pick() int {
	u := g.rng.Float64() * g.zipf[len(g.zipf)-1]
	for i, c := range g.zipf {
		if u < c && !g.w.pool[i].ranked {
			return i
		}
	}
	return 0
}

func (g *generator) pickRanked() int {
	var rk []int
	for i, e := range g.w.pool {
		if e.ranked {
			rk = append(rk, i)
		}
	}
	return rk[g.rng.IntN(len(rk))]
}

// poolQuery builds the /query request of a pool entry for a class.
func (g *generator) poolQuery(id, entry int, class string) *job {
	e := g.w.pool[entry]
	q := &queryReq{DB: dbName, Query: e.text, DeadlineMS: g.w.deadlineMS}
	if e.sem != "" {
		k := e.k
		q.Semantics, q.K = e.sem, &k
	}
	j := &job{id: id, class: class, entry: entry, q: q}
	switch class {
	case "page":
		q.Limit = pageLimit
		j.fetches = g.rng.IntN(4)
	case "ranked":
		q.Limit, q.Ranked = rankedLimit, true
		j.fetches = g.rng.IntN(2)
	case "bool":
		q.Mode = "bool"
	case "check":
		q.Mode = "check"
		q.Tuple = g.checkTuple(entry, e.arity)
	}
	return j
}

// checkTuple draws a check argument: half the time a member of the
// in-process answer (when known), otherwise random nodes.
func (g *generator) checkTuple(entry, arity int) []string {
	if g.exp != nil && g.rng.IntN(2) == 0 {
		if rows := g.exp.sorted[entry]; len(rows) > 0 {
			return rows[g.rng.IntN(len(rows))]
		}
	}
	t := make([]string, arity)
	for i := range t {
		t[i] = g.nodes[g.rng.IntN(len(g.nodes))]
	}
	return t
}

// readClass draws the request class of a non-ranked pool read.
func (g *generator) readClass(entry int) string {
	switch u := g.rng.Float64(); {
	case u < 0.5:
		return "page"
	case u < 0.75:
		if g.w.pool[entry].big {
			return "page"
		}
		return "full"
	case u < 0.875:
		return "bool"
	default:
		return "check"
	}
}

func nextReadHot(g *generator, id int) *job {
	if g.rng.Float64() < 0.05 {
		return g.poolQuery(id, g.pickRanked(), "ranked")
	}
	e := g.pick()
	return g.poolQuery(id, e, g.readClass(e))
}

// writeMixReads are the read classes of write-mix, each dealt once per
// shuffled round. A fixed round keeps the class mix, and with it the
// capacity and the closed-loop median, the same in every run; the checks
// below the pages place that median inside the page class, not in its tail.
var writeMixReads = []string{"page", "page", "page", "page", "page", "page", "page", "page",
	"check", "check", "check", "check", "bool", "bool", "ranked", "ranked", "full", "full"}

// nextWriteMix sends every tenth job as an update, so each run and each
// phase carries the same share of writes, and deals the reads from rounds
// of writeMixReads.
func nextWriteMix(g *generator, id int) *job {
	if id%10 == 9 {
		return g.update(id)
	}
	if len(g.reads) == 0 {
		g.reads = g.rng.Perm(len(writeMixReads))
	}
	class := writeMixReads[g.reads[0]]
	g.reads = g.reads[1:]
	if class == "ranked" {
		return g.poolQuery(id, g.pickRanked(), class)
	}
	e := g.pick()
	for class == "full" && g.w.pool[e].big {
		e = g.pick() // a Zipf draw among the entries small enough to materialize
	}
	return g.poolQuery(id, e, class)
}

// vsfClasses are the request classes of vsf-equality; every (text, class)
// pair is dealt once per shuffled round, so each run sends a balanced mix.
// Pages come twice per round: their latency sits between the fast check
// probes and the deadline-bound evaluations, so the median lands inside
// one class instead of in the gap between two.
var vsfClasses = []string{"full", "page", "page", "bool", "check"}

func nextVsf(g *generator, id int) *job {
	if len(g.deck) == 0 {
		for e := range g.w.pool {
			for c := range vsfClasses {
				g.deck = append(g.deck, [2]int{e, c})
			}
		}
		g.rng.Shuffle(len(g.deck), func(a, b int) { g.deck[a], g.deck[b] = g.deck[b], g.deck[a] })
	}
	d := g.deck[0]
	g.deck = g.deck[1:]
	j := g.poolQuery(id, d[0], vsfClasses[d[1]])
	j.q.Query = renameVars(j.q.Query, fmt.Sprintf("_%d", id))
	if j.class == "page" {
		j.fetches = 1
	}
	return j
}

// renameVars suffixes every node variable of a query text, which makes the
// text unseen without changing its answers: the session pool and its
// result cache are missed, so each request pays the evaluation itself.
func renameVars(text, sfx string) string {
	q, err := cxrpq.Parse(text)
	if err != nil {
		panic(fmt.Sprintf("pool text %q: %v", text, err)) // pool texts parse (checked at init)
	}
	p := q.Pattern.Clone()
	for i := range p.Out {
		p.Out[i] += sfx
	}
	for i := range p.Edges {
		p.Edges[i].From += sfx
		p.Edges[i].To += sfx
	}
	return strings.TrimSuffix(p.String(), "\n")
}

// Label atoms of generated read-cold texts. Closures stay on the sparse b
// edges: closures over the hub-heavy a edges or the c chain reach most of
// the graph, and a pool of such relations exhausts memory.
var coldAtoms = []string{"a", "b", "c", "(a|b)", "(b|c)", "(a|c)", "b+", "b*", "c?"}

// coldLabels is the fixed list of read-cold atom labels: 64 distinct
// labels drawn once from concatenations (and one in five alternations) of
// coldAtoms. A run deals them in seeded shuffled rounds, so every run sends
// the same label mix in a different order and combination.
var coldLabels = func() []string {
	r := rand.New(rand.NewPCG(0, 0x636f6c64))
	piece := func() string {
		var b strings.Builder
		for n := 1 + r.IntN(2); n > 0; n-- {
			b.WriteString(coldAtoms[r.IntN(len(coldAtoms))])
		}
		return b.String()
	}
	seen := map[string]bool{}
	var out []string
	for len(out) < 64 {
		l := piece()
		if r.IntN(5) == 0 {
			l += "|" + piece()
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}()

func (g *generator) coldLabel() string {
	if len(g.labels) == 0 {
		g.labels = g.rng.Perm(len(coldLabels))
	}
	l := coldLabels[g.labels[0]]
	g.labels = g.labels[1:]
	return l
}

// nextReadCold deals query shapes from shuffled rounds of twenty — eight
// chains and four stars of 2-4 atoms, seven triangles and one bounded
// string-variable variant; the shape also fixes the request class (six in
// twenty are bool probes) and the fetch count — so every run sends the
// same shape and class mix.
func nextReadCold(g *generator, id int) *job {
	sfx := fmt.Sprintf("_%d", id)
	v := func(name string) string { return name + sfx }
	var b strings.Builder
	q := &queryReq{DB: dbName, DeadlineMS: g.w.deadlineMS}
	if len(g.shapes) == 0 {
		g.shapes = g.rng.Perm(20)
	}
	shape := g.shapes[0]
	g.shapes = g.shapes[1:]
	switch {
	case shape < 8: // chain of 2-4 atoms
		n := 2 + shape%3
		fmt.Fprintf(&b, "ans(%s, %s)\n", v("x0"), v(fmt.Sprint("x", n)))
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%s %s : %s\n", v(fmt.Sprint("x", i)), v(fmt.Sprint("x", i+1)), g.coldLabel())
		}
	case shape < 12: // star of 2-4 atoms around c
		n := 2 + shape%3
		fmt.Fprintf(&b, "ans(%s, %s)\n", v("c"), v("y0"))
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "%s %s : %s\n", v("c"), v(fmt.Sprint("y", i)), g.coldLabel())
		}
	case shape < 19: // triangle: cyclic conjunct graph
		fmt.Fprintf(&b, "ans(%s, %s)\n", v("x"), v("z"))
		fmt.Fprintf(&b, "%s %s : %s\n", v("x"), v("y"), g.coldLabel())
		fmt.Fprintf(&b, "%s %s : %s\n", v("y"), v("z"), g.coldLabel())
		fmt.Fprintf(&b, "%s %s : %s\n", v("x"), v("z"), g.coldLabel())
	default: // bounded string-variable variant (each pooled one holds ~30 MB on gMark-1200)
		b.WriteString(renameVars(workload.RandomQuery(g.wrng, true).Pattern.String(), sfx))
		k := 1
		q.Semantics, q.K = "bounded", &k
	}
	q.Query = strings.TrimSuffix(b.String(), "\n")
	j := &job{id: id, class: "page", entry: -1, q: q}
	if shape*7%10 < 3 {
		j.class, q.Mode = "bool", "bool"
	} else {
		q.Limit = pageLimit
		j.fetches = shape % 2
	}
	return j
}

// update draws one insert batch of 4-32 edges over the existing labels.
// On a fixed cadence, one batch in ten interns new nodes and one in twenty
// also removes a seed edge (each seed edge at most once, so the removal
// always exists); the removal comes early in the cadence, so even a short
// phase carries one full session flush.
func (g *generator) update(id int) *job {
	k := g.updates
	g.updates++
	n := 4 + g.rng.IntN(29)
	fresh := k%10 == 7
	node := func() string { return g.nodes[g.rng.IntN(len(g.nodes))] }
	var b strings.Builder
	for i := 0; i < n; i++ {
		from := node()
		if fresh && i%2 == 0 {
			from = fmt.Sprintf("w%d_%d", id, i)
		}
		fmt.Fprintf(&b, "%s %c %s\n", from, "abc"[g.rng.IntN(3)], node())
	}
	u := &updateReq{DB: dbName, Edges: b.String()}
	if k%20 == 4 && len(g.removal) > 0 {
		u.Remove = g.edges[g.removal[0]]
		g.removal = g.removal[1:]
	}
	return &job{id: id, class: "update", entry: -1, u: u}
}

// schedule returns the open-loop jobs of a dur-second phase with their
// Poisson due times.
func (g *generator) schedule(dur float64) []*job {
	var out []*job
	for i, t := range g.arrivals(dur) {
		j := g.w.next(g, i)
		j.due = t
		out = append(out, j)
	}
	return out
}

// seedDelta parses the seed edge lines as one insert batch, the way a
// durable server seeds a fresh store.
func seedDelta(edges []string) (graph.Delta, error) {
	adds, err := graph.ParseDeltaEdges(strings.Join(edges, "\n"))
	return graph.Delta{Add: adds}, err
}
