package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cxrpq/internal/automata"
	"cxrpq/internal/cxrpq"
	"cxrpq/internal/ecrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
	"cxrpq/internal/pattern"
	"cxrpq/internal/planner"
	"cxrpq/internal/xregex"
)

// The traced run replays in-process, sequentially, the jobs the HTTP run
// sent on its first graph (open-loop, then closed-loop, in the order the
// generator dealt them), making the public calls cxrpq-serve makes in the
// same order — a session pool keyed by query text (dropped whole on overflow),
// Session.Fork of every pooled session on publish, and a graph.Store in a
// scratch directory for write-mix — and records a span around each call.
// On a pool miss it also times the layers the server reaches only inside
// cxrpq: Session.PlanReport (planner), xregex.Compile per atom label,
// engine.ReachBatch over that automaton and ecrpq.RelationFor (both cold),
// and, for simple vsf texts under auto semantics, the equality product of
// cxrpq.SimpleToECRPQer through ecrpq.EvalStream / EvalBoolBudget.

// span is one timed call. Start and End are nanoseconds since the replay
// began; Parent is -1 for a request's root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string { l, _, _ := strings.Cut(s.Name, "."); return l }

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans in memory; when off, begin and end do nothing.
type tracer struct {
	on    bool
	t0    time.Time
	req   int
	spans []span
	stack []int
}

func (t *tracer) begin(name string) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: t.req, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.stack) - 1
	t.spans[t.stack[n]].End = int64(time.Since(t.t0))
	t.stack = t.stack[:n]
}

// timed runs f inside a span.
func (t *tracer) timed(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// counters are the process-wide and per-request counter deltas the replay
// accumulates.
type counters struct {
	requests, updates, edgesAdded, rows       int
	resultHits, resultLookups                 uint64
	relHits, relLookups, relExtended, relKept uint64
	deltaApplies, fullRebuilds                uint64
	matchHits, matchLookups                   uint64
	plan                                      planner.Counters
	kernel                                    engine.KernelStats
	fsyncs, walBytes, checkpoints             uint64
	indexExtended, indexRebuilds              uint64
}

// replayer is one pass of the in-process replay.
type replayer struct {
	w     *workloadSpec
	t     *tracer
	text  string
	edges []string
	dir   string // scratch store directory (write-mix)

	live   *graph.DB
	view   *graph.DB
	store  *graph.Store
	pool   map[string]*cxrpq.Session
	parsed map[string]*cxrpq.Query
	c      counters
}

// replayBudget bounds each replay pass, so a traced run costs at most three
// budgets more than an untraced one.
const replayBudget = 4 * time.Second

func newReplayer(w *workloadSpec, t *tracer, text string, edges []string, dir string) (*replayer, error) {
	rp := &replayer{w: w, t: t, text: text, edges: edges, dir: dir,
		pool: map[string]*cxrpq.Session{}, parsed: map[string]*cxrpq.Query{}}
	t.req = -1
	var err error
	if w.durable {
		if err = os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t.timed("graph.open_store", func() {
			rp.store, err = graph.OpenStore(dir, graph.StoreOptions{SyncEvery: 1, CheckpointBytes: -1})
		})
		if err != nil {
			return nil, err
		}
		d, err := seedDelta(edges)
		if err != nil {
			return nil, err
		}
		rp.live = rp.store.DB()
		t.timed("graph.apply_delta", func() { _, err = rp.live.ApplyDelta(d) })
		if err != nil {
			return nil, err
		}
		t.timed("graph.checkpoint", func() { err = rp.store.Checkpoint() })
	} else {
		t.timed("graph.load", func() { rp.live, err = graph.Parse(text) })
	}
	if err != nil {
		return nil, err
	}
	t.timed("graph.snapshot", func() { rp.view = rp.live.Snapshot().DB() })
	return rp, nil
}

// session returns the pooled session of a text, preparing it on a miss.
func (rp *replayer) session(text string) (*cxrpq.Session, bool, error) {
	if s, ok := rp.pool[text]; ok {
		return s, false, nil
	}
	var q *cxrpq.Query
	var p *cxrpq.Plan
	var err error
	rp.t.timed("cxrpq.parse", func() { q, err = cxrpq.Parse(text) })
	if err != nil {
		return nil, false, err
	}
	rp.t.timed("cxrpq.prepare", func() { p, err = cxrpq.Prepare(q) })
	if err != nil {
		return nil, false, err
	}
	var s *cxrpq.Session
	rp.t.timed("cxrpq.bind", func() { s = p.Bind(rp.view) })
	if len(rp.pool) >= 128 {
		rp.pool = map[string]*cxrpq.Session{}
	}
	rp.pool[text] = s
	rp.parsed[text] = q
	return s, true, nil
}

// probeLayers times the planner, xregex, engine and ecrpq work of a fresh
// text stand-alone: the plan, then per distinct classical atom label its
// compiled automaton, one batched kernel sweep over all sources and the
// cold atom relation.
func (rp *replayer) probeLayers(s *cxrpq.Session, q *cxrpq.Query) {
	rp.t.timed("planner.plan", func() { _, _ = s.PlanReport() }) // a plan error resurfaces in the evaluation
	sigma := rp.view.Alphabet()
	seen := map[string]bool{}
	srcs := make([]int, rp.view.NumNodes())
	for i := range srcs {
		srcs[i] = i
	}
	for _, e := range q.Pattern.Edges {
		key := xregex.String(e.Label)
		if seen[key] || !(cxrpq.CXRE{e.Label}).IsClassical() {
			continue
		}
		seen[key] = true
		var cache *automata.SubsetCache
		rp.t.timed("xregex.compile", func() {
			if nfa, err := xregex.Compile(e.Label, sigma); err == nil {
				cache = automata.NewSubsetCache(nfa)
			}
		})
		if cache == nil {
			continue
		}
		rp.t.timed("engine.reach_batch", func() {
			engine.ReachBatch(rp.view.Index(), rp.view.Partition(engine.Shards()), cache, srcs, true)
		})
		rp.t.timed("ecrpq.relation", func() { _, _ = ecrpq.RelationFor(rp.view, e.Label, sigma) })
	}
}

// probeEquality runs the Theorem 2 translation of a simple text through the
// ecrpq equality product under the request's budget.
func (rp *replayer) probeEquality(q *cxrpq.Query, j *job) {
	eq, err := cxrpq.SimpleToECRPQer(q, nil)
	if err != nil {
		return
	}
	bud := budgetFor(j)
	rp.t.timed("ecrpq.equality_eval", func() {
		if j.class == "bool" || j.class == "check" {
			_, _ = ecrpq.EvalBoolBudget(eq, rp.view, bud) // truncation is the measured outcome
			return
		}
		n := 0
		_ = ecrpq.EvalStream(eq, rp.view, bud, false, func(_ pattern.Tuple, _ int) bool {
			n++
			return n < pageLimit
		})
	})
}

func budgetFor(j *job) *engine.Budget {
	var deadline time.Time
	if j.q.DeadlineMS > 0 {
		deadline = time.Now().Add(time.Duration(j.q.DeadlineMS) * time.Millisecond)
	}
	return engine.NewBudget(nil, deadline, 0)
}

// query replays one /query job and its cursor fetches.
func (rp *replayer) query(j *job) error {
	body, err := json.Marshal(j.q)
	if err != nil {
		return err
	}
	rp.t.begin("serve.request")
	defer rp.t.end()
	var req queryReq
	rp.t.timed("serve.decode", func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return err
	}
	s, miss, err := rp.session(req.Query)
	if err != nil {
		return err
	}
	q := rp.parsed[req.Query]
	if miss {
		rp.probeLayers(s, q)
	}
	if req.Semantics == "" && q.IsSimple() && !q.IsCRPQ() {
		rp.probeEquality(q, j)
	}
	sem, k := semOf(req.Semantics), 0
	if req.K != nil {
		k = *req.K
	}
	before := s.Stats()
	mc0 := xregex.MatchCacheInfo()
	var rows []cxrpq.Row
	switch j.class {
	case "page", "ranked":
		var cur *cxrpq.Cursor
		var deadline time.Time
		if req.DeadlineMS > 0 {
			deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
		}
		rp.t.timed("cxrpq.ttfr", func() {
			cur, err = s.Stream(cxrpq.StreamOptions{Semantics: sem, K: k, Ranked: req.Ranked, Deadline: deadline})
			if err == nil {
				rows = cur.Fetch(1)
			}
		})
		if err != nil {
			return err
		}
		defer cur.Close()
		if len(rows) == 1 {
			rp.t.timed("cxrpq.page", func() { rows = append(rows, cur.Fetch(req.Limit-1)...) })
		}
		rp.encode(rows)
		for f := 0; f < j.fetches && len(rows) == req.Limit; f++ {
			rp.t.timed("cxrpq.page", func() { rows = cur.Fetch(req.Limit) })
			rp.encode(rows)
		}
	default:
		var tuple []int
		for _, name := range req.Tuple {
			id, ok := rp.view.Lookup(name)
			if !ok {
				return fmt.Errorf("unknown node %q", name)
			}
			tuple = append(tuple, id)
		}
		var resp cxrpq.Response
		op := map[string]string{"full": "eval", "bool": "bool", "check": "check"}[j.class]
		rp.t.timed("cxrpq.do", func() {
			resp = s.Do(cxrpq.Request{Op: op, Semantics: sem, K: k, Tuple: tuple, Budget: budgetFor(j)})
		})
		if resp.Tuples != nil {
			for _, t := range resp.Tuples.Sorted() {
				rows = append(rows, cxrpq.Row{Tuple: t})
			}
		}
		rp.encode(rows)
	}
	after := s.Stats()
	mc1 := xregex.MatchCacheInfo()
	rp.c.resultHits += after.ResultHits - before.ResultHits
	rp.c.resultLookups += after.ResultHits + after.ResultMisses - before.ResultHits - before.ResultMisses
	rp.c.relHits += after.Rel.Hits - before.Rel.Hits
	rp.c.relLookups += after.Rel.Hits + after.Rel.Misses - before.Rel.Hits - before.Rel.Misses
	rp.c.matchHits += mc1.Hits - mc0.Hits
	rp.c.matchLookups += mc1.Hits + mc1.Misses - mc0.Hits - mc0.Misses
	return nil
}

// encode serializes a page the way the server's response encoder does.
func (rp *replayer) encode(rows []cxrpq.Row) {
	rp.c.rows += len(rows)
	rp.t.timed("serve.encode", func() {
		out := make([][]string, len(rows))
		for i, r := range rows {
			out[i] = names(rp.view, r.Tuple)
		}
		_, _ = json.MarshalIndent(map[string]any{"answers": out}, "", "  ") // encoding cannot fail on strings
	})
}

// update replays one /update: apply, WAL append (and checkpoint once the
// log outgrows the write-mix threshold), snapshot, and Fork of every
// pooled session.
func (rp *replayer) update(j *job) error {
	body, err := json.Marshal(j.u)
	if err != nil {
		return err
	}
	rp.t.begin("serve.request")
	defer rp.t.end()
	var req updateReq
	var d graph.Delta
	rp.t.timed("serve.decode", func() {
		if err = json.Unmarshal(body, &req); err != nil {
			return
		}
		if d.Add, err = graph.ParseDeltaEdges(req.Edges); err == nil {
			d.Del, err = graph.ParseDeltaEdges(req.Remove)
		}
	})
	if err != nil {
		return err
	}
	from := rp.live.Revision()
	rp.t.timed("graph.apply_delta", func() { _, err = rp.live.ApplyDelta(d) })
	if err != nil {
		return err
	}
	rp.c.updates++
	rp.c.edgesAdded += len(d.Add)
	if rp.store != nil {
		s0 := rp.store.Stats()
		rp.t.timed("graph.wal_append", func() { err = rp.store.Append(d, from, rp.live.Revision()) })
		if err != nil {
			return err
		}
		s1 := rp.store.Stats()
		rp.c.fsyncs += s1.Fsyncs - s0.Fsyncs
		rp.c.walBytes += uint64(s1.WALBytes - s0.WALBytes)
		if s1.WALBytes > checkpointBytes {
			rp.t.timed("graph.checkpoint", func() { err = rp.store.Checkpoint() })
			if err != nil {
				return err
			}
			rp.c.checkpoints++
		}
	}
	rp.publish()
	return nil
}

// publish snapshots the live DB and forks every pooled session onto it.
func (rp *replayer) publish() {
	var m0, m1 cxrpq.SessionMaint
	var r0, r1 ecrpq.RelCacheStats
	for _, s := range rp.pool {
		st := s.Stats()
		m0.DeltaApplies += st.Maint.DeltaApplies
		m0.FullRebuilds += st.Maint.FullRebuilds
		r0.Retained += st.Rel.Retained
		r0.Extended += st.Rel.Extended
	}
	rp.t.timed("graph.snapshot", func() { rp.view = rp.live.Snapshot().DB() })
	rp.t.timed("cxrpq.fork", func() {
		for text, s := range rp.pool {
			rp.pool[text] = s.Fork(rp.view)
		}
	})
	for _, s := range rp.pool {
		st := s.Stats()
		m1.DeltaApplies += st.Maint.DeltaApplies
		m1.FullRebuilds += st.Maint.FullRebuilds
		r1.Retained += st.Rel.Retained
		r1.Extended += st.Rel.Extended
	}
	rp.c.deltaApplies += m1.DeltaApplies - m0.DeltaApplies
	rp.c.fullRebuilds += m1.FullRebuilds - m0.FullRebuilds
	rp.c.relKept += r1.Retained - r0.Retained
	rp.c.relExtended += r1.Extended - r0.Extended
}

// replayJobs runs jobs in order and returns the process-wide counter
// deltas folded into rp.c.
func (rp *replayer) replayJobs(jobs []*job) error {
	k0, p0 := engine.ReachBatchStats(), planner.Stats()
	g0 := rp.live.MaintStats()
	for i, j := range jobs {
		rp.t.req = i
		rp.c.requests++
		var err error
		if j.u != nil {
			err = rp.update(j)
		} else {
			err = rp.query(j)
		}
		if err != nil {
			return fmt.Errorf("replay job %d: %w", j.id, err)
		}
	}
	k1, p1 := engine.ReachBatchStats(), planner.Stats()
	g1 := rp.live.MaintStats()
	rp.c.kernel = engine.KernelStats{Batches: k1.Batches - k0.Batches, Levels: k1.Levels - k0.Levels,
		Sources: k1.Sources - k0.Sources, Edges: k1.Edges - k0.Edges, Exchanged: k1.Exchanged - k0.Exchanged}
	for i := range k1.PerShard {
		v := k1.PerShard[i]
		if i < len(k0.PerShard) && len(k0.PerShard) == len(k1.PerShard) {
			v.Edges -= k0.PerShard[i].Edges
		}
		rp.c.kernel.PerShard = append(rp.c.kernel.PerShard, v)
	}
	rp.c.plan = planner.Counters{ContainChecks: p1.ContainChecks - p0.ContainChecks,
		AtomsMinimized: p1.AtomsMinimized - p0.AtomsMinimized, AcyclicPlans: p1.AcyclicPlans - p0.AcyclicPlans,
		SemijoinPasses: p1.SemijoinPasses - p0.SemijoinPasses, CyclicFallback: p1.CyclicFallback - p0.CyclicFallback}
	rp.c.indexExtended = g1.IndexExtended - g0.IndexExtended
	rp.c.indexRebuilds = g1.IndexRebuilds - g0.IndexRebuilds
	return nil
}

// finish closes the store and, for write-mix, times recovery by reopening
// the replay's data directory.
func (rp *replayer) finish() error {
	if rp.store == nil {
		return nil
	}
	if err := rp.store.Close(); err != nil {
		return err
	}
	rp.t.req = -1
	var st *graph.Store
	var err error
	rp.t.timed("graph.open_store", func() {
		st, err = graph.OpenStore(rp.dir, graph.StoreOptions{SyncEvery: 1, CheckpointBytes: -1})
	})
	if err != nil {
		return err
	}
	return st.Close()
}

// replay runs the traced run: an untraced warm-up pass that also fixes how
// many jobs fit the time budget, a traced pass whose spans give the
// per-layer metrics, and a second untraced pass; the tracing overhead is
// the traced pass's wall time over the untraced one's.
func (r *part) replay(stream []*job) ([]metric, error) {
	budget := min(replayBudget, time.Duration(r.seconds*openShare*float64(time.Second)))
	// pass replays jobs (a prefix of stream within the budget when jobs is
	// nil) and returns the replayer, the jobs it ran and its wall time.
	pass := func(jobs []*job, on bool, tag string) (*replayer, []*job, time.Duration, error) {
		// Every pass starts from an empty process-wide match cache, as a
		// fresh server does, so no pass hits entries an earlier one made.
		xregex.SetMatchCacheCap(xregex.SetMatchCacheCap(1)) // shrinking drops the cached entries
		t := &tracer{on: on, t0: time.Now()}
		rp, err := newReplayer(r.w, t, r.text, r.edges, filepath.Join(r.dir, "replay-"+tag))
		if err != nil {
			return nil, nil, 0, err
		}
		start := time.Now()
		if jobs == nil {
			n := 0
			for n < len(stream) && time.Since(start) < budget {
				if err := rp.replayJobs(stream[n : n+1]); err != nil {
					return nil, nil, 0, err
				}
				n++
			}
			jobs = stream[:n]
		} else if err := rp.replayJobs(jobs); err != nil {
			return nil, nil, 0, err
		}
		wall := time.Since(start)
		return rp, jobs, wall, rp.finish()
	}
	_, jobs, _, err := pass(nil, false, "warm")
	if err != nil {
		return nil, err
	}
	traced, _, onWall, err := pass(jobs, true, "on")
	if err != nil {
		return nil, err
	}
	_, _, offWall, err := pass(jobs, false, "off")
	if err != nil {
		return nil, err
	}
	for _, tag := range []string{"warm", "on", "off"} {
		if err := os.RemoveAll(filepath.Join(r.dir, "replay-"+tag)); err != nil {
			return nil, err
		}
	}
	probe, err := controlProbes(r.w, r.seed, r.text, r.edges, filepath.Join(r.dir, "replay-probe"))
	if err != nil {
		return nil, err
	}
	if err := writeJSONFile(filepath.Join(r.dir, "spans.json"), traced.t.spans); err != nil {
		return nil, err
	}
	ms := layerMetrics(traced, probe)
	ms = append(ms,
		metric{Name: "trace.replayed_requests", Value: float64(len(jobs)), Unit: "count", N: 1},
		metric{Name: "trace.overhead_frac", Value: onWall.Seconds()/offWall.Seconds() - 1, Unit: "ratio", N: 1,
			Note: fmt.Sprintf("traced %.3fs vs untraced %.3fs", onWall.Seconds(), offWall.Seconds())})
	return ms, nil
}

// controlProbes times, once each on the workload's own graph, the calls a
// workload's replay may never make (Fork, the write path, the store and
// the equality product), so every per-layer time has a measured value; a
// metric falls back to its probe only when the replay made no such call.
func controlProbes(w *workloadSpec, seed int64, text string, edges []string, dir string) (map[string]float64, error) {
	t := &tracer{on: true, t0: time.Now(), req: -1}
	defer os.RemoveAll(dir)
	wd := *w
	wd.durable = true
	rp, err := newReplayer(&wd, t, text, edges, dir)
	if err != nil {
		return nil, err
	}
	s, _, err := rp.session(readHotPool[0].text)
	if err != nil {
		return nil, err
	}
	if _, err := s.Eval(); err != nil {
		return nil, err
	}
	// The equality product runs on a gMark-150 graph, the vsf-equality
	// size: on larger graphs a single probe overruns its deadline by
	// seconds.
	small, _, _ := graphText(seed, 150)
	sdb, err := graph.Parse(small)
	if err != nil {
		return nil, err
	}
	q, err := cxrpq.Parse(vsfPool[0].text)
	if err != nil {
		return nil, err
	}
	eq, err := cxrpq.SimpleToECRPQer(q, nil)
	if err != nil {
		return nil, err
	}
	t.timed("ecrpq.equality_eval", func() {
		_, _ = ecrpq.EvalBoolBudget(eq, sdb, engine.NewBudget(nil, time.Now().Add(20*time.Millisecond), 0)) // truncation is the measured outcome
	})
	batch := &job{u: &updateReq{DB: dbName, Edges: "v0 a v1\nv1 b v2\n"}}
	if err := rp.update(batch); err != nil {
		return nil, err
	}
	t.timed("graph.checkpoint", func() { err = rp.store.Checkpoint() })
	if err != nil {
		return nil, err
	}
	if err := rp.finish(); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, sp := range t.spans {
		out[sp.Name] = sp.ms() // last call of each name
	}
	return out, nil
}

// layerMetric is a per-layer metric with the end-to-end metric it should
// move and the workloads it should (and should not) move it on.
type layerMetric struct {
	metric
	Moves string `json:"moves"`
	On    string `json:"on"`
}

// layerTable lists every per-layer metric: name, unit, the end-to-end
// metric it should move, and on which workload (in parentheses: where it
// should not).
var layerTable = []struct{ name, unit, moves, on string }{
	{"serve.overhead_p50_ms", "ms", "query_p50_ms,fetch_p50_ms", "read-hot (not vsf-equality)"},
	{"serve.overhead_p99_ms", "ms", "query_p50_ms,fetch_p50_ms", "read-hot (not vsf-equality)"},
	{"serve.response_bytes_per_row", "B/row", "fetch_p50_ms", "read-hot"},
	{"serve.shed", "count", "truncated_frac,fetch_p99_ms", "write-mix"},
	{"serve.cursor_gone", "count", "truncated_frac,fetch_p99_ms", "write-mix"},
	{"serve.sessions_pooled", "count", "truncated_frac,fetch_p99_ms", "write-mix"},
	{"serve.cursors_open", "count", "truncated_frac,fetch_p99_ms", "write-mix"},
	{"load.lag_p99_ms", "ms", "-", "all (validity check)"},
	{"cxrpq.parse_ms", "ms", "query_p50_ms", "read-cold (not read-hot)"},
	{"cxrpq.prepare_ms", "ms", "query_p50_ms", "read-cold (not read-hot)"},
	{"cxrpq.bind_ms", "ms", "query_p50_ms", "read-cold (not read-hot)"},
	{"cxrpq.ttfr_p50_ms", "ms", "query_p50_ms,query_p99_ms", "all read workloads"},
	{"cxrpq.ttfr_p99_ms", "ms", "query_p50_ms,query_p99_ms", "all read workloads"},
	{"cxrpq.page_ms", "ms", "fetch_p50_ms,query_p50_ms", "read-hot"},
	{"cxrpq.do_ms", "ms", "fetch_p50_ms,query_p50_ms", "read-hot"},
	{"cxrpq.result_hit_ratio", "ratio", "query_p50_ms", "read-hot (read-cold ~0)"},
	{"cxrpq.fork_ms", "ms", "update_p50_ms,update_p99_ms", "write-mix (not read-hot)"},
	{"cxrpq.delta_applies", "count", "update_p50_ms,update_p99_ms", "write-mix (not read-hot)"},
	{"cxrpq.full_rebuilds", "count", "update_p50_ms,update_p99_ms", "write-mix (not read-hot)"},
	{"xregex.match_cache_hit_ratio", "ratio", "query_p50_ms", "read-cold"},
	{"planner.plan_ms", "ms", "query_p50_ms", "read-cold (not read-hot)"},
	{"planner.contain_checks", "count/req", "query_p50_ms,query_p99_ms", "read-cold"},
	{"planner.atoms_minimized", "count/req", "query_p50_ms,query_p99_ms", "read-cold"},
	{"planner.acyclic_plans", "count/req", "query_p50_ms,query_p99_ms", "read-cold"},
	{"planner.semijoin_passes", "count/req", "query_p50_ms,query_p99_ms", "read-cold"},
	{"planner.cyclic_fallbacks", "count/req", "query_p50_ms,query_p99_ms", "read-cold"},
	{"ecrpq.relation_ms", "ms", "query_p50_ms", "read-cold (not read-hot)"},
	{"ecrpq.rel_hit_ratio", "ratio", "query_p50_ms", "read-hot (not read-cold)"},
	{"ecrpq.rel_extended", "count/update", "update_p50_ms", "write-mix"},
	{"ecrpq.rel_retained", "count/update", "update_p50_ms", "write-mix"},
	{"ecrpq.equality_eval_ms", "ms", "query_p50_ms,deadline_miss_frac", "vsf-equality (not read-hot)"},
	{"engine.batches", "count/req", "query_p50_ms,capacity_ops_per_s", "read-cold,write-mix (not read-hot)"},
	{"engine.levels", "count/req", "query_p50_ms,capacity_ops_per_s", "read-cold,write-mix (not read-hot)"},
	{"engine.sources", "count/req", "query_p50_ms,capacity_ops_per_s", "read-cold,write-mix (not read-hot)"},
	{"engine.edges", "count/req", "query_p50_ms,capacity_ops_per_s", "read-cold,write-mix (not read-hot)"},
	{"engine.exchanged", "count/req", "query_p50_ms,capacity_ops_per_s", "read-cold,write-mix (not read-hot)"},
	{"engine.edges_per_row", "edges/row", "capacity_ops_per_s", "read-cold"},
	{"engine.shard_skew", "ratio", "capacity_ops_per_s", "read-cold"},
	{"graph.apply_delta_ms", "ms", "update_p50_ms,update_p99_ms", "write-mix (not read-hot)"},
	{"graph.snapshot_ms", "ms", "update_p50_ms,update_p99_ms", "write-mix (not read-hot)"},
	{"graph.wal_append_ms", "ms", "update_p50_ms,update_p99_ms", "write-mix (not read-hot)"},
	{"graph.checkpoint_ms", "ms", "update_p50_ms,update_p99_ms", "write-mix (not read-hot)"},
	{"graph.open_store_ms", "ms", "recovery_s", "write-mix"},
	{"graph.fsyncs_per_update", "count/update", "update_p99_ms,stored_bytes_per_user_byte", "write-mix"},
	{"graph.wal_bytes_per_edge", "B/edge", "update_p99_ms,stored_bytes_per_user_byte", "write-mix"},
	{"graph.checkpoints", "count", "update_p99_ms,stored_bytes_per_user_byte", "write-mix"},
	{"graph.index_extended", "count", "update_p99_ms,stored_bytes_per_user_byte", "write-mix"},
	{"graph.index_rebuilds", "count", "update_p99_ms,stored_bytes_per_user_byte", "write-mix"},
	{"serve.self_ms_per_req", "ms", "query_p50_ms", "read-hot"},
	{"cxrpq.self_ms_per_req", "ms", "query_p50_ms", "all read workloads"},
	{"xregex.self_ms_per_req", "ms", "query_p50_ms", "read-cold"},
	{"planner.self_ms_per_req", "ms", "query_p50_ms", "read-cold"},
	{"ecrpq.self_ms_per_req", "ms", "query_p50_ms", "read-cold,vsf-equality"},
	{"engine.self_ms_per_req", "ms", "query_p50_ms", "read-cold"},
	{"graph.self_ms_per_req", "ms", "update_p50_ms", "write-mix"},
	{"trace.replayed_requests", "count", "-", "all"},
	{"trace.overhead_frac", "ratio", "-", "all (traced vs untraced replay wall time)"},
}

func describeLayer(m metric) layerMetric {
	for _, row := range layerTable {
		if row.name == m.Name {
			return layerMetric{metric: m, Moves: row.moves, On: row.on}
		}
	}
	return layerMetric{metric: m}
}

// layerMetrics derives the replay's per-layer metrics from the traced
// pass's spans and counters; probe supplies times for calls the replay
// never made.
func layerMetrics(rp *replayer, probe map[string]float64) []metric {
	spans := rp.t.spans
	durs := map[string][]float64{}
	childTime := make([]int64, len(spans))
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.ms())
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	// Self time counts the replay's set-up spans too (graph load and first
	// snapshot), so every layer's figure is a measured time.
	self := map[string]float64{}
	for i, s := range spans {
		self[s.layer()] += float64(s.End-s.Start-childTime[i]) / 1e6
	}
	c := &rp.c
	perReq := func(v uint64) float64 { return float64(v) / float64(max(1, c.requests)) }
	perUpd := func(v uint64) float64 { return float64(v) / float64(max(1, c.updates)) }
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	meanOf := func(name, span string) metric {
		xs := durs[span]
		if len(xs) == 0 {
			return metric{Name: name, Value: probe[span], Unit: "ms", N: 0, Note: "control probe: no such call on this workload"}
		}
		return metric{Name: name, Value: mean(xs), Unit: "ms", N: len(xs)}
	}
	ttfr := durs["cxrpq.ttfr"]
	t50, _ := percentile(ttfr, 0.5)
	t99, ok := percentile(ttfr, 0.99)
	t99m := metric{Name: "cxrpq.ttfr_p99_ms", Value: t99, Unit: "ms", N: len(ttfr)}
	if !ok {
		t99m.Note = fmt.Sprintf("unsupported: fewer than %d samples beyond", minBeyond)
	}
	var maxShard, sumShard float64
	for _, v := range c.kernel.PerShard {
		sumShard += float64(v.Edges)
		maxShard = max(maxShard, float64(v.Edges))
	}
	skew := 0.0
	if sumShard > 0 {
		skew = maxShard / (sumShard / float64(len(c.kernel.PerShard)))
	}
	cnt := func(name string, v float64, unit string) metric {
		return metric{Name: name, Value: v, Unit: unit, N: c.requests}
	}
	out := []metric{
		meanOf("cxrpq.parse_ms", "cxrpq.parse"),
		meanOf("cxrpq.prepare_ms", "cxrpq.prepare"),
		meanOf("cxrpq.bind_ms", "cxrpq.bind"),
		{Name: "cxrpq.ttfr_p50_ms", Value: t50, Unit: "ms", N: len(ttfr)},
		t99m,
		meanOf("cxrpq.page_ms", "cxrpq.page"),
		meanOf("cxrpq.do_ms", "cxrpq.do"),
		cnt("cxrpq.result_hit_ratio", frac(c.resultHits, c.resultLookups), "ratio"),
		meanOf("cxrpq.fork_ms", "cxrpq.fork"),
		cnt("cxrpq.delta_applies", float64(c.deltaApplies), "count"),
		cnt("cxrpq.full_rebuilds", float64(c.fullRebuilds), "count"),
		cnt("xregex.match_cache_hit_ratio", frac(c.matchHits, c.matchLookups), "ratio"),
		meanOf("planner.plan_ms", "planner.plan"),
		cnt("planner.contain_checks", perReq(c.plan.ContainChecks), "count/req"),
		cnt("planner.atoms_minimized", perReq(c.plan.AtomsMinimized), "count/req"),
		cnt("planner.acyclic_plans", perReq(c.plan.AcyclicPlans), "count/req"),
		cnt("planner.semijoin_passes", perReq(c.plan.SemijoinPasses), "count/req"),
		cnt("planner.cyclic_fallbacks", perReq(c.plan.CyclicFallback), "count/req"),
		meanOf("ecrpq.relation_ms", "ecrpq.relation"),
		cnt("ecrpq.rel_hit_ratio", frac(c.relHits, c.relLookups), "ratio"),
		cnt("ecrpq.rel_extended", perUpd(c.relExtended), "count/update"),
		cnt("ecrpq.rel_retained", perUpd(c.relKept), "count/update"),
		meanOf("ecrpq.equality_eval_ms", "ecrpq.equality_eval"),
		cnt("engine.batches", perReq(c.kernel.Batches), "count/req"),
		cnt("engine.levels", perReq(c.kernel.Levels), "count/req"),
		cnt("engine.sources", perReq(c.kernel.Sources), "count/req"),
		cnt("engine.edges", perReq(c.kernel.Edges), "count/req"),
		cnt("engine.exchanged", perReq(c.kernel.Exchanged), "count/req"),
		cnt("engine.edges_per_row", float64(c.kernel.Edges)/float64(max(1, c.rows)), "edges/row"),
		cnt("engine.shard_skew", skew, "ratio"),
		meanOf("graph.apply_delta_ms", "graph.apply_delta"),
		meanOf("graph.snapshot_ms", "graph.snapshot"),
		meanOf("graph.wal_append_ms", "graph.wal_append"),
		meanOf("graph.checkpoint_ms", "graph.checkpoint"),
		meanOf("graph.open_store_ms", "graph.open_store"),
		cnt("graph.fsyncs_per_update", perUpd(c.fsyncs), "count/update"),
		cnt("graph.wal_bytes_per_edge", float64(c.walBytes)/float64(max(1, c.edgesAdded)), "B/edge"),
		cnt("graph.checkpoints", float64(c.checkpoints), "count"),
		cnt("graph.index_extended", float64(c.indexExtended), "count"),
		cnt("graph.index_rebuilds", float64(c.indexRebuilds), "count"),
	}
	layers := []string{"serve", "cxrpq", "xregex", "planner", "ecrpq", "engine", "graph"}
	for _, l := range layers {
		out = append(out, metric{Name: l + ".self_ms_per_req", Value: self[l] / float64(max(1, c.requests)), Unit: "ms", N: c.requests})
	}
	return out
}
