// Command cxbench is the end-to-end benchmark of cxrpq-serve. It starts the
// real server on a seeded gMark graph, drives it over HTTP in an open-loop
// phase (Poisson arrivals at the workload's fixed rate, latency timed from
// each request's due time) and a closed-loop phase (one client per CPU,
// measuring capacity), checks every answer, and prints every end-to-end
// metric with its unit and sample count. With -trace 1 it also replays the
// same seeded requests in-process through the public call of each layer,
// recording spans, and reports the per-layer metrics instead.
//
// Run it through run.sh from the repository root, which builds both
// binaries from source:
//
//	bash cxbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero on any
// wrong answer or lost acknowledged write.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cxrpq/internal/graph"
)

// Fixed benchmark settings recorded with every run.
const (
	// openShare is the share of --seconds spent in the open-loop phase;
	// the closed-loop phase, which gives every gated metric but set-up
	// time and memory, takes the rest.
	openShare = 0.3
	// maxLagMS bounds the generator's lateness at p99; beyond it the run
	// is marked invalid.
	maxLagMS = 20
	// checkpointBytes is the write-mix -checkpoint-bytes: low enough for
	// several checkpoints per run.
	checkpointBytes = 8192
	// sampleEvery keeps one in sampleEvery read-cold/vsf-equality jobs for
	// re-verification after the run; at most maxVerify are re-evaluated.
	sampleEvery  = 8
	maxVerify    = 12
	verifyBudget = 4 * time.Second // re-verification time per run
)

func main() {
	wname := flag.String("workload", "", "workload: read-hot, read-cold, write-mix or vsf-equality")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run (open plus closed loop)")
	trace := flag.Int("trace", 0, "1: replay in-process with spans and report per-layer metrics")
	bin := flag.String("server", "", "cxrpq-serve binary")
	work := flag.String("work", "", "directory for graphs, data directories, logs and run records")
	root := flag.String("root", ".", "repository root (for the run record's source digest)")
	flag.Parse()
	w := workloadByName(*wname)
	if w == nil || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: cxbench -server bin -work dir --workload name --seed n --seconds s --trace 0|1")
		os.Exit(2)
	}
	r := &runner{w: w, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, bin: *bin, root: *root,
		dir: filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))}
	res, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one reported number with its sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// gated lists the end-to-end metrics of the final JSON line with -trace 0:
// those every workload reports, that are never zero, and that repeat
// within the benchmark's bounds across seeds. The open-loop query_p50_ms
// is printed but not gated: on read-cold it moved by a third between
// seeds, while the closed-loop first-page median (query_closed_p50_ms,
// timed from the send, no generator queue) moved by a tenth.
var gated = []string{"query_closed_p50_ms", "capacity_ops_per_s", "peak_rss_mb", "setup_s"}

type runner struct {
	w        *workloadSpec
	seed     int64
	seconds  float64
	trace    bool
	bin      string
	root     string
	dir      string
	failures []string
}

// part is one graph of a run: a run measures w.graphs gMark graphs in
// turn, each with its own server, so a metric averages over several graph
// draws instead of riding on one draw's hub structure.
type part struct {
	*runner
	seed      int64 // graph and stream seed of this part
	dir       string
	graphPath string
	dataDir   string
	flags     []string
	db        *graph.DB // in-process copy of the server's start state
	text      string
	edges     []string
	gen       *generator
	exp       *expected
	open      []*job
	closed    []*job // closed-loop jobs in the order the generator dealt them
}

func (r *runner) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintln(os.Stderr, "cxbench: FAIL:", msg)
}

func (r *runner) run() (*result, error) {
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	rep := &report{w: r.w}
	var parts []*part
	for i := 0; i < r.w.graphs; i++ {
		p := &part{runner: r, seed: r.seed*int64(r.w.graphs) + int64(i),
			dir: filepath.Join(r.dir, fmt.Sprintf("graph%d", i))}
		if err := p.measure(rep); err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	for _, s := range append(append([]sample(nil), rep.open...), rep.closed...) {
		if strings.HasPrefix(s.err, "wrong answer") {
			r.fail("%s", s.err)
		}
	}
	var open []*job
	for _, p := range parts {
		open = append(open, p.open...)
	}
	rep.inputs = measureInputs(r.w, open, rep.open)

	e2e := rep.endToEnd()
	var layer []metric
	if r.trace {
		layer = rep.serveLayer()
		tr, err := parts[0].replay(append(append([]*job(nil), parts[0].open...), parts[0].closed...))
		if err != nil {
			return nil, err
		}
		layer = append(layer, tr...)
	}
	rec := r.record(rep, e2e, layer, runtime.NumCPU(), parts[0].flags)
	printReport(rec)
	if err := writeJSONFile(filepath.Join(r.dir, "record.json"), rec); err != nil {
		return nil, err
	}

	res := &result{Correct: len(r.failures) == 0, Metrics: map[string]metricValue{}}
	for _, s := range append(append([]sample(nil), rep.open...), rep.closed...) {
		res.Attempted++
		if s.err != "" {
			res.Failed++
		}
	}
	res.Attempted += rep.extraAttempted
	res.Failed += rep.extraFailed
	names, ms := gated, e2e
	if r.trace {
		names, ms = nil, layer
		for _, row := range layerTable {
			names = append(names, row.name)
		}
	}
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	for _, name := range names {
		m, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not produce %s", r.w.name, name)
		}
		res.Metrics[name] = metricValue{m.Value, m.Unit}
	}
	return res, nil
}

// measure runs one part: it generates the graph and the seeded stream, sets
// the server up (its share of the workload's set-ups), drives the open- and closed-loop phases, runs the workload's
// answer checks and folds everything into rep.
func (r *part) measure(rep *report) error {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	text, names, edges := graphText(r.seed, r.w.nodes)
	r.text, r.edges = text, edges
	r.graphPath = filepath.Join(r.dir, "graph.txt")
	if err := os.WriteFile(r.graphPath, []byte(text), 0o644); err != nil {
		return err
	}
	db, err := r.startDB()
	if err != nil {
		return err
	}
	r.db = db
	r.gen = newGenerator(r.w, r.seed, names, edges)
	if r.w.check == "all" {
		if r.exp, err = computeExpected(r.w.pool, db); err != nil {
			return err
		}
		r.gen.exp = r.exp
	}
	r.flags = []string{"-db", dbName + "=" + r.graphPath}
	if r.w.durable {
		r.dataDir = filepath.Join(r.dir, "data")
		defer os.RemoveAll(r.dataDir)
		r.flags = append(r.flags, "-data-dir", r.dataDir, "-wal-sync-every", "1",
			"-checkpoint-bytes", fmt.Sprint(checkpointBytes))
	}
	dur := r.seconds / float64(r.w.graphs)
	openDur := dur * openShare
	r.open = r.gen.schedule(openDur)
	nextID := len(r.open)
	next := func() *job {
		j := r.w.next(r.gen, nextID)
		nextID++
		r.closed = append(r.closed, j)
		return j
	}

	// Set up one or more times and keep the last server.
	var srv *server
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	for i := 0; i < (r.w.setups+r.w.graphs-1)/r.w.graphs; i++ {
		if srv != nil {
			srv.kill()
		}
		if err := os.RemoveAll(r.dataDir); r.dataDir != "" && err != nil {
			return err
		}
		var s float64
		if srv, s, err = r.setup(); err != nil {
			return err
		}
		rep.setups = append(rep.setups, s)
	}

	before, err := srv.stats()
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	cl := newClient(srv.base, nproc, time.Now())
	defer cl.close()
	switch r.w.check {
	case "all":
		cl.check = func(j *job, page int, resp *queryResp, st *pageState) error {
			return r.exp.checkPage(j, page, resp, st)
		}
	default:
		cl.check = func(j *job, _ int, resp *queryResp, st *pageState) error {
			if j.class == "bool" || j.class == "check" {
				if resp.Bool == nil {
					return fmt.Errorf("%s response without bool", j.class)
				}
				return nil
			}
			return checkRows(resp, nil, st)
		}
		if r.w.check == "sample" {
			cl.keep = func(j *job) bool { return keepForVerify(r.seed, j.id) }
		}
	}
	openSamples, lags := cl.openLoop(r.open, nproc)
	closedSamples, closedDur := cl.closedLoop(next, nproc, dur-openDur)
	after, err := srv.stats()
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return err
	}
	rep.open = append(rep.open, openSamples...)
	rep.closed = append(rep.closed, closedSamples...)
	rep.closedDur += closedDur
	rep.lags = append(rep.lags, lags...)
	rep.rssMiB = append(rep.rssMiB, rss)
	rep.stats = append(rep.stats, [2]*serverStats{before, after})
	if r.w.durable {
		if srv, err = r.durability(srv, cl, rep, after); err != nil {
			return err
		}
	}
	if r.w.check == "sample" {
		r.verifyKept(cl, rep)
	}
	return nil
}

// startDB builds the in-process copy of the server's initial database,
// interning nodes in the order the server does.
func (r *part) startDB() (*graph.DB, error) {
	if !r.w.durable {
		return graph.Parse(r.text)
	}
	d, err := seedDelta(r.edges)
	if err != nil {
		return nil, err
	}
	db := graph.New()
	_, err = db.ApplyDelta(d)
	return db, err
}

// setup spawns the server and, for read-hot, sends every pool request once.
// It returns the server and seconds from spawn to ready.
func (r *part) setup() (*server, float64, error) {
	t0 := time.Now()
	srv, _, err := startServer(r.bin, r.flags, filepath.Join(r.dir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	if r.w.warm {
		if err := r.warmUp(srv); err != nil {
			srv.kill()
			return nil, 0, err
		}
	}
	return srv, time.Since(t0).Seconds(), nil
}

// warmUp sends each pool entry once in every class the workload uses for
// it, checking the answers.
func (r *part) warmUp(srv *server) error {
	cl := newClient(srv.base, 1, time.Now())
	defer cl.close()
	cl.check = func(j *job, page int, resp *queryResp, st *pageState) error {
		return r.exp.checkPage(j, page, resp, st)
	}
	for i, e := range r.w.pool {
		classes := []string{"page", "bool"}
		switch {
		case e.ranked:
			classes = []string{"ranked"}
		case !e.big:
			classes = append(classes, "full")
		}
		for _, class := range classes {
			j := r.gen.poolQuery(-1, i, class)
			j.fetches = 0
			for _, s := range cl.run(j, cl.now()) {
				if s.err != "" {
					return fmt.Errorf("warm-up: %s", s.err)
				}
			}
		}
	}
	return nil
}

// keepForVerify selects the seeded sample of jobs re-verified after the run.
func keepForVerify(seed int64, id int) bool {
	return (uint64(id)*0x9e3779b97f4a7c15+uint64(seed))%sampleEvery == 0
}

// verifyKept re-evaluates the kept sample in-process.
func (r *part) verifyKept(cl *client, rep *report) {
	byID := map[int]*job{}
	for _, j := range r.open {
		byID[j.id] = j
	}
	ids := make([]int, 0, len(cl.kept))
	for id := range cl.kept {
		if byID[id] != nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	start := time.Now()
	for n, id := range ids {
		if n >= maxVerify/r.w.graphs || time.Since(start) > verifyBudget/time.Duration(r.w.graphs) {
			break
		}
		ok, err := verifySample(byID[id], cl.kept[id], r.db, 3*time.Second)
		if err != nil {
			r.fail("sampled re-verification: %v", err)
		}
		if ok {
			rep.verified++
		} else {
			rep.unverifiable++
		}
	}
}

func writeJSONFile(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
