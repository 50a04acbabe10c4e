package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie above it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether at least
// minBeyond samples lie above it. xs need not be sorted.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s)-1-i >= minBeyond
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// report collects one run's measurements.
type report struct {
	w            *workloadSpec
	open, closed []sample
	closedDur    float64
	lags         []float64
	setups       []float64
	rssMiB       []float64         // per part
	stats        [][2]*serverStats // per part: /stats before and after the phases
	inputs       []metric

	// write-mix durability, per part
	recoveryS      []float64
	storedRatio    []float64
	extraAttempted int // durability-check operations
	extraFailed    int

	verified, unverifiable int // sampled re-verification
}

// latencies returns the open-loop latencies of one operation kind.
func (rep *report) latencies(kind string) []float64 {
	var out []float64
	for _, s := range rep.open {
		if s.kind == kind && s.err == "" && !s.gone {
			out = append(out, s.latencyMS())
		}
	}
	return out
}

// pctMetrics reports the median and p99 of xs; an unsupported p99 carries
// a note and is left out of gating.
func pctMetrics(name, unit string, xs []float64) []metric {
	var out []metric
	for _, p := range []struct {
		sfx string
		q   float64
	}{{"_p50_" + unit, 0.5}, {"_p99_" + unit, 0.99}} {
		v, ok := percentile(xs, p.q)
		m := metric{Name: name + p.sfx, Value: v, Unit: unit, N: len(xs)}
		if !ok {
			m.Note = fmt.Sprintf("unsupported: fewer than %d samples beyond", minBeyond)
		}
		out = append(out, m)
	}
	return out
}

// endToEnd computes the end-to-end metrics that apply to the workload.
func (rep *report) endToEnd() []metric {
	out := []metric{{Name: "setup_s", Value: median(rep.setups), Unit: "s", N: len(rep.setups)}}
	out = append(out, pctMetrics("query", "ms", rep.latencies("query"))...)
	var waits []float64
	for _, s := range rep.open {
		if s.kind == "query" && s.err == "" {
			waits = append(waits, (s.sent-s.due)*1000)
		}
	}
	w50, _ := percentile(waits, 0.5)
	out = append(out, metric{Name: "query_wait_p50_ms", Value: w50, Unit: "ms", N: len(waits),
		Note: "due to send: generator lateness plus queueing behind busy connections"})
	var closedQ []float64
	for _, s := range rep.closed {
		if s.kind == "query" && s.err == "" {
			closedQ = append(closedQ, (s.done-s.sent)*1000)
		}
	}
	out = append(out, pctMetrics("query_closed", "ms", closedQ)...)
	out = append(out, pctMetrics("fetch", "ms", rep.latencies("fetch"))...)
	if rep.w.durable {
		out = append(out, pctMetrics("update", "ms", rep.latencies("update"))...)
	}
	done := 0
	for _, s := range rep.closed {
		if s.err == "" {
			done++
		}
	}
	out = append(out, metric{Name: "capacity_ops_per_s", Value: float64(done) / rep.closedDur, Unit: "ops/s", N: done})

	var attempted, failed, responses, truncated, withDeadline, missed int
	for _, s := range append(append([]sample(nil), rep.open...), rep.closed...) {
		attempted++
		if s.err != "" {
			failed++
			continue
		}
		if s.kind == "update" || s.gone {
			continue
		}
		responses++
		if s.truncated || s.shed {
			truncated++
		}
		if s.deadline > 0 {
			withDeadline++
			if (s.done-s.sent)*1000 > float64(s.deadline+deadlineSlackMS) {
				missed++
			}
		}
	}
	attempted += rep.extraAttempted
	failed += rep.extraFailed
	out = append(out,
		metric{Name: "failed_frac", Value: ratio(failed, attempted), Unit: "ratio", N: attempted},
		metric{Name: "truncated_frac", Value: ratio(truncated, responses), Unit: "ratio", N: responses})
	if rep.w.deadlineMS > 0 {
		out = append(out, metric{Name: "deadline_miss_frac", Value: ratio(missed, withDeadline), Unit: "ratio", N: withDeadline,
			Note: fmt.Sprintf("slack %d ms", deadlineSlackMS)})
	}
	out = append(out, metric{Name: "peak_rss_mb", Value: median(rep.rssMiB), Unit: "MiB", N: len(rep.rssMiB)})
	if rep.w.durable {
		out = append(out,
			metric{Name: "recovery_s", Value: median(rep.recoveryS), Unit: "s", N: len(rep.recoveryS)},
			metric{Name: "stored_bytes_per_user_byte", Value: median(rep.storedRatio), Unit: "ratio", N: len(rep.storedRatio)})
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// serveLayer computes the per-layer metrics that only the HTTP run can
// give: serve overhead, response size, /stats deltas and generator lateness.
func (rep *report) serveLayer() []metric {
	var over []float64
	var bytes, rows, gone int
	for _, s := range rep.open {
		if s.gone {
			gone++
		}
		if s.err != "" || s.gone || s.kind == "update" {
			continue
		}
		over = append(over, (s.done-s.sent)*1000-s.elapsedMS)
		bytes += s.bytes
		rows += s.rows
	}
	p50, _ := percentile(over, 0.5)
	p99, _ := percentile(over, 0.99)
	lag, _ := percentile(rep.lags, 0.99)
	var shed int64
	var pooled, cursors []float64
	for _, ba := range rep.stats {
		b, a := ba[0], ba[1]
		shed += a.DBs[0].Shed - b.DBs[0].Shed
		pooled = append(pooled, float64(a.DBs[0].Sessions))
		cursors = append(cursors, float64(a.Cursors))
	}
	return []metric{
		{Name: "serve.overhead_p50_ms", Value: p50, Unit: "ms", N: len(over)},
		{Name: "serve.overhead_p99_ms", Value: p99, Unit: "ms", N: len(over)},
		{Name: "serve.response_bytes_per_row", Value: float64(bytes) / math.Max(1, float64(rows)), Unit: "B/row", N: rows},
		{Name: "serve.shed", Value: float64(shed), Unit: "count", N: len(rep.stats)},
		{Name: "serve.cursor_gone", Value: float64(gone), Unit: "count", N: len(rep.stats)},
		{Name: "serve.sessions_pooled", Value: mean(pooled), Unit: "count", N: len(pooled), Note: "mean over parts, at the end of the phases"},
		{Name: "serve.cursors_open", Value: mean(cursors), Unit: "count", N: len(cursors), Note: "mean over parts, at the end of the phases"},
		{Name: "load.lag_p99_ms", Value: lag, Unit: "ms", N: len(rep.lags)},
	}
}

// measureInputs reports the properties of the stream actually sent: how
// much of it repeats earlier text or labels, its class mix, and rows per
// response.
func measureInputs(w *workloadSpec, jobs []*job, samples []sample) []metric {
	seenText, seenLabel := map[string]bool{}, map[string]bool{}
	var queries, repeatText, labels, repeatLabel int
	classes := map[string]int{}
	for _, j := range jobs {
		classes[j.class]++
		if j.q == nil {
			continue
		}
		queries++
		if seenText[j.q.Query] {
			repeatText++
		}
		seenText[j.q.Query] = true
		for _, line := range strings.Split(j.q.Query, "\n")[1:] {
			if _, lbl, ok := strings.Cut(line, " : "); ok {
				labels++
				if seenLabel[lbl] {
					repeatLabel++
				}
				seenLabel[lbl] = true
			}
		}
	}
	var rows, responses int
	for _, s := range samples {
		if s.err == "" && !s.gone && s.kind != "update" {
			rows += s.rows
			responses++
		}
	}
	out := []metric{
		{Name: "input.repeat_text_frac", Value: ratio(repeatText, queries), Unit: "ratio", N: queries},
		{Name: "input.repeat_label_frac", Value: ratio(repeatLabel, labels), Unit: "ratio", N: labels},
		{Name: "input.rows_per_response", Value: ratio(rows, responses), Unit: "rows", N: responses},
	}
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		out = append(out, metric{Name: "input.class_frac." + c, Value: ratio(classes[c], len(jobs)), Unit: "ratio", N: len(jobs)})
	}
	return out
}

// classLatency summarizes one phase.kind.class of operations; closed-loop
// latencies count from the send time.
type classLatency struct {
	Class string  `json:"class"`
	N     int     `json:"n"`
	P50MS float64 `json:"p50_ms"`
	MaxMS float64 `json:"max_ms"`
}

// histBucket counts open-loop query latencies up to UpToMS (exclusive of
// the previous bucket's bound); bounds grow by a factor of sqrt 2.
type histBucket struct {
	UpToMS float64 `json:"up_to_ms"`
	N      int     `json:"n"`
}

func histogram(xs []float64) []histBucket {
	var out []histBucket
	rest := append([]float64(nil), xs...)
	sort.Float64s(rest)
	for b := 0.125; len(rest) > 0; b *= math.Sqrt2 {
		n := sort.SearchFloat64s(rest, b)
		if n > 0 || len(out) > 0 {
			out = append(out, histBucket{UpToMS: b, N: n})
		}
		rest = rest[n:]
	}
	return out
}

// runRecord is the self-describing record of one run.
type runRecord struct {
	Workload     string         `json:"workload"`
	Why          string         `json:"why"`
	Seed         int64          `json:"seed"`
	Nodes        int            `json:"graph_nodes"`
	Graphs       int            `json:"graphs"`
	RatePerS     float64        `json:"offered_rate_per_s"`
	Commit       string         `json:"commit"`
	SourceSHA256 string         `json:"source_sha256"`
	GoVersion    string         `json:"go_version"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	ServerFlags  []string       `json:"server_flags"`
	Samples      map[string]int `json:"samples_per_kind"`
	Classes      []classLatency `json:"latency_per_class"`
	QueryHist    []histBucket   `json:"open_query_latency_histogram"`
	LagP99MS     float64        `json:"load_lag_p99_ms"`
	LagBoundMS   float64        `json:"load_lag_bound_ms"`
	Valid        bool           `json:"valid"`
	Verified     string         `json:"answer_checks"`
	Failures     []string       `json:"failures,omitempty"`
	Inputs       []metric       `json:"inputs"`
	EndToEnd     []metric       `json:"end_to_end"`
	PerLayer     []layerMetric  `json:"per_layer,omitempty"`
}

func (r *runner) record(rep *report, e2e, layer []metric, nproc int, flags []string) *runRecord {
	lag, _ := percentile(rep.lags, 0.99)
	rec := &runRecord{
		Workload: r.w.name, Why: r.w.why, Seed: r.seed, Nodes: r.w.nodes, RatePerS: r.w.rate,
		Commit: gitCommit(r.root), SourceSHA256: sourceDigest(r.root),
		GoVersion: runtime.Version(), NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Graphs: r.w.graphs, ServerFlags: flags, Samples: map[string]int{},
		LagP99MS: lag, LagBoundMS: maxLagMS, Valid: lag <= maxLagMS,
		Failures: r.failures, Inputs: rep.inputs, EndToEnd: e2e,
	}
	lat := map[string][]float64{}
	for _, s := range rep.open {
		rec.Samples["open."+s.kind]++
		lat["open."+s.kind+"."+s.class] = append(lat["open."+s.kind+"."+s.class], s.latencyMS())
	}
	for _, s := range rep.closed {
		rec.Samples["closed."+s.kind]++
		lat["closed."+s.kind+"."+s.class] = append(lat["closed."+s.kind+"."+s.class], (s.done-s.sent)*1000)
	}
	rec.QueryHist = histogram(rep.latencies("query"))
	for k, xs := range lat {
		p50, _ := percentile(xs, 0.5)
		p100, _ := percentile(xs, 1)
		rec.Classes = append(rec.Classes, classLatency{Class: k, N: len(xs), P50MS: p50, MaxMS: p100})
	}
	sort.Slice(rec.Classes, func(a, b int) bool { return rec.Classes[a].Class < rec.Classes[b].Class })
	switch r.w.check {
	case "all":
		rec.Verified = "every response against in-process answers computed at setup"
	case "sample":
		rec.Verified = fmt.Sprintf("structural checks on every response; %d sampled jobs re-verified in-process (%d not verifiable within budget)", rep.verified, rep.unverifiable)
	case "durable":
		rec.Verified = "structural checks on every response; kill -9 recovery: revision, hot-pool answers and parked ranked cursor"
	}
	for _, m := range layer {
		rec.PerLayer = append(rec.PerLayer, describeLayer(m))
	}
	return rec
}

func printReport(rec *runRecord) {
	fmt.Printf("# cxbench %s seed=%d rate=%g/s graphs=%dx gMark-%d commit=%s source=%s %s nproc=%d GOMAXPROCS=%d valid=%v\n",
		rec.Workload, rec.Seed, rec.RatePerS, rec.Graphs, rec.Nodes, rec.Commit, rec.SourceSHA256[:12], rec.GoVersion,
		rec.NProc, rec.GOMAXPROCS, rec.Valid)
	fmt.Printf("# server flags (first graph): %s\n", strings.Join(rec.ServerFlags, " "))
	fmt.Printf("# answer checks: %s\n", rec.Verified)
	fmt.Printf("# load lateness p99 %.3f ms (bound %g ms)\n", rec.LagP99MS, rec.LagBoundMS)
	keys := make([]string, 0, len(rec.Samples))
	for k := range rec.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# samples %s %d\n", k, rec.Samples[k])
	}
	for _, c := range rec.Classes {
		fmt.Printf("# class %-28s n=%-6d p50 %10.3f ms  max %10.3f ms\n", c.Class, c.N, c.P50MS, c.MaxMS)
	}
	line := func(prefix string, m metric, extra string) {
		fmt.Printf("%s %-34s %14.4f %-6s n=%-6d %s%s\n", prefix, m.Name, m.Value, m.Unit, m.N, m.Note, extra)
	}
	for _, m := range rec.Inputs {
		line("input ", m, "")
	}
	for _, m := range rec.EndToEnd {
		line("e2e   ", m, "")
	}
	for _, lm := range rec.PerLayer {
		line("layer ", lm.metric, fmt.Sprintf(" moves=%s on=%s", lm.Moves, lm.On))
	}
}

// gitCommit returns HEAD of the checkout, or "unknown" outside git.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the repository's Go sources and module files, so a
// record identifies the code even outside git.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			buf, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(buf))
				h.Write(buf)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
