package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"

	"cxrpq/internal/graph"
)

// streamOf renders the first n jobs of a workload's open-loop schedule.
func streamOf(t *testing.T, w *workloadSpec, seed int64, n int) []string {
	t.Helper()
	_, names, edges := graphText(seed, w.nodes)
	g := newGenerator(w, seed, names, edges)
	var out []string
	for _, j := range g.schedule(30)[:n] {
		body, err := json.Marshal(struct {
			Due   float64
			Class string
			Q     *queryReq
			U     *updateReq
			F     int
		}{j.due, j.class, j.q, j.u, j.fetches})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(body))
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := streamOf(t, w, 7, 40), streamOf(t, w, 7, 40)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if reflect.DeepEqual(a, streamOf(t, w, 8, 40)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		g1, _, _ := graphText(7, w.nodes)
		g2, _, _ := graphText(7, w.nodes)
		if g1 != g2 {
			t.Errorf("%s: graph text differs for one seed", w.name)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly 10 samples beyond
		{999, 0.99, 990, false}, // 9 beyond
		{21, 0.5, 11, true},
		{19, 0.5, 10, false},
		{0, 0.5, 0, false},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

// TestLatencyFromDueTime offers two jobs due at the same instant to one
// worker against a server that takes 50ms per request: the second one's
// latency must include the 50ms it waited behind the first.
func TestLatencyFromDueTime(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		w.Write([]byte(`{"count":0,"elapsed_ms":50}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, time.Now())
	defer c.close()
	jobs := []*job{
		{id: 0, class: "page", q: &queryReq{DB: dbName, Query: "q"}},
		{id: 1, class: "page", q: &queryReq{DB: dbName, Query: "q"}},
	}
	samples, lags := c.openLoop(jobs, 1)
	if len(samples) != 2 || len(lags) != 2 {
		t.Fatalf("got %d samples, %d lags", len(samples), len(lags))
	}
	second := samples[0]
	if samples[1].job == 1 {
		second = samples[1]
	}
	sendLatency := (second.done - second.sent) * 1000
	if second.latencyMS() < 95 || sendLatency > 90 {
		t.Fatalf("second job: latency from due %.1fms, from send %.1fms; want >= 95 and < 90", second.latencyMS(), sendLatency)
	}
}

func TestCheckerRejectsAlteredRow(t *testing.T) {
	db := graph.MustParse("v0 a v1\nv1 a v2\nv2 b v0\nv0 b v2\n")
	pool := []poolEntry{{text: "ans(x, y)\nx y : a", arity: 2}, {text: "ans(x, y)\nx y : a+", ranked: true, arity: 2}}
	ex, err := computeExpected(pool, db)
	if err != nil {
		t.Fatal(err)
	}
	rows := ex.sorted[0]
	if len(rows) != 2 {
		t.Fatalf("want 2 answer rows, got %v", rows)
	}
	check := func(class string, entry int, answers [][]string, costs []int) error {
		j := &job{class: class, entry: entry, q: &queryReq{}}
		r := &queryResp{Count: len(answers), Answers: answers, Costs: costs}
		return ex.checkPage(j, 0, r, &pageState{seen: map[string]bool{}, lastCost: -1})
	}
	clone := func(in [][]string) [][]string {
		out := make([][]string, len(in))
		for i, r := range in {
			out[i] = append([]string(nil), r...)
		}
		return out
	}
	if err := check("full", 0, clone(rows), nil); err != nil {
		t.Fatalf("correct materialized answer rejected: %v", err)
	}
	if err := check("page", 0, clone(rows), nil); err != nil {
		t.Fatalf("correct page rejected: %v", err)
	}
	for _, class := range []string{"full", "page"} {
		bad := clone(rows)
		bad[1][1] = "v0" // (v1, v0) is not an answer
		if err := check(class, 0, bad, nil); err == nil {
			t.Errorf("%s: answer with one altered row accepted", class)
		}
	}
	var rk [][]string
	var costs []int
	for _, r := range ex.ranked[1] {
		rk = append(rk, r.row)
		costs = append(costs, r.cost)
	}
	if err := check("ranked", 1, clone(rk), costs); err != nil {
		t.Fatalf("correct ranked page rejected: %v", err)
	}
	bad := clone(rk)
	bad[0][0] = bad[0][1]
	if err := check("ranked", 1, bad, costs); err == nil {
		t.Error("ranked page with one altered row accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the code: its
// end-to-end metrics are the ones the final line reports with -trace 0,
// its per-layer metrics are the layer table, and its workloads exist.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, gated) {
		t.Errorf("end_to_end %v, code reports %v", e2e, gated)
	}
	if len(b.PerLayer) != len(layerTable) {
		t.Fatalf("%d per_layer metrics, layer table has %d", len(b.PerLayer), len(layerTable))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerTable[i].name || m.Unit != layerTable[i].unit {
			t.Errorf("per_layer %d is %s (%s), layer table has %s (%s)", i, m.Name, m.Unit, layerTable[i].name, layerTable[i].unit)
		}
	}
	for _, w := range b.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("workload %s is not defined", w.Name)
		}
	}
}
