package main

// Parked-cursor persistence and publish-time invalidation: a ranked cursor
// parked on a durable database must survive a kill -9 (the restarted server
// resumes pagination under the same token, exactly where it left off), a
// mutation of the database must invalidate it eagerly — on the leader's
// /update and on a follower's tail republish alike — and per-label weights
// must ride the HTTP surface end to end.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cxrpq/internal/graph"
)

// seedChain posts a path n0 -a-> n1 -a-> ... -a-> n<k> as one /update batch.
func seedChain(t *testing.T, url string, k int) {
	t.Helper()
	var lines []string
	for i := 0; i < k; i++ {
		lines = append(lines, fmt.Sprintf("n%d a n%d", i, i+1))
	}
	code, out := postJSON(t, url+"/update", `{"db":"g1","edges":"`+strings.Join(lines, `\n`)+`"}`)
	if code != http.StatusOK {
		t.Fatalf("seed: %d %v", code, out)
	}
}

func answersOf(out map[string]any) [][]string {
	var rows [][]string
	if out["answers"] == nil {
		return nil
	}
	for _, a := range out["answers"].([]any) {
		var row []string
		for _, v := range a.([]any) {
			row = append(row, v.(string))
		}
		rows = append(rows, row)
	}
	return rows
}

const rankedChainQuery = `{"db":"g1","query":"ans(x, y)\nx y : a+","ranked":true`

func TestCursorRestartResumesPagination(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := durableServer(t, dir)
	seedChain(t, ts.URL, 5) // 15 ranked pairs (i < j), cost j-i

	// The whole ranked answer list, as one page: the ground truth.
	code, full := postJSON(t, ts.URL+"/query", rankedChainQuery+`}`)
	if code != http.StatusOK || full["count"].(float64) != 15 {
		t.Fatalf("full ranked query: %d %v", code, full)
	}
	want := answersOf(full)

	// Page 1 parks a persisted cursor, page 2 advances it.
	code, p1 := postJSON(t, ts.URL+"/query", rankedChainQuery+`,"limit":5}`)
	if code != http.StatusOK || p1["cursor"] == nil {
		t.Fatalf("page 1: %d %v", code, p1)
	}
	tok := p1["cursor"].(string)
	code, p2 := postJSON(t, ts.URL+"/query", `{"cursor":"`+tok+`","limit":5}`)
	if code != http.StatusOK || p2["cursor"] != tok {
		t.Fatalf("page 2: %d %v", code, p2)
	}

	// kill -9: no graceful shutdown, no store Close. The restarted server
	// must resume the token mid-stream instead of answering 410.
	ts.Close()
	_, ts2, _ := durableServer(t, dir)
	got := append(answersOf(p1), answersOf(p2)...)
	for len(got) < len(want) {
		code, p := postJSON(t, ts2.URL+"/query", `{"cursor":"`+tok+`","limit":5}`)
		if code != http.StatusOK {
			t.Fatalf("post-restart fetch after %d rows: %d %v", len(got), code, p)
		}
		rows := answersOf(p)
		if len(rows) == 0 && p["cursor"] == nil {
			break
		}
		got = append(got, rows...)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed pagination delivered %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if strings.Join(got[i], ",") != strings.Join(want[i], ",") {
			t.Fatalf("row %d: resumed pagination gave %v, full drain gave %v", i, got[i], want[i])
		}
	}
}

func TestCursorRestartAfterUpdateGives410(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := durableServer(t, dir)
	seedChain(t, ts.URL, 5)
	code, p1 := postJSON(t, ts.URL+"/query", rankedChainQuery+`,"limit":5}`)
	if code != http.StatusOK || p1["cursor"] == nil {
		t.Fatalf("page 1: %d %v", code, p1)
	}
	tok := p1["cursor"].(string)

	// The mutation invalidates the parked cursor at publish time — the
	// registry is empty before any fetch could trip the lazy check.
	if code, out := postJSON(t, ts.URL+"/update", `{"db":"g1","edges":"n9 a n8"}`); code != http.StatusOK {
		t.Fatalf("update: %d %v", code, out)
	}
	if n := srv.cursors.open(); n != 0 {
		t.Fatalf("publish left %d parked cursors, want eager invalidation", n)
	}
	if code, _ := postJSON(t, ts.URL+"/query", `{"cursor":"`+tok+`"}`); code != http.StatusGone {
		t.Fatalf("fetch after update = %d, want 410", code)
	}

	// And the tombstone is durable: the restarted server must not resurrect
	// the cursor from its earlier WAL record.
	ts.Close()
	srv2, ts2, _ := durableServer(t, dir)
	if n := srv2.cursors.open(); n != 0 {
		t.Fatalf("restart resurrected %d invalidated cursors", n)
	}
	if code, _ := postJSON(t, ts2.URL+"/query", `{"cursor":"`+tok+`"}`); code != http.StatusGone {
		t.Fatalf("post-restart fetch of invalidated cursor = %d, want 410", code)
	}
}

// A follower's tail republish must invalidate its parked cursors exactly
// like a leader /update does: a cursor materialized before the tail loop
// replays a batch answers 410 afterwards, not rows from a stale epoch.
func TestFollowerPublishInvalidatesCursors(t *testing.T) {
	dir := t.TempDir()
	_, lts, _ := durableServer(t, dir)
	seedChain(t, lts.URL, 5)

	fo, err := graph.OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	fsrv := newServer(serverOptions{maxInflight: 8, sessionCap: 16})
	fe := fsrv.addDB("g1", fo.DB())
	fe.follower = fo
	stop := make(chan struct{})
	defer close(stop)
	go fe.tail(2*time.Millisecond, stop)
	fts := httptest.NewServer(fsrv.handler())
	defer fts.Close()

	code, p1 := postJSON(t, fts.URL+"/query", rankedChainQuery+`,"limit":5}`)
	if code != http.StatusOK || p1["cursor"] == nil {
		t.Fatalf("follower page 1: %d %v", code, p1)
	}
	tok := p1["cursor"].(string)

	// Leader writes; the follower's tail loop republishes and must drop the
	// pinned cursor as it does.
	if code, out := postJSON(t, lts.URL+"/update", `{"db":"g1","edges":"n9 a n8"}`); code != http.StatusOK {
		t.Fatalf("leader update: %d %v", code, out)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fsrv.cursors.open() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower republish never invalidated the parked cursor")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := postJSON(t, fts.URL+"/query", `{"cursor":"`+tok+`"}`); code != http.StatusGone {
		t.Fatalf("fetch after follower republish = %d, want 410", code)
	}
}

// Per-label weights ride the request into the ranked stream: costs reflect
// the weight map, and weights without ranked are rejected.
func TestQueryWeights(t *testing.T) {
	_, ts := testServer(t) // g1: u a v, u a w, v b w
	body := `{"db":"g1","query":"ans(x, y)\nx y : a|b","ranked":true,"weights":{"b":5}}`
	code, out := postJSON(t, ts.URL+"/query", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	var costs []float64
	for _, c := range out["costs"].([]any) {
		costs = append(costs, c.(float64))
	}
	if len(costs) != 3 || costs[0] != 1 || costs[1] != 1 || costs[2] != 5 {
		t.Fatalf("costs = %v, want [1 1 5] under b=5", costs)
	}

	if code, _ := postJSON(t, ts.URL+"/query", `{"db":"g1","query":"ans(x, y)\nx y : a","weights":{"a":2}}`); code != http.StatusBadRequest {
		t.Fatalf("weights without ranked = %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/query", `{"db":"g1","query":"ans(x, y)\nx y : a","ranked":true,"weights":{"ab":2}}`); code != http.StatusBadRequest {
		t.Fatalf("multi-rune weight key = %d, want 400", code)
	}
}

// budgetScale multiplies the wall-clock deadlines tests assert (10 under the
// race detector, see race_test.go).
var budgetScale = 1

// A ranked cursor whose deadline expires mid-pagination serves the rows it
// had collected and flags every remaining page "truncated": the JSON must
// carry the flag end to end, so a deadline-cut ranked result can never read
// as a complete top-k.
func TestServerRankedDeadlinePageTruncated(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		for j := 0; j < 6; j++ {
			fmt.Fprintf(&sb, "n%d %c n%d\n", i, "ab"[(i+j)%2], (i*7+j*13)%500)
		}
	}
	srv := newServer(serverOptions{maxInflight: 8, sessionCap: 16})
	srv.addDB("big", graph.MustParse(sb.String()))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// First page: the incremental ranked stream surfaces one row well within
	// the deadline and parks.
	body := fmt.Sprintf(`{"db":"big","query":"ans(x, z)\nx y : a+\ny z : b+","ranked":true,"limit":1,"deadline_ms":%d}`, 250*budgetScale)
	code, p1 := postJSON(t, ts.URL+"/query", body)
	if code != http.StatusOK || p1["cursor"] == nil || p1["count"].(float64) != 1 {
		t.Fatalf("page 1: %d %v", code, p1)
	}
	tok := p1["cursor"].(string)

	// The deadline covers the cursor's lifetime: once it passes, the next
	// page must say truncated, not pretend the stream completed.
	time.Sleep(600 * time.Millisecond * time.Duration(budgetScale))
	code, p2 := postJSON(t, ts.URL+"/query", `{"cursor":"`+tok+`","limit":1048576}`)
	if code != http.StatusOK {
		t.Fatalf("page 2: %d %v", code, p2)
	}
	if p2["truncated"] != true {
		t.Fatalf("deadline-cut ranked page lost its truncated flag: %v", p2)
	}
}
