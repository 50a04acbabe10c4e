package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

const dbName = "g"

// queryReq and queryResp mirror the /query wire format of cxrpq-serve.
type queryReq struct {
	DB         string   `json:"db,omitempty"`
	Query      string   `json:"query,omitempty"`
	Mode       string   `json:"mode,omitempty"`
	Semantics  string   `json:"semantics,omitempty"`
	K          *int     `json:"k,omitempty"`
	Tuple      []string `json:"tuple,omitempty"`
	Limit      int      `json:"limit,omitempty"`
	DeadlineMS int      `json:"deadline_ms,omitempty"`
	Ranked     bool     `json:"ranked,omitempty"`
	Cursor     string   `json:"cursor,omitempty"`
}

type queryResp struct {
	Fragment     string     `json:"fragment"`
	Count        int        `json:"count"`
	Answers      [][]string `json:"answers"`
	Costs        []int      `json:"costs"`
	Bool         *bool      `json:"bool"`
	Cursor       string     `json:"cursor"`
	Truncated    bool       `json:"truncated"`
	Shed         bool       `json:"shed"`
	RowsStreamed int64      `json:"rows_streamed"`
	ElapsedMS    float64    `json:"elapsed_ms"`
	Error        string     `json:"error"`
}

type updateReq struct {
	DB     string `json:"db"`
	Edges  string `json:"edges,omitempty"`
	Remove string `json:"remove,omitempty"`
}

type updateResp struct {
	Revision uint64 `json:"revision"`
	Error    string `json:"error"`
}

// sample is the outcome of one HTTP operation. Times are seconds since the
// run's time origin.
type sample struct {
	job       int
	kind      string // query, fetch or update
	class     string
	due       float64 // when the operation was due (open loop) or sent (closed loop, follow-ups)
	sent      float64
	done      float64
	bytes     int
	rows      int
	elapsedMS float64 // server-reported evaluation time
	deadline  int     // deadline_ms carried, 0 if none
	truncated bool
	shed      bool
	gone      bool   // 410 on a cursor after an update: contract behaviour
	err       string // transport error, unexpected status or wrong answer
}

func (s *sample) latencyMS() float64 { return (s.done - s.due) * 1000 }

// ack is one acknowledged /update.
type ack struct {
	rev   uint64
	req   *updateReq
	bytes int // edge text acknowledged
}

// client drives one server over HTTP with at most conns connections.
type client struct {
	base  string
	http  *http.Client
	t0    time.Time
	check func(j *job, page int, r *queryResp, st *pageState) error
	keep  func(j *job) bool

	mu   sync.Mutex
	acks []ack
	kept map[int][]*queryResp // responses kept for after-run verification
}

func newClient(base string, conns int, t0 time.Time) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 120 * time.Second}, t0: t0,
		kept: map[int][]*queryResp{}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) now() float64 { return time.Since(c.t0).Seconds() }

// post sends one JSON request and decodes the JSON reply into out.
func (c *client) post(path string, body any, out any) (status, n int, err error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(raw), err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return resp.StatusCode, len(raw), fmt.Errorf("decode %s reply: %v", path, err)
	}
	return resp.StatusCode, len(raw), nil
}

// pageState carries what a checker needs across the pages of one job.
type pageState struct {
	seen     map[string]bool
	rows     int
	lastCost int
}

// run executes one job: due is when it was due (seconds since t0). It
// returns one sample per HTTP operation.
func (c *client) run(j *job, due float64) []sample {
	if j.u != nil {
		s := sample{job: j.id, kind: "update", class: j.class, due: due, sent: c.now()}
		var r updateResp
		status, n, err := c.post("/update", j.u, &r)
		s.done, s.bytes = c.now(), n
		switch {
		case err != nil:
			s.err = err.Error()
		case status != http.StatusOK:
			s.err = fmt.Sprintf("update: status %d: %s", status, r.Error)
		default:
			c.mu.Lock()
			c.acks = append(c.acks, ack{rev: r.Revision, req: j.u, bytes: len(j.u.Edges)})
			c.mu.Unlock()
		}
		return []sample{s}
	}
	var out []sample
	st := &pageState{seen: map[string]bool{}, lastCost: -1}
	req := j.q
	for page := 0; page <= j.fetches; page++ {
		kind := "query"
		if page > 0 {
			kind = "fetch"
			due = c.now()
		}
		s := sample{job: j.id, kind: kind, class: j.class, due: due, sent: c.now(), deadline: j.q.DeadlineMS}
		if page > 0 {
			s.deadline = 0
		}
		var r queryResp
		status, n, err := c.post("/query", req, &r)
		s.done, s.bytes = c.now(), n
		switch {
		case err != nil:
			s.err = err.Error()
		case status == http.StatusGone && page > 0:
			s.gone = true
		case status != http.StatusOK:
			s.err = fmt.Sprintf("%s: status %d: %s", kind, status, r.Error)
		default:
			s.rows, s.elapsedMS, s.truncated, s.shed = r.Count, r.ElapsedMS, r.Truncated, r.Shed
			if c.check != nil {
				if err := c.check(j, page, &r, st); err != nil {
					s.err = fmt.Sprintf("wrong answer: job %d page %d: %v", j.id, page, err)
				}
			}
			if c.keep != nil && c.keep(j) {
				c.mu.Lock()
				c.kept[j.id] = append(c.kept[j.id], &r)
				c.mu.Unlock()
			}
		}
		out = append(out, s)
		if s.err != "" || s.gone || r.Cursor == "" {
			break
		}
		req = &queryReq{Cursor: r.Cursor, Limit: j.q.Limit}
	}
	return out
}

// spinLead is how long before a due time the dispatcher stops sleeping and
// spins, in seconds.
const spinLead = 0.002

// openLoop offers jobs at their due times (seconds after the phase start)
// through a fixed set of workers. Latency counts from the due time, so a
// stall is charged to every request queued behind it. It returns the
// samples and the generator's lateness per job (dispatch minus due, ms).
func (c *client) openLoop(jobs []*job, workers int) ([]sample, []float64) {
	start := c.now()
	type due struct {
		j  *job
		at float64
	}
	ch := make(chan due, len(jobs)) // sized to the schedule: the dispatcher never blocks
	lags := make([]float64, 0, len(jobs))
	go func() {
		defer close(ch)
		for _, j := range jobs {
			at := start + j.due
			// Sleep to within spinLead of the due time, then spin: timer
			// wake-ups run late by up to a millisecond under load, which
			// would otherwise be charged to every request as lateness.
			if d := at - spinLead - c.now(); d > 0 {
				time.Sleep(time.Duration(d * float64(time.Second)))
			}
			for c.now() < at {
				runtime.Gosched()
			}
			lags = append(lags, (c.now()-at)*1000)
			ch <- due{j, at}
		}
	}()
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range ch {
				ss := c.run(d.j, d.at)
				mu.Lock()
				out = append(out, ss...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, lags
}

// closedLoop runs workers clients back to back for dur seconds, each
// taking the next job of the seeded stream. Operations that finish after
// the phase ends are not counted.
func (c *client) closedLoop(next func() *job, workers int, dur float64) ([]sample, float64) {
	start := c.now()
	end := start + dur
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c.now() < end {
				mu.Lock()
				j := next()
				mu.Unlock()
				for _, s := range c.run(j, c.now()) {
					if s.done <= end {
						mu.Lock()
						out = append(out, s)
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	return out, end - start
}

// sortedAcks returns the acknowledged updates in revision order.
func (c *client) sortedAcks() []ack {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]ack(nil), c.acks...)
	sort.Slice(out, func(a, b int) bool { return out[a].rev < out[b].rev })
	return out
}
