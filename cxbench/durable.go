package main

import (
	"fmt"
	"net/http"
	"path/filepath"

	"cxrpq/internal/graph"
)

// durability runs the write-mix crash check after the timed phases: it
// parks a ranked cursor, measures the data directory, kills the server
// with SIGKILL, restarts it on the same directory (recovery_s) and asserts
// that the recovered revision is the last acknowledged one, that every
// hot-pool answer equals an in-process evaluation of the seed plus every
// acknowledged batch in revision order, and that the parked cursor either
// resumes exactly or answers 410. It returns the restarted server.
func (r *part) durability(srv *server, cl *client, rep *report, after *serverStats) (*server, error) {
	ri := -1
	for i, e := range r.w.pool {
		if e.ranked {
			ri = i
			break
		}
	}
	const park = 20
	op := func(path string, body, out any) (int, error) {
		rep.extraAttempted++
		status, _, err := cl.post(path, body, out)
		if err != nil || (status != http.StatusOK && status != http.StatusGone) {
			rep.extraFailed++
		}
		return status, err
	}
	var first queryResp
	if status, err := op("/query", &queryReq{DB: dbName, Query: r.w.pool[ri].text, Limit: park, Ranked: true}, &first); err != nil || status != http.StatusOK {
		return srv, fmt.Errorf("parking a ranked cursor: status %d: %v %s", status, err, first.Error)
	}

	acks := cl.sortedAcks()
	lastRev := after.DBs[0].Revision
	userBytes := len(r.text)
	for _, a := range acks {
		userBytes += a.bytes
	}
	if len(acks) > 0 && acks[len(acks)-1].rev != lastRev {
		r.fail("last acknowledged revision %d but the server published %d", acks[len(acks)-1].rev, lastRev)
	}
	stored, err := dirBytes(r.dataDir)
	if err != nil {
		return srv, err
	}
	rep.storedRatio = append(rep.storedRatio, float64(stored)/float64(userBytes))

	srv.kill()
	srv, ready, err := startServer(r.bin, r.flags, filepath.Join(r.dir, "server.log"))
	if err != nil {
		return nil, fmt.Errorf("restart after kill -9: %w", err)
	}
	rep.recoveryS = append(rep.recoveryS, ready)
	cl.base = srv.base
	st, err := srv.stats()
	if err != nil {
		return srv, err
	}
	if got := st.DBs[0].Revision; got != lastRev {
		r.fail("recovered revision %d, last acknowledged %d: acknowledged batches lost", got, lastRev)
	}

	replica, err := r.startDB()
	if err != nil {
		return srv, err
	}
	for _, a := range acks {
		var d graph.Delta
		if d.Add, err = graph.ParseDeltaEdges(a.req.Edges); err == nil {
			d.Del, err = graph.ParseDeltaEdges(a.req.Remove)
		}
		if err == nil {
			_, err = replica.ApplyDelta(d)
		}
		if err != nil {
			return srv, fmt.Errorf("replaying acknowledged batch at revision %d: %v", a.rev, err)
		}
	}
	exp, err := computeExpected(r.w.pool, replica)
	if err != nil {
		return srv, err
	}
	for i, e := range r.w.pool {
		if e.ranked {
			continue
		}
		q := &queryReq{DB: dbName, Query: e.text}
		if e.sem != "" {
			k := e.k
			q.Semantics, q.K = e.sem, &k
		}
		var resp queryResp
		if status, err := op("/query", q, &resp); err != nil || status != http.StatusOK {
			r.fail("recovered eval of %q: status %d: %v %s", e.text, status, err, resp.Error)
			continue
		}
		if err := exp.checkPage(&job{class: "full", entry: i, q: q}, 0, &resp, nil); err != nil {
			rep.extraFailed++
			r.fail("recovered answer of %q differs from the acknowledged history: %v", e.text, err)
		}
	}

	if first.Cursor != "" {
		var next queryResp
		status, err := op("/query", &queryReq{Cursor: first.Cursor, Limit: park}, &next)
		switch {
		case err != nil:
			r.fail("resuming the parked cursor: %v", err)
		case status == http.StatusGone: // contract: the side record did not survive
		case status != http.StatusOK:
			r.fail("resuming the parked cursor: status %d: %s", status, next.Error)
		default:
			sess, err := bindText(r.w.pool[ri].text, replica)
			if err != nil {
				return srv, err
			}
			want, err := rankedPage(sess, r.w.pool[ri], park, park)
			if err != nil {
				return srv, err
			}
			if err := samePage(next, want); err != nil {
				rep.extraFailed++
				r.fail("resumed cursor page: %v", err)
			}
		}
	}
	return srv, nil
}

func samePage(got queryResp, want []rankedRow) error {
	if len(got.Answers) != len(want) || len(got.Costs) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got.Answers), len(want))
	}
	for i := range want {
		if rowKey(got.Answers[i]) != rowKey(want[i].row) || got.Costs[i] != want[i].cost {
			return fmt.Errorf("row %d is %v cost %d, want %v cost %d", i, got.Answers[i], got.Costs[i], want[i].row, want[i].cost)
		}
	}
	return nil
}
