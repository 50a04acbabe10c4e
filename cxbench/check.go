package main

import (
	"fmt"
	"strings"
	"time"

	"cxrpq/internal/cxrpq"
	"cxrpq/internal/engine"
	"cxrpq/internal/graph"
)

// expected holds in-process answers for a fixed pool on one database,
// computed outside the timed phases.
type expected struct {
	sorted [][][]string      // per entry: the full answer in the server's row order
	set    []map[string]bool // per entry: row keys of the full answer
	ranked [][]rankedRow     // per ranked entry: the first ranked page
}

type rankedRow struct {
	row  []string
	cost int
}

func rowKey(row []string) string { return strings.Join(row, "\x00") }

// computeExpected evaluates every pool entry in-process on db: the full
// answer through Session.Do, plus the first ranked page for ranked entries.
func computeExpected(pool []poolEntry, db *graph.DB) (*expected, error) {
	ex := &expected{}
	for _, e := range pool {
		sess, err := bindText(e.text, db)
		if err != nil {
			return nil, err
		}
		res := sess.Do(cxrpq.Request{Op: "eval", Semantics: semOf(e.sem), K: e.k})
		if res.Err != nil {
			return nil, fmt.Errorf("in-process eval of %q: %v", e.text, res.Err)
		}
		var rows [][]string
		set := map[string]bool{}
		for _, t := range res.Tuples.Sorted() {
			row := make([]string, len(t))
			for i, v := range t {
				row[i] = db.Name(v)
			}
			rows = append(rows, row)
			set[rowKey(row)] = true
		}
		ex.sorted = append(ex.sorted, rows)
		ex.set = append(ex.set, set)
		var rk []rankedRow
		if e.ranked {
			if rk, err = rankedPage(sess, e, 0, rankedLimit); err != nil {
				return nil, err
			}
		}
		ex.ranked = append(ex.ranked, rk)
	}
	return ex, nil
}

func semOf(s string) string {
	if s == "" {
		return "auto"
	}
	return s
}

func bindText(text string, db *graph.DB) (*cxrpq.Session, error) {
	p, err := cxrpq.PrepareSrc(text)
	if err != nil {
		return nil, fmt.Errorf("prepare %q: %v", text, err)
	}
	return p.Bind(db), nil
}

// rankedPage returns ranked rows [skip, skip+n) of a pool entry.
func rankedPage(sess *cxrpq.Session, e poolEntry, skip, n int) ([]rankedRow, error) {
	cur, err := sess.Stream(cxrpq.StreamOptions{Semantics: semOf(e.sem), K: e.k, Ranked: true})
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	rows := cur.Fetch(skip + n)
	if err := cur.Err(); err != nil {
		return nil, err
	}
	var out []rankedRow
	for i := skip; i < len(rows); i++ {
		out = append(out, rankedRow{row: names(sess.DB(), rows[i].Tuple), cost: rows[i].Cost})
	}
	return out, nil
}

func names(db *graph.DB, t []int) []string {
	row := make([]string, len(t))
	for i, v := range t {
		row[i] = db.Name(v)
	}
	return row
}

// checkPage verifies one response of a pool job against the in-process
// answers: a materialized eval must equal the answer row for row; pages
// must hold distinct answer rows and, once the cursor is exhausted, all of
// them; ranked pages must be nondecreasing in cost and page one must equal
// the in-process ranked page; bool and check must agree with the answer.
func (ex *expected) checkPage(j *job, page int, r *queryResp, st *pageState) error {
	want := ex.set[j.entry]
	switch j.class {
	case "full":
		rows := ex.sorted[j.entry]
		if len(r.Answers) != len(rows) || r.Count != len(rows) {
			return fmt.Errorf("materialized eval returned %d rows, want %d", len(r.Answers), len(rows))
		}
		for i := range rows {
			if rowKey(r.Answers[i]) != rowKey(rows[i]) {
				return fmt.Errorf("row %d is %v, want %v", i, r.Answers[i], rows[i])
			}
		}
	case "bool", "check":
		if r.Bool == nil {
			return fmt.Errorf("%s response without bool", j.class)
		}
		truth := len(want) > 0
		if j.class == "check" {
			truth = want[rowKey(j.q.Tuple)]
		}
		if *r.Bool != truth {
			return fmt.Errorf("%s returned %v, want %v", j.class, *r.Bool, truth)
		}
	default: // page, ranked
		if err := checkRows(r, want, st); err != nil {
			return err
		}
		if j.class == "ranked" && page == 0 {
			rk := ex.ranked[j.entry]
			if len(r.Answers) != len(rk) {
				return fmt.Errorf("ranked page one has %d rows, want %d", len(r.Answers), len(rk))
			}
			for i := range rk {
				if rowKey(r.Answers[i]) != rowKey(rk[i].row) || r.Costs[i] != rk[i].cost {
					return fmt.Errorf("ranked row %d is %v cost %d, want %v cost %d", i, r.Answers[i], r.Costs[i], rk[i].row, rk[i].cost)
				}
			}
		}
		if r.Cursor == "" && !r.Truncated && st.rows != len(want) {
			return fmt.Errorf("exhausted cursor delivered %d rows, want %d", st.rows, len(want))
		}
	}
	return nil
}

// checkRows checks the invariants every streamed page must hold: each row
// belongs to the answer (want nil skips that test), no row repeats across
// the job's pages, and ranked costs never decrease.
func checkRows(r *queryResp, want map[string]bool, st *pageState) error {
	if r.Count != len(r.Answers) {
		return fmt.Errorf("count %d but %d rows", r.Count, len(r.Answers))
	}
	for i, row := range r.Answers {
		k := rowKey(row)
		if want != nil && !want[k] {
			return fmt.Errorf("row %v is not an answer", row)
		}
		if st.seen[k] {
			return fmt.Errorf("row %v delivered twice", row)
		}
		st.seen[k] = true
		if r.Costs != nil {
			if i >= len(r.Costs) {
				return fmt.Errorf("ranked page has %d costs for %d rows", len(r.Costs), len(r.Answers))
			}
			if r.Costs[i] < st.lastCost {
				return fmt.Errorf("ranked cost decreased to %d after %d", r.Costs[i], st.lastCost)
			}
			st.lastCost = r.Costs[i]
		}
	}
	st.rows += len(r.Answers)
	return nil
}

// verifySample re-evaluates a kept job in a fresh in-process session and
// checks its responses: rows must belong to the full answer, and an
// untruncated exhausted stream must deliver all of it; bool and check must
// agree unless the response was truncated. It reports whether the
// in-process evaluation finished within budget (false: not verifiable).
func verifySample(j *job, resps []*queryResp, db *graph.DB, budget time.Duration) (bool, error) {
	sess, err := bindText(j.q.Query, db)
	if err != nil {
		return false, err
	}
	sem, k := semOf(j.q.Semantics), 0
	if j.q.K != nil {
		k = *j.q.K
	}
	bud := engine.NewBudget(nil, time.Now().Add(budget), 0)
	res := sess.Do(cxrpq.Request{Op: "eval", Semantics: sem, K: k, Budget: bud})
	if res.Err != nil {
		return false, nil
	}
	want := map[string]bool{}
	for _, t := range res.Tuples.Sorted() {
		want[rowKey(names(db, t))] = true
	}
	st := &pageState{seen: map[string]bool{}, lastCost: -1}
	for i, r := range resps {
		switch j.class {
		case "bool", "check":
			truth := len(want) > 0
			if j.class == "check" {
				truth = want[rowKey(j.q.Tuple)]
			}
			if r.Bool == nil || (*r.Bool != truth && !r.Truncated) {
				return true, fmt.Errorf("job %d %s: got %v, want %v", j.id, j.class, r.Bool, truth)
			}
		case "full":
			if err := checkRows(r, want, st); err != nil {
				return true, fmt.Errorf("job %d: %v", j.id, err)
			}
			if !r.Truncated && len(r.Answers) != len(want) {
				return true, fmt.Errorf("job %d: materialized eval returned %d rows, want %d", j.id, len(r.Answers), len(want))
			}
		default:
			if err := checkRows(r, want, st); err != nil {
				return true, fmt.Errorf("job %d page %d: %v", j.id, i, err)
			}
			if r.Cursor == "" && !r.Truncated && st.rows != len(want) {
				return true, fmt.Errorf("job %d: exhausted stream delivered %d rows, want %d", j.id, st.rows, len(want))
			}
		}
	}
	return true, nil
}
