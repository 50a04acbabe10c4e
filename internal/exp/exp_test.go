package exp

import (
	"strings"
	"testing"
)

// Every experiment must complete without error at scale 1 and produce rows.
func TestAllExperimentsScale1(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for i, tbl := range All(1) {
		if tbl.ID != Registry[i].ID {
			t.Errorf("registry entry %s reports table %s", Registry[i].ID, tbl.ID)
		}
		if tbl.Err != nil {
			t.Errorf("%s: %v", tbl.ID, tbl.Err)
			continue
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", tbl.ID)
		}
		out := tbl.Render()
		if !strings.Contains(out, tbl.ID) {
			t.Errorf("%s: render missing ID", tbl.ID)
		}
	}
}

// AllTimed runs exactly the selected experiments, in index order, and
// rejects an unknown ID before running anything.
func TestAllTimedSelects(t *testing.T) {
	tts, err := AllTimed(1, "e4", "E1")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tt := range tts {
		got = append(got, tt.Table.ID)
	}
	if strings.Join(got, ",") != "E1,E4" {
		t.Fatalf("ran %v, want [E1 E4]", got)
	}
	if rep := Report(tts, 1); len(rep.Results) != 2 {
		t.Fatalf("report lists %d experiments, want 2", len(rep.Results))
	}
	if _, err := AllTimed(1, "E1", "E99"); err == nil {
		t.Fatal("unknown experiment ID accepted")
	}
}

// E3, E4, E9 are reduction-vs-oracle checks: every row must agree.
func TestReductionAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, tbl := range []*Table{E03Theorem1(1), E04Theorem3(1), E09HittingSet(1)} {
		if tbl.Err != nil {
			t.Fatalf("%s: %v", tbl.ID, tbl.Err)
		}
		for _, row := range tbl.Rows {
			if row[len(row)-2] != "true" {
				t.Errorf("%s: disagreement in row %v", tbl.ID, row)
			}
		}
	}
}

// E11 must report VERIFIED for every Figure 5 relationship.
func TestFigure5AllVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tbl := E11Figure5(1)
	if tbl.Err != nil {
		t.Fatal(tbl.Err)
	}
	for _, row := range tbl.Rows {
		if row[1] != "VERIFIED" {
			t.Errorf("Figure 5 relationship not verified: %v", row)
		}
	}
}

// E13's match column must equal its expected column.
func TestE13Expectations(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	tbl := E13Fig7(1)
	if tbl.Err != nil {
		t.Fatal(tbl.Err)
	}
	for _, row := range tbl.Rows {
		if row[2] != row[3] {
			t.Errorf("E13 mismatch: %v", row)
		}
	}
}
