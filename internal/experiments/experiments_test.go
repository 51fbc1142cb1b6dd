package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/poi"
)

// sharedEnv is built once for the whole test package; building it is the
// expensive part (city generation, clustering, DFT of every tower).
var sharedEnv *Env

func testEnv(t *testing.T) *Env {
	t.Helper()
	if sharedEnv != nil {
		return sharedEnv
	}
	env, err := Build(SmallScale())
	if err != nil {
		t.Fatalf("building small environment: %v", err)
	}
	sharedEnv = env
	return env
}

func TestBuildSmallEnv(t *testing.T) {
	env := testEnv(t)
	if env.Dataset.NumTowers() != SmallScale().Towers {
		t.Errorf("towers = %d, want %d", env.Dataset.NumTowers(), SmallScale().Towers)
	}
	if env.Dataset.Days != 14 {
		t.Errorf("days = %d, want 14", env.Dataset.Days)
	}
	if env.Result.OptimalK != 5 {
		t.Errorf("K = %d, want 5 (forced)", env.Result.OptimalK)
	}
	if len(env.Truth) != env.Dataset.NumTowers() {
		t.Error("ground truth length mismatch")
	}
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	reg := Registry()
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table1", "fig7", "table2",
		"fig8", "table3", "fig9", "fig10", "table4", "table5", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "table6", "fig18", "fig19",
	}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i := range want {
		if reg[i].Name != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].Name, want[i])
		}
	}
	if _, err := RunnerByName("fig12"); err != nil {
		t.Errorf("RunnerByName(fig12): %v", err)
	}
	if _, err := RunnerByName("fig99"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestAllExperimentsRun executes every registered experiment on the small
// environment and checks the structural sanity of the outputs.
func TestAllExperimentsRun(t *testing.T) {
	env := testEnv(t)
	for _, r := range Registry() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			out, err := r.Run(env)
			if err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			if out.Name != r.Name {
				t.Errorf("output name = %q, want %q", out.Name, r.Name)
			}
			if len(out.Tables) == 0 && len(out.Figures) == 0 {
				t.Error("experiment produced neither tables nor figures")
			}
			for _, tbl := range out.Tables {
				if len(tbl.Headers) == 0 {
					t.Error("table without headers")
				}
				for _, row := range tbl.Rows {
					if len(row) != len(tbl.Headers) {
						t.Errorf("table %q row has %d cells, want %d", tbl.Title, len(row), len(tbl.Headers))
					}
				}
			}
			for _, fig := range out.Figures {
				if len(fig.Series) == 0 {
					t.Errorf("figure %q has no series", fig.Title)
				}
				for _, s := range fig.Series {
					if len(s.X) != len(s.Y) {
						t.Errorf("figure %q series %q ragged", fig.Title, s.Name)
					}
				}
			}
			if len(out.Notes) == 0 {
				t.Error("experiment produced no headline notes")
			}
		})
	}
}

// TestHeadlineShapes spot-checks the paper's headline claims on the small
// environment.
func TestHeadlineShapes(t *testing.T) {
	env := testEnv(t)

	t.Run("five patterns exist", func(t *testing.T) {
		out, err := Figure6(env)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range out.Notes {
			if strings.Contains(n, "minimised at K=") {
				found = true
			}
		}
		if !found {
			t.Error("figure 6 notes missing the DBI minimum")
		}
	})

	t.Run("reconstruction loss small", func(t *testing.T) {
		out, err := Figure12(env)
		if err != nil {
			t.Fatal(err)
		}
		// The energy-loss note must report a small percentage; parse it
		// loosely by checking the figure exists and the note mentions '%'.
		if len(out.Figures) != 2 {
			t.Fatalf("figure 12 should emit 2 figures, got %d", len(out.Figures))
		}
		if !strings.Contains(strings.Join(out.Notes, " "), "%") {
			t.Error("figure 12 notes missing energy loss percentage")
		}
	})

	t.Run("office weekday ratio above resident", func(t *testing.T) {
		views := regionOrder(env.Result)
		var office, resident float64
		for _, v := range views {
			switch v.Region.String() {
			case "office":
				office = v.TimeSummary.WeekdayWeekendRatio
			case "resident":
				resident = v.TimeSummary.WeekdayWeekendRatio
			}
		}
		if office <= resident {
			t.Errorf("office weekday/weekend ratio (%g) should exceed resident (%g)", office, resident)
		}
	})

	t.Run("transport has strongest half-day component", func(t *testing.T) {
		out, err := Figure15(env)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.Join(out.Notes, " ")
		if !strings.Contains(joined, "half-day") {
			t.Error("figure 15 notes missing the half-day check")
		}
	})

	// A note printed with a literal "%%" was built from a plain string, not
	// formatted from a measurement.
	t.Run("notes are formatted", func(t *testing.T) {
		for _, r := range Registry() {
			out, err := r.Run(env)
			if err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			for _, n := range out.Notes {
				if strings.Contains(n, "%%") {
					t.Errorf("%s note contains a literal %%%%: %q", r.Name, n)
				}
			}
		}
	})

	t.Run("table 1 names its largest and smallest cluster", func(t *testing.T) {
		out, err := Table1(env)
		if err != nil {
			t.Fatal(err)
		}
		rows := out.Tables[0].Rows
		towers := func(row []string) int {
			n, err := strconv.Atoi(row[2])
			if err != nil {
				t.Fatalf("towers cell %q: %v", row[2], err)
			}
			return n
		}
		first, last := rows[0], rows[0]
		for _, row := range rows[1:] {
			if towers(row) > towers(first) {
				first = row
			}
			if towers(row) < towers(last) {
				last = row
			}
		}
		want := fmt.Sprintf("%s is the largest cluster and %s the smallest", first[1], last[1])
		if joined := strings.Join(out.Notes, "\n"); !strings.Contains(joined, want) {
			t.Errorf("table 1 notes do not say %q:\n%s", want, joined)
		}
	})
}

func TestRegionOrderStable(t *testing.T) {
	env := testEnv(t)
	views := regionOrder(env.Result)
	if len(views) != len(env.Result.Clusters) {
		t.Fatal("regionOrder dropped clusters")
	}
	// Canonical order: resident before office before comprehensive when all
	// are present.
	pos := map[string]int{}
	for i, v := range views {
		if _, ok := pos[v.Region.String()]; !ok {
			pos[v.Region.String()] = i
		}
	}
	if pos["resident"] > pos["office"] || pos["office"] > pos["comprehensive"] {
		t.Errorf("unexpected region order: %v", pos)
	}
}

// Table 6's consistency note counts a comprehensive tower as agreeing when
// its smallest-NTF-IDF type has the smallest coefficient. With exact zeros
// the minimum is tied, and the verdict must not depend on which tied index
// comes first: comparing against Vec.Min's first index called the first
// and the last tower below disagreeing.
func TestSmallestAgreeTiedZeroCoefficients(t *testing.T) {
	coefs := linalg.Vector{0.6, 0, 0.4, 0}
	ntf := poi.Counts{0.5, 0.3, 0.4, 0.1} // smallest: type 3
	if !smallestAgree(coefs, ntf) {
		t.Error("type 3 has a zero coefficient tied for smallest: want agreement")
	}
	ntf = poi.Counts{0.5, 0.3, 0.1, 0.4} // smallest: type 2
	if smallestAgree(coefs, ntf) {
		t.Error("type 2's coefficient 0.4 is not the smallest: want disagreement")
	}
	coefs = linalg.Vector{0, 0.5, 0.5, 0}
	ntf = poi.Counts{0.2, 0.3, 0.4, 0.1}
	if !smallestAgree(coefs, ntf) {
		t.Error("type 3 ties index 0 at zero: want agreement")
	}
}
