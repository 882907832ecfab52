package partition

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

// TestStageIEngineEquivalence pins Stage I (both variants, both
// schedules) across several graph families, seeds, and worker counts to
// the digests in testdata/stage1.golden, captured from the blocking
// execution model (DESIGN.md §2): the run error, every Metrics field,
// and the per-node verdicts and outcomes.
func TestStageIEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	farG, _ := graph.PlanarPlusRandomEdges(60, 40, rng)
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(7, 9)},
		{"cycle", graph.Cycle(41)},
		{"tree-plus-edges", graph.TreePlusRandomEdges(50, 12, rand.New(rand.NewSource(7)))},
		{"planar-plus-edges", farG},
		{"star", graph.Star(17)},
	}
	schedules := []Schedule{PaperSchedule, PracticalSchedule}
	variants := []Variant{Deterministic, Randomized}
	var lines []string
	for _, fam := range families {
		for _, sched := range schedules {
			for _, variant := range variants {
				for seed := int64(0); seed < 3; seed++ {
					for _, w := range []int{1, 2} {
						opts := Options{Epsilon: 0.25, Schedule: sched, Variant: variant}
						key := fmt.Sprintf("%s/%v/variant%d/seed%d/w%d", fam.name, sched, variant, seed, w)
						outs, _, res, err := runStageI(fam.g, opts, seed, w, congest.CheckpointConfig{}, nil)
						lines = append(lines, goldenLine(key, res, err, outs))
					}
				}
			}
		}
	}
	checkGolden(t, "stage1.golden", lines)
}

// TestENEngineEquivalence does the same for the Elkin–Neiman baseline
// (testdata/en.golden).
func TestENEngineEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(8, 8)},
		{"cycle", graph.Cycle(37)},
		{"tree-plus-edges", graph.TreePlusRandomEdges(60, 15, rand.New(rand.NewSource(3)))},
		{"star", graph.Star(21)},
	}
	var lines []string
	for _, fam := range families {
		for _, eps := range []float64{0.25, 0.5} {
			for seed := int64(0); seed < 3; seed++ {
				for _, w := range []int{1, 2} {
					key := fmt.Sprintf("%s/eps%v/seed%d/w%d", fam.name, eps, seed, w)
					outs, res, err := runEN(fam.g, eps, seed, w)
					lines = append(lines, goldenLine(key, res, err, outs))
				}
			}
		}
	}
	checkGolden(t, "en.golden", lines)
}

// runEN is CollectEN with an explicit engine worker count.
func runEN(g *graph.Graph, eps float64, seed int64, workers int) ([]*Outcome, *congest.Result, error) {
	outs := make([]*Outcome, g.N())
	cfg := congest.Config{Graph: g, Seed: seed, IDs: permIDs(g.N(), seed), Workers: workers}
	res, err := congest.RunStep(cfg, func(node int) congest.StepProgram {
		return NewENNode(eps, func(api *congest.StepAPI, out *Outcome) congest.Status {
			outs[api.Index()] = out
			return congest.Done()
		})
	})
	return outs, res, err
}

func equalPorts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// goldenLine formats one case: the run error, every Metrics field, and
// SHA-256 digests of the per-node verdicts and outcomes. A failed run
// pins only its error.
func goldenLine(key string, res *congest.Result, err error, outs []*Outcome) string {
	if err != nil {
		return fmt.Sprintf("%s err=%q", key, err.Error())
	}
	var b strings.Builder
	for _, o := range outs {
		if o == nil {
			b.WriteString("nil\n")
		} else {
			fmt.Fprintf(&b, "%+v\n", *o)
		}
	}
	return fmt.Sprintf("%s err=\"\" metrics=%+v verdicts=%s outcomes=%s",
		key, res.Metrics, sha(fmt.Sprint(res.Verdicts)), sha(b.String()))
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// checkGolden compares the case lines against testdata/<file>.
func checkGolden(t *testing.T, file string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%s: %d cases, golden file has %d lines", path, len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Fatalf("%s:%d mismatch:\n got: %s\nwant: %s", path, i+1, lines[i], want[i])
		}
	}
}

// TestStageIStepValidates runs Stage I on a larger grid and
// checks the structural partition guarantees end to end.
func TestStageIStepValidates(t *testing.T) {
	g := graph.Grid(10, 10)
	opts := Options{Epsilon: 0.25, Schedule: PracticalSchedule}
	outs, ids, res, err := CollectStageI(g, opts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected() {
		t.Fatal("planar grid rejected by Stage I")
	}
	if err := ValidateOutcomes(g, ids, outs, 0); err != nil {
		t.Fatal(err)
	}
}
