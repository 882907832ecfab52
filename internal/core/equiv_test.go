package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// TestTesterEngineEquivalence pins the full tester — deterministic and
// randomized Stage I and the Elkin–Neiman baseline, each chained into
// Stage II — on accepting and rejecting inputs across several graph
// families, seeds, and worker counts to testdata/tester.golden, captured
// from the blocking execution model (DESIGN.md §2): the run error, the
// verdict summary, and every Metrics field.
func TestTesterEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	far, _ := graph.PlanarPlusRandomEdges(60, 50, rng)
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(8, 8)},
		{"far-from-planar", far},
		{"tree-plus-edges", graph.TreePlusRandomEdges(70, 20, rand.New(rand.NewSource(8)))},
		{"cycle", graph.Cycle(33)},
	}
	optsList := []Options{
		{Epsilon: 0.25},
		{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Schedule: partition.PracticalSchedule}},
		{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Variant: partition.Randomized, Schedule: partition.PracticalSchedule}},
		{Epsilon: 0.25, UseEN: true},
	}
	var lines []string
	for _, fam := range families {
		for oi, opts := range optsList {
			for seed := int64(0); seed < 3; seed++ {
				for _, w := range []int{1, 2} {
					opts.Workers = w
					key := fmt.Sprintf("%s/opts%d/seed%d/w%d", fam.name, oi, seed, w)
					r, err := RunTester(fam.g, opts, seed)
					lines = append(lines, goldenLine(key, r, err))
				}
			}
		}
	}
	checkGolden(t, "tester.golden", lines)
}

// goldenLine formats one case: the run error, or the verdict summary
// and every Metrics field (Phases stays nil without a probe).
func goldenLine(key string, r *RunResult, err error) string {
	if err != nil {
		return fmt.Sprintf("%s err=%q", key, err.Error())
	}
	return fmt.Sprintf("%s err=\"\" rejected=%v rejectedBy=%d metrics=%+v phases=%v",
		key, r.Rejected, r.RejectedBy, r.Metrics, r.Phases != nil)
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
