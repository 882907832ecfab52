package testers

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/planar"
)

// TestMinorFreeEngineEquivalence pins the minor-free property testers —
// both properties, both Stage I variants, accepting and rejecting
// families — across seeds and worker counts to testdata/minorfree.golden,
// captured from the blocking execution model (DESIGN.md §2): the run
// error, the verdict summary, and every Metrics field.
func TestMinorFreeEngineEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(7, 7)},                                                          // accepts both properties' bipartite side
		{"tree", graph.RandomTree(50, rand.New(rand.NewSource(1)))},                         // accepts cycle-freeness
		{"tree-plus-edges", graph.TreePlusRandomEdges(60, 20, rand.New(rand.NewSource(2)))}, // rejects cycle-freeness
		{"odd-chords", graph.GridWithOddChords(6, 6, 5, rand.New(rand.NewSource(3)))},       // rejects bipartiteness
	}
	variants := []partition.Variant{partition.Deterministic, partition.Randomized}
	var lines []string
	for _, fam := range families {
		for _, prop := range []Property{CycleFreeness, Bipartiteness} {
			for _, variant := range variants {
				for seed := int64(0); seed < 2; seed++ {
					for _, w := range []int{1, 2} {
						key := fmt.Sprintf("%s/%v/variant%d/seed%d/w%d", fam.name, prop, variant, seed, w)
						opts := Options{Epsilon: 0.2, Workers: w, Partition: partition.Options{
							Epsilon: 0.2, Variant: variant, Schedule: partition.PracticalSchedule}}
						r, err := Run(fam.g, prop, opts, seed)
						lines = append(lines, goldenLine(key, r, err))
					}
				}
			}
		}
	}
	checkGolden(t, "minorfree.golden", lines)
}

// TestHereditaryEngineEquivalence does the same for the generic
// hereditary-property tester (outerplanarity as the predicate),
// including a rejecting family (testdata/hereditary.golden).
func TestHereditaryEngineEquivalence(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"outerplanar", graph.Outerplanar(30, rand.New(rand.NewSource(5)))}, // accepts
		{"cycle", graph.Cycle(25)}, // accepts
		{"grid", graph.Grid(6, 6)}, // rejects (not outerplanar)
	}
	var lines []string
	for _, fam := range families {
		for seed := int64(0); seed < 2; seed++ {
			for _, w := range []int{1, 2} {
				key := fmt.Sprintf("%s/seed%d/w%d", fam.name, seed, w)
				opts := Options{Epsilon: 0.25, Workers: w, Partition: partition.Options{
					Epsilon: 0.25, Schedule: partition.PracticalSchedule}}
				r, err := RunHereditary(fam.g, planar.IsOuterplanar, opts, seed)
				lines = append(lines, goldenLine(key, r, err))
			}
		}
	}
	checkGolden(t, "hereditary.golden", lines)
}

// goldenLine formats one case: the run error, or the verdict summary
// and every Metrics field (Phases stays nil without a probe).
func goldenLine(key string, r *core.RunResult, err error) string {
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
