package spanner

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
	"repro/internal/partition"
)

// TestSpannerEngineEquivalence pins the spanner construction across
// several graph families, both Stage I variants, seeds, and worker
// counts to testdata/spanner.golden, captured from the blocking
// execution model (DESIGN.md §2): the run error, every Metrics field,
// and digests of the per-node views and of the spanner subgraph.
func TestSpannerEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(7, 8)},
		{"maximal-planar", graph.MaximalPlanar(50, rng)},
		{"outerplanar", graph.Outerplanar(35, rng)},
		{"tree", graph.RandomTree(40, rng)},
	}
	variants := []partition.Variant{partition.Deterministic, partition.Randomized}
	var lines []string
	for _, fam := range families {
		for _, variant := range variants {
			for seed := int64(0); seed < 2; seed++ {
				for _, w := range []int{1, 2} {
					key := fmt.Sprintf("%s/variant%d/seed%d/w%d", fam.name, variant, seed, w)
					opts := Options{Epsilon: 0.3, Workers: w, Partition: partition.Options{
						Epsilon: 0.3, Variant: variant, Schedule: partition.PracticalSchedule}}
					sp, views, m, err := Collect(fam.g, opts, seed)
					lines = append(lines, goldenLine(key, sp, views, m, err))
				}
			}
		}
	}
	checkGolden(t, "spanner.golden", lines)
}

// goldenLine formats one case: the run error, every Metrics field, and
// SHA-256 digests of the per-node views and of the spanner's edge list.
// A failed run pins only its error.
func goldenLine(key string, sp *graph.Graph, views []*NodeSpanner, m congest.Metrics, err error) string {
	if err != nil {
		return fmt.Sprintf("%s err=%q", key, err.Error())
	}
	var b strings.Builder
	for _, v := range views {
		fmt.Fprintf(&b, "%+v\n", *v)
	}
	return fmt.Sprintf("%s err=\"\" metrics=%+v views=%s edges=%s",
		key, m, sha(b.String()), sha(fmt.Sprint(sp.Edges())))
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

func TestSpannerOnGrid(t *testing.T) {
	g := graph.Grid(8, 8)
	eps := 0.4
	sp, views, _, err := Collect(g, Options{Epsilon: eps}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySymmetric(g, views); err != nil {
		t.Fatal(err)
	}
	// Size: (1 + O(eps)) n for minor-free inputs (Corollary 17).
	bound := (1 + 2*eps) * float64(g.N())
	if float64(sp.M()) > bound {
		t.Fatalf("spanner has %d edges, bound %.1f", sp.M(), bound)
	}
	// Connectivity must be preserved per component.
	if !sp.IsConnected() {
		t.Fatal("grid spanner must be connected")
	}
	// Stretch: bounded by the agreed per-part bound.
	rng := rand.New(rand.NewSource(2))
	maxS, _ := MeasureStretch(g, sp, 200, rng)
	if maxS < 0 {
		t.Fatal("spanner disconnected inside a component")
	}
	worst := 0
	for _, v := range views {
		if v.StretchBound > worst {
			worst = v.StretchBound
		}
	}
	if maxS > float64(worst)+1 {
		t.Fatalf("measured stretch %.1f exceeds certified bound %d", maxS, worst)
	}
}

func TestSpannerOnPlanarFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []*graph.Graph{
		graph.MaximalPlanar(50, rng),
		graph.RandomPlanar(60, 120, rng),
		graph.Outerplanar(40, rng),
		graph.Cycle(30),
	}
	for i, g := range cases {
		sp, views, _, err := Collect(g, Options{Epsilon: 0.3}, int64(10+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifySymmetric(g, views); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if float64(sp.M()) > (1+2*0.3)*float64(g.N()) {
			t.Fatalf("case %d: %d edges exceed size bound", i, sp.M())
		}
		maxS, _ := MeasureStretch(g, sp, 100, rng)
		if maxS < 0 {
			t.Fatalf("case %d: spanner disconnected", i)
		}
	}
}

func TestSpannerTreeInput(t *testing.T) {
	// A tree's spanner is the tree itself (stretch 1).
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomTree(40, rng)
	sp, _, _, err := Collect(g, Options{Epsilon: 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sp.M() != g.M() {
		t.Fatalf("tree spanner must keep all %d edges, has %d", g.M(), sp.M())
	}
	maxS, mean := MeasureStretch(g, sp, 100, rng)
	if maxS != 1 || mean != 1 {
		t.Fatalf("tree stretch must be 1, got max %.2f mean %.2f", maxS, mean)
	}
}

func TestSpannerRandomizedPartition(t *testing.T) {
	g := graph.Grid(7, 7)
	opts := Options{
		Epsilon:   0.4,
		Partition: partition.Options{Epsilon: 0.4, Variant: partition.Randomized},
	}
	sp, views, _, err := Collect(g, opts, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySymmetric(g, views); err != nil {
		t.Fatal(err)
	}
	if !sp.IsConnected() {
		t.Fatal("spanner must be connected")
	}
}

func TestSpannerPreservesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.DisjointUnion(graph.Grid(4, 4), graph.Cycle(9), graph.RandomTree(11, rng))
	sp, _, _, err := Collect(g, Options{Epsilon: 0.3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, kg := g.Components()
	_, ks := sp.Components()
	if kg != ks {
		t.Fatalf("component count changed: %d -> %d", kg, ks)
	}
}
