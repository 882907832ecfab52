package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
)

// k5Far returns copies disjoint K5 subdivisions joined into one
// connected graph: every copy needs its own edge deletion, so the graph
// stays far from planar as it grows.
func k5Far(copies int) *graph.Graph {
	parts := make([]*graph.Graph, copies)
	for i := range parts {
		parts[i] = graph.K5Subdivision(7)
	}
	return graph.ConnectParts(graph.DisjointUnion(parts...), rand.New(rand.NewSource(5)))
}

// TestSnapshotFormatGolden pins the checkpoint bytes to
// testdata/checkpoint.golden. The runs cover accepting and rejecting
// graphs under both Stage I variants, so Stage I, part-context and Stage
// II records all appear. Each line holds, for one run with a
// checkpoint every 16 barriers, the snapshot count and the SHA-256 over
// the whole Sink stream (per snapshot: uvarint round, uvarint length,
// the bytes). Runs carry no probe, since the obs section records wall
// time. A changed digest means the format moved and older checkpoints
// no longer resume. Each run is also resumed from its middle snapshot
// and must reproduce the uninterrupted Result.
func TestSnapshotFormatGolden(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(12, 12)},
		{"random-planar", graph.RandomPlanar(150, 300, rand.New(rand.NewSource(3)))},
		{"k5-far", k5Far(16)},
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"det", Options{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Schedule: partition.PracticalSchedule}}},
		{"rand", Options{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Variant: partition.Randomized, Schedule: partition.PracticalSchedule}}},
	}
	var lines []string
	for _, fam := range families {
		for _, v := range variants {
			for seed := int64(0); seed < 2; seed++ {
				for _, w := range []int{1, 2} {
					key := fmt.Sprintf("%s/%s/seed%d/w%d", fam.name, v.name, seed, w)
					h := sha256.New()
					var snaps [][]byte
					opts := v.opts
					opts.Workers = w
					opts.Checkpoint = congest.CheckpointConfig{
						EveryBarriers: 16,
						Sink: func(round int, data []byte) error {
							h.Write(binary.AppendUvarint(nil, uint64(round)))
							h.Write(binary.AppendUvarint(nil, uint64(len(data))))
							h.Write(data)
							snaps = append(snaps, data)
							return nil
						},
						OnError: func(round int, err error) {
							t.Errorf("%s: checkpoint at round %d: %v", key, round, err)
						},
					}
					base, err := RunTester(fam.g, opts, seed)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					lines = append(lines, fmt.Sprintf("%s snapshots=%d sha256=%x", key, len(snaps), h.Sum(nil)))
					if len(snaps) == 0 {
						continue
					}
					res, err := ResumeTester(fam.g, v.opts, seed, snaps[len(snaps)/2])
					if err != nil {
						t.Fatalf("%s: resume: %v", key, err)
					}
					if !reflect.DeepEqual(base, res) {
						t.Fatalf("%s: resumed result differs:\nbase:    %+v\nresumed: %+v", key, base, res)
					}
				}
			}
		}
	}
	checkGolden(t, "checkpoint.golden", lines)
}

// recordOpts are the options of the runs whose program records seed the
// restore tests below.
var recordOpts = Options{Epsilon: 0.25, Partition: partition.Options{Epsilon: 0.25, Schedule: partition.PracticalSchedule}}

// realRecords returns one real program record per snapshot kind (Stage
// I, part context, Stage II), each taken from the first live node at the
// middle of the stretch of a checkpointed run where it runs that program. Records
// are recovered by restoring them and coding the program back, which
// reproduces the record bytes exactly (TestSnapshotFormatGolden pins the
// writer, and resume equivalence the reader).
func realRecords(t testing.TB, g *graph.Graph) map[uint16][]byte {
	var snaps [][]byte
	opts := recordOpts
	opts.Checkpoint = congest.CheckpointConfig{
		EveryBarriers: 1,
		Sink:          func(round int, data []byte) error { snaps = append(snaps, data); return nil },
	}
	if _, err := RunTester(g, opts, 1); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop after the first live node")
	byKind := map[uint16][][]byte{}
	o := recordOpts.withDefaults()
	for _, snap := range snaps {
		plan := partition.NewStageIPlan(o.Partition, g.N())
		restore := testerRestore(plan, o)
		_, err := congest.ResumeStep(testerConfig(g, 1, o), snap,
			func(node int, kind uint16, c *congest.SnapCodec) (congest.StepProgram, error) {
				prog, err := restore(node, kind, c)
				if err != nil {
					return nil, err
				}
				w := congest.NewSnapWriter()
				prog.(congest.Snapshottable).SnapState(w)
				byKind[kind] = append(byKind[kind], w.Encoded())
				return nil, stop
			})
		if err != nil && !errors.Is(err, stop) { // nil: no live node left
			t.Fatalf("harvesting records: %v", err)
		}
	}
	recs := map[uint16][]byte{}
	for _, kind := range []uint16{partition.SnapKindStageI, SnapKindPartCtx, SnapKindStageII} {
		list := byKind[kind]
		if len(list) == 0 {
			t.Fatalf("no record of kind %d in %d snapshots", kind, len(snaps))
		}
		recs[kind] = list[len(list)/2]
	}
	return recs
}

// restoreRecord runs the planar tester's restore on one record with a
// fresh plan, turning a panic into an error.
func restoreRecord(g *graph.Graph, kind uint16, rec []byte) (prog congest.StepProgram, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("restore panicked: %v", r)
		}
	}()
	o := recordOpts.withDefaults()
	c := congest.NewSnapReader(rec)
	prog, err = testerRestore(partition.NewStageIPlan(o.Partition, g.N()), o)(0, kind, c)
	if err == nil && c.Remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", c.Remaining())
	}
	return prog, err
}

// spliceInt replaces the Int field that follows skip's reads in rec.
func spliceInt(rec []byte, skip func(c *congest.SnapCodec), v int) []byte {
	r := congest.NewSnapReader(rec)
	skip(r)
	start := len(rec) - r.Remaining()
	var old int
	r.Int(&old)
	w := congest.NewSnapWriter()
	w.Int(&v)
	return append(append(append([]byte(nil), rec[:start]...), w.Encoded()...), rec[len(rec)-r.Remaining():]...)
}

// recodeCore restores a part-context or Stage II record, lets edit
// change the program, and codes it back.
func recodeCore(t *testing.T, g *graph.Graph, kind uint16, rec []byte, edit func(congest.StepProgram)) []byte {
	prog, err := restoreRecord(g, kind, rec)
	if err != nil {
		t.Fatalf("kind %d: %v", kind, err)
	}
	edit(prog)
	w := congest.NewSnapWriter()
	prog.(congest.Snapshottable).SnapState(w)
	return w.Encoded()
}

// TestResumeRejectsMalformedRecords feeds program records that decode
// but are out of range — or are cut short — to the planar tester's
// restore: each must fail with an error that wraps
// congest.ErrBadSnapshot (planard quarantines such checkpoints and
// reruns the job) and never panic. The real records restore cleanly.
func TestResumeRejectsMalformedRecords(t *testing.T) {
	g := graph.Grid(6, 6)
	recs := realRecords(t, g)
	stageI := recs[partition.SnapKindStageI]
	skipFlags := func(c *congest.SnapCodec) { // started, finished
		var b bool
		c.Bool(&b)
		c.Bool(&b)
	}
	skipPhase := func(c *congest.SnapCodec) {
		skipFlags(c)
		var v int
		c.Int(&v)
	}
	for kind, rec := range recs {
		if _, err := restoreRecord(g, kind, rec); err != nil {
			t.Fatalf("real record of kind %d: %v", kind, err)
		}
	}
	cases := []struct {
		name string
		kind uint16
		rec  []byte
	}{
		{"stage I phase 0", partition.SnapKindStageI, spliceInt(stageI, skipFlags, 0)},
		{"stage I phase past the plan", partition.SnapKindStageI, spliceInt(stageI, skipFlags, 1000)},
		{"stage I negative pc", partition.SnapKindStageI, spliceInt(stageI, skipPhase, -1)},
		{"stage I pc past the script", partition.SnapKindStageI, spliceInt(stageI, skipPhase, 1<<20)},
		{"stage I truncated", partition.SnapKindStageI, stageI[:len(stageI)/2]},
		{"part-context pc out of range", SnapKindPartCtx, recodeCore(t, g, SnapKindPartCtx, recs[SnapKindPartCtx],
			func(p congest.StepProgram) { p.(*PartCtxStep).pc = pcDone + 1 })},
		{"stage II pc out of range", SnapKindStageII, recodeCore(t, g, SnapKindStageII, recs[SnapKindStageII],
			func(p congest.StepProgram) { p.(*stage2Node).pc = o2Finish + 1 })},
		{"stage II cut inside a varint", SnapKindStageII, []byte{0xFF}},
		{"unknown kind", 77, stageI},
	}
	for _, tc := range cases {
		_, err := restoreRecord(g, tc.kind, tc.rec)
		if !errors.Is(err, congest.ErrBadSnapshot) {
			t.Errorf("%s: want an error wrapping ErrBadSnapshot, got %v", tc.name, err)
		}
	}
}

// FuzzSnapshotRecord feeds arbitrary bytes, under any snapshot kind, to
// the planar tester's restore (Stage I, part context, Stage II). It must
// return a program or an error wrapping congest.ErrBadSnapshot, and
// never panic. Seeds are real records.
func FuzzSnapshotRecord(f *testing.F) {
	g := graph.Grid(6, 6)
	recs := realRecords(f, g)
	for _, kind := range []uint16{partition.SnapKindStageI, SnapKindPartCtx, SnapKindStageII} {
		f.Add(kind, recs[kind])
	}
	f.Fuzz(func(t *testing.T, kind uint16, rec []byte) {
		o := recordOpts.withDefaults()
		prog, err := testerRestore(partition.NewStageIPlan(o.Partition, g.N()), o)(0, kind, congest.NewSnapReader(rec))
		if err != nil && !errors.Is(err, congest.ErrBadSnapshot) {
			t.Fatalf("kind %d: error does not wrap ErrBadSnapshot: %v", kind, err)
		}
		if err == nil && prog == nil {
			t.Fatalf("kind %d: no program and no error", kind)
		}
	})
}
