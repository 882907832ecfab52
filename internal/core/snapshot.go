package core

// Checkpoint support for the Stage II path: message codecs for the Stage
// II vocabulary, the Snapshottable implementations of PartCtxStep and
// stage2Node, and the ResumeTester entry point that reconstructs a full
// planarity-tester run from an engine checkpoint. Together with the Stage
// I support in internal/partition, every program state the planar tester
// parks in (Stage I interpreter, part-context prelude, Stage II machine)
// round-trips through a checkpoint; the minor-free/hereditary testers'
// gatherEvalNode and the Elkin–Neiman baseline do not implement
// Snapshottable, so those runs report congest.ErrNotSnapshottable and
// simply run without durability.

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Program snapshot kinds of package core (internal/partition owns
// SnapKindStageI = 1).
const (
	// SnapKindPartCtx identifies a part-context prelude record.
	SnapKindPartCtx uint16 = 2
	// SnapKindStageII identifies a Stage II machine record.
	SnapKindStageII uint16 = 3
)

// Message codec kinds 64..95 are reserved for package core
// (internal/congest uses 1..31, internal/partition 32..63).
const (
	msgKindAnnounce uint16 = 64 + iota
	msgKindVal
	msgKindNone
	msgKindBFS
	msgKindChild
	msgKindLvl
	msgKindCounts
	msgKindEdgeItem
	msgKindRotItem
	msgKindEmbedFail
	msgKindLabelChunk
	msgKindSampleChunk
	msgKindEdgeList
)

func init() {
	type M = congest.Message
	type C = congest.SnapCodec
	congest.RegisterMessageCodec(msgKindAnnounce, announceMsg{}, func(c *C, m M) M {
		a, _ := m.(announceMsg)
		c.Varint(&a.PartRoot)
		c.Varint(&a.ID)
		return a
	})
	congest.RegisterMessageCodec(msgKindVal, valMsg{}, func(c *C, m M) M {
		v, _ := m.(valMsg)
		c.Varint(&v.V)
		return v
	})
	congest.RegisterMessageCodec(msgKindNone, noneMsg{}, nil)
	congest.RegisterMessageCodec(msgKindBFS, bfsMsg{}, func(c *C, m M) M {
		b, _ := m.(bfsMsg)
		c.Varint(&b.Level)
		return b
	})
	congest.RegisterMessageCodec(msgKindChild, childMsg{}, nil)
	congest.RegisterMessageCodec(msgKindLvl, lvlMsg{}, func(c *C, m M) M {
		l, _ := m.(lvlMsg)
		c.Varint(&l.Level)
		return l
	})
	congest.RegisterMessageCodec(msgKindCounts, countsMsg{}, func(c *C, m M) M {
		n, _ := m.(countsMsg)
		c.Varint(&n.N)
		c.Varint(&n.M)
		c.Bool(&n.Reject)
		return n
	})
	congest.RegisterMessageCodec(msgKindEdgeItem, edgeItem{}, func(c *C, m M) M {
		e, _ := m.(edgeItem)
		c.Varint(&e.A)
		c.Varint(&e.B)
		return e
	})
	congest.RegisterMessageCodec(msgKindRotItem, rotItem{}, func(c *C, m M) M {
		r, _ := m.(rotItem)
		c.Varint(&r.Node)
		congest.SnapVarint(c, &r.Idx)
		c.Varint(&r.Nbr)
		return r
	})
	congest.RegisterMessageCodec(msgKindEmbedFail, embedFail{}, nil)
	congest.RegisterMessageCodec(msgKindLabelChunk, labelChunk{}, func(c *C, m M) M {
		l, _ := m.(labelChunk)
		congest.SnapSlice(c, &l.Elems, congest.SnapVarint[int32])
		c.Bool(&l.Last)
		return l
	})
	congest.RegisterMessageCodec(msgKindSampleChunk, &sampleChunk{}, func(c *C, m M) M {
		ch, _ := m.(*sampleChunk)
		if ch == nil {
			ch = new(sampleChunk)
		}
		c.Varint(&ch.Owner)
		congest.SnapVarint(c, &ch.EIdx)
		congest.SnapVarint(c, &ch.CIdx)
		c.Bool(&ch.Last)
		congest.SnapSlice(c, &ch.Elems, congest.SnapVarint[int32])
		return ch
	})
	// edgeListMsg is never sent, but it can sit in a node's result
	// register between dependent ops while the follow-up op is in flight,
	// so it needs a codec like any parked state.
	congest.RegisterMessageCodec(msgKindEdgeList, edgeListMsg{}, func(c *C, m M) M {
		e, _ := m.(edgeListMsg)
		congest.SnapSlice(c, &e.items, (*congest.SnapCodec).Msg)
		return e
	})
}

// snapOutcome codes a partition.Outcome (each Stage II program carries
// its own copy).
func snapOutcome(c *congest.SnapCodec, o *partition.Outcome) {
	c.Varint(&o.RootID)
	c.Tree(&o.Tree)
	c.Bool(&o.Rejected)
	c.Int(&o.PhasesRun)
	c.Bool(&o.EarlyExit)
}

// snapLabel codes a nil-preserving label.
func snapLabel(c *congest.SnapCodec, l *Label) {
	congest.SnapSlice(c, l, congest.SnapVarint[int32])
}

// SnapshotKind implements congest.Snapshottable.
func (c *PartCtxStep) SnapshotKind() uint16 { return SnapKindPartCtx }

// SnapState implements congest.Snapshottable. The done callback is not
// serialized; the restore entry point reinstalls the Stage II handoff
// (the only callback the planar tester parks with — the minor-free
// testers' continuations are not snapshottable).
func (c *PartCtxStep) SnapState(sc *congest.SnapCodec) {
	snapOutcome(sc, c.part)
	congest.SnapVarint(sc, &c.pc)
	sc.Bool(&c.inOp)
	c.bd.SnapState(sc)
	c.cv.SnapState(sc)
	sc.Msg(&c.reg)
	sc.Int(&c.budget)
	sc.Int(&c.maxDepth)
	congest.SnapSlice(sc, &c.intra, (*congest.SnapCodec).Bool)
	congest.SnapSlice(sc, &c.nbrID, (*congest.SnapCodec).Varint)
	congest.SnapSlice(sc, &c.nbrLvl, (*congest.SnapCodec).Varint)
	sc.Tree(&c.tree)
	sc.Varint(&c.level)
	congest.SnapSlice(sc, &c.assigned, (*congest.SnapCodec).Int)
	sc.Int(&c.deadline)
	sc.Bool(&c.adopted)
	sc.Int(&c.parentPort)
	congest.SnapSlice(sc, &c.childPorts, (*congest.SnapCodec).Int)
}

// resumePartCtx restores a part-context record; opts parameterizes the
// reinstalled Stage II handoff exactly as NewStageIINode would.
func resumePartCtx(sc *congest.SnapCodec, opts StageIIOptions) (congest.StepProgram, error) {
	o := opts.withDefaults()
	c := &PartCtxStep{part: new(partition.Outcome), restored: true, phase: o.partCtxPhase}
	c.SnapState(sc)
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c.pc > pcDone {
		return nil, fmt.Errorf("%w: part-context pc %d out of range", congest.ErrBadSnapshot, c.pc)
	}
	c.done = stageIIHandoff(c.part, o)
	return c, nil
}

// reattach reinstalls the function-typed tree-machine state after a
// restore (the depth probe's per-hop transform and the depth
// convergecast's combiner; every other op runs without functions).
func (c *PartCtxStep) reattach() {
	if !c.inOp {
		return
	}
	switch c.pc {
	case pcDepthDown:
		c.bd.SetTransform(depthTransform)
	case pcDepthUp:
		c.cv.SetCombine(combineMaxVal)
	}
}

// SnapshotKind implements congest.Snapshottable.
func (s *stage2Node) SnapshotKind() uint16 { return SnapKindStageII }

// SnapState implements congest.Snapshottable. Every mutable field is
// coded except the assigned non-tree cache (nonTree/haveNonTree), which
// is a pure function of coded fields and is recomputed on demand after a
// restore, and the obs phase IDs (see StageIIOptions).
func (s *stage2Node) SnapState(c *congest.SnapCodec) {
	snapOutcome(c, s.part)
	c.Float64(&s.opts.Epsilon)
	c.Float64(&s.opts.SampleCoeff)
	congest.SnapVarint(c, &s.opts.EmbedMode)
	c.Bool(&s.opts.StrictEmbedReject)
	congest.SnapVarint(c, &s.pc)
	c.Bool(&s.inOp)
	s.bd.SnapState(c)
	s.cv.SnapState(c)
	s.pu.SnapState(c)
	s.bid.SnapState(c)
	c.Msg(&s.reg)
	c.Int(&s.budget)
	c.Int(&s.maxDepth)
	congest.SnapSlice(c, &s.intra, (*congest.SnapCodec).Bool)
	congest.SnapSlice(c, &s.nbrID, (*congest.SnapCodec).Varint)
	congest.SnapSlice(c, &s.nbrLvl, (*congest.SnapCodec).Varint)
	c.Tree(&s.tree)
	c.Varint(&s.level)
	congest.SnapSlice(c, &s.assigned, (*congest.SnapCodec).Int)
	c.Varint(&s.partN)
	c.Varint(&s.partM)
	congest.SnapSlice(c, &s.rotPorts, (*congest.SnapCodec).Int)
	snapLabel(c, &s.label)
	congest.SnapSlice(c, &s.edgePos, congest.SnapVarint[int32])
	congest.SnapSlice(c, &s.nbrLabels, snapLabel)
	c.Int(&s.deadline)
	c.Int(&s.per)
	c.Int(&s.chunks)
	c.Int(&s.ci)
	congest.SnapSlice(c, &s.tails, congest.SnapVarint[int32])
	c.Int(&s.tailLo)
	c.Bool(&s.streaming)
	c.Bool(&s.gotAll)
	congest.SnapSlice(c, &s.xPorts, (*congest.SnapCodec).Int)
	congest.SnapSlice(c, &s.finished, (*congest.SnapCodec).Bool)
	c.Int(&s.capChunks)
	c.Int(&s.sBudget)
	congest.SnapSlice(c, &s.samples, func(c *congest.SnapCodec, e *LabeledEdge) {
		snapLabel(c, &e.U)
		snapLabel(c, &e.V)
	})
	congest.SnapUvarint(c, &s.verdict)
}

// resumeStage2 restores a Stage II record. The caller's opts supply only
// the obs phase IDs (deliberately not serialized — see StageIIOptions);
// every algorithmic option is decoded from the record itself.
func resumeStage2(c *congest.SnapCodec, opts StageIIOptions) (congest.StepProgram, error) {
	s := &stage2Node{part: new(partition.Outcome), restored: true}
	s.SnapState(c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	if s.pc > o2Finish {
		return nil, fmt.Errorf("%w: stage II pc %d out of range", congest.ErrBadSnapshot, s.pc)
	}
	s.opts.partCtxPhase = opts.partCtxPhase
	s.opts.opsPhase = opts.opsPhase
	return s, nil
}

// reattach reinstalls the function-typed state a checkpoint cannot carry:
// the counts combiner and the rotation-scatter Keep filter (the only two
// ops that park with a function installed — the sample stream runs with
// Keep nil and every Stage II broadcast uses a nil transform).
func (s *stage2Node) reattach(api *congest.StepAPI) {
	if !s.inOp {
		return
	}
	switch s.pc {
	case o2CountUp:
		s.cv.SetCombine(combineCounts)
	case o2Scatter:
		id := api.ID()
		s.bid.Keep = func(m congest.Message) bool {
			r, ok := m.(rotItem)
			return !ok || r.Node == id
		}
	}
}

// ResumeTester resumes a checkpointed RunTester execution. The graph,
// options, and seed must be those of the original run (the snapshot
// validates n, m, and carries the seed and node ids itself); data is a
// checkpoint produced via congest.Config.Checkpoint. The resumed run
// continues from the captured barrier and produces a byte-identical
// RunResult with identical Metrics.Rounds.
func ResumeTester(g *graph.Graph, opts Options, seed int64, data []byte) (*RunResult, error) {
	o := opts.withDefaults()
	if o.UseEN {
		return nil, fmt.Errorf("core: resume: %w: Elkin–Neiman runs are not snapshottable", congest.ErrNotSnapshottable)
	}
	plan := partition.NewStageIPlan(o.Partition, g.N())
	res, err := congest.ResumeStep(testerConfig(g, seed, o), data, testerRestore(plan, o))
	return newRunResult(res, err)
}

// testerRestore rebuilds the planar tester's programs (Stage I, part
// context, Stage II) from their checkpoint records.
func testerRestore(plan *partition.StageIPlan, o Options) congest.RestoreFunc {
	return func(node int, kind uint16, c *congest.SnapCodec) (congest.StepProgram, error) {
		switch kind {
		case partition.SnapKindStageI:
			return plan.ResumeNode(c, func(api *congest.StepAPI, po *partition.Outcome) congest.Status {
				return congest.BecomeStep(NewStageIINode(po, o.StageII))
			})
		case SnapKindPartCtx:
			return resumePartCtx(c, o.StageII)
		case SnapKindStageII:
			return resumeStage2(c, o.StageII)
		}
		return nil, fmt.Errorf("%w: unknown program snapshot kind %d", congest.ErrBadSnapshot, kind)
	}
}
