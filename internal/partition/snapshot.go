package partition

// Checkpoint support for the Stage I step interpreter: message codecs for
// the Stage I vocabulary, the Snapshottable implementation of stageINode,
// and the restore entry point on StageIPlan. The encoding policy is
// "every mutable field except derivable scratch": per-op scratch buffers
// (ownEntries, aggEntries, fdLists, crossScratch, ...) are rebuilt from
// scratch by the next operation that uses them, and the boxed activity
// cache (actMsgRoot/actMsgT/actMsgF) is invalidated by construction —
// rootIDs are always >= 1, so the zero-valued cache key after a restore
// forces a rebuild. Function-typed fields cannot be serialized; Step
// reinstalls them on the first wake after a restore (reattach).

import (
	"fmt"

	"repro/internal/congest"
)

// SnapKindStageI identifies a Stage I interpreter record inside an engine
// checkpoint (congest.Snapshottable.SnapshotKind).
const SnapKindStageI uint16 = 1

// Message codec kinds 32..63 are reserved for package partition
// (internal/congest uses 1..31, internal/core 64..95).
const (
	msgKindNone uint16 = 32 + iota
	msgKindVal
	msgKindPair
	msgKindRootAnnounce
	msgKindStatus
	msgKindActivity
	msgKindDecompAgg
	msgKindSel
	msgKindFSelect
	msgKindReport
	msgKindChildReport
	msgKindColorSums
	msgKindMark
	msgKindEdgeMarked
	msgKindAttach
	msgKindFlip
	msgKindTrial
)

func init() {
	type M = congest.Message
	type C = congest.SnapCodec
	congest.RegisterMessageCodec(msgKindNone, noneMsg{}, nil)
	congest.RegisterMessageCodec(msgKindVal, valMsg{}, func(c *C, m M) M {
		v, _ := m.(valMsg)
		c.Varint(&v.V)
		return vmsg(v.V)
	})
	congest.RegisterMessageCodec(msgKindPair, pairMsg{}, func(c *C, m M) M {
		p, _ := m.(pairMsg)
		p.snap(c)
		if p == (pairMsg{}) {
			return zeroPair
		}
		return p
	})
	congest.RegisterMessageCodec(msgKindRootAnnounce, rootAnnounce{}, func(c *C, m M) M {
		r, _ := m.(rootAnnounce)
		c.Varint(&r.Root)
		return r
	})
	congest.RegisterMessageCodec(msgKindStatus, statusMsg{}, func(c *C, m M) M {
		st, _ := m.(statusMsg)
		st.snap(c)
		return smsg(st.Active, st.Watch)
	})
	congest.RegisterMessageCodec(msgKindActivity, activityMsg{}, func(c *C, m M) M {
		a, _ := m.(activityMsg)
		c.Varint(&a.Root)
		c.Bool(&a.Active)
		return a
	})
	congest.RegisterMessageCodec(msgKindDecompAgg, decompAgg{}, func(c *C, m M) M {
		a, _ := m.(decompAgg)
		c.Bool(&a.TooMany)
		congest.SnapSlice(c, &a.Entries, snapRootWeight)
		congest.SnapSlice(c, &a.Watch, func(c *C, f *rootFlag) {
			c.Varint(&f.Root)
			c.Bool(&f.Active)
		})
		if !a.TooMany && a.Entries == nil && a.Watch == nil {
			return emptyDecomp
		}
		return a
	})
	congest.RegisterMessageCodec(msgKindSel, selMsg{}, func(c *C, m M) M {
		sel, _ := m.(selMsg)
		sel.snap(c)
		return sel
	})
	congest.RegisterMessageCodec(msgKindFSelect, fSelect{}, func(c *C, m M) M {
		f, _ := m.(fSelect)
		c.Varint(&f.ChildRoot)
		return f
	})
	congest.RegisterMessageCodec(msgKindReport, reportMsg{}, func(c *C, m M) M {
		r, _ := m.(reportMsg)
		c.Varint(&r.Color)
		c.Varint(&r.Weight)
		return r
	})
	congest.RegisterMessageCodec(msgKindChildReport, childReport{}, func(c *C, m M) M {
		r, _ := m.(childReport)
		c.Varint(&r.Color)
		c.Varint(&r.Weight)
		return r
	})
	congest.RegisterMessageCodec(msgKindColorSums, colorSums{}, func(c *C, m M) M {
		cs, _ := m.(colorSums)
		cs.snap(c)
		if cs == (colorSums{}) {
			return zeroColorSums
		}
		return cs
	})
	congest.RegisterMessageCodec(msgKindMark, markMsg{}, func(c *C, m M) M {
		mk, _ := m.(markMsg)
		mk.snap(c)
		return mk
	})
	congest.RegisterMessageCodec(msgKindEdgeMarked, edgeMarked{}, nil)
	congest.RegisterMessageCodec(msgKindAttach, attachMsg{}, nil)
	congest.RegisterMessageCodec(msgKindFlip, flipMsg{}, nil)
	congest.RegisterMessageCodec(msgKindTrial, trialMsg{}, func(c *C, m M) M {
		t, _ := m.(trialMsg)
		c.Varint(&t.NodeID)
		c.Varint(&t.Target)
		c.Varint(&t.Degree)
		return t
	})
}

// The field codecs below are shared by message codecs and stageINode
// records, which embed these values directly.

func (p *pairMsg) snap(c *congest.SnapCodec) {
	c.Varint(&p.A)
	c.Varint(&p.B)
}

func (s *statusMsg) snap(c *congest.SnapCodec) {
	c.Bool(&s.Active)
	congest.SnapSlice(c, &s.Watch, (*congest.SnapCodec).Varint)
}

func (s *selMsg) snap(c *congest.SnapCodec) {
	c.Varint(&s.Target)
	c.Varint(&s.Weight)
	c.Bool(&s.HasOut)
}

func (cs *colorSums) snap(c *congest.SnapCodec) {
	for i := range cs.W {
		c.Varint(&cs.W[i])
	}
}

func (mk *markMsg) snap(c *congest.SnapCodec) {
	c.Bool(&mk.MarkOut)
	congest.SnapVarint(c, &mk.InClass)
}

func snapRootWeight(c *congest.SnapCodec, w *rootWeight) {
	c.Varint(&w.Root)
	c.Varint(&w.Weight)
}

// SnapshotKind implements congest.Snapshottable.
func (s *stageINode) SnapshotKind() uint16 { return SnapKindStageI }

// SnapState implements congest.Snapshottable. The field order is the
// record layout of the checkpoint format.
func (s *stageINode) SnapState(c *congest.SnapCodec) {
	varints := (*congest.SnapCodec).Varint
	bools := (*congest.SnapCodec).Bool
	c.Bool(&s.started)
	c.Bool(&s.finished)
	c.Int(&s.phase)
	c.Int(&s.pc)
	c.Bool(&s.inOp)
	c.Int(&s.D)
	c.Int(&s.phasesRun)
	c.Bool(&s.earlyExit)
	s.bd.SnapState(c)
	s.cv.SnapState(c)
	c.Varint(&s.rootID)
	c.Tree(&s.tree)
	c.Bool(&s.rejected)
	congest.SnapSlice(c, &s.nbrRoot, varints)
	congest.SnapSlice(c, &s.cross, bools)
	c.Bool(&s.isU)
	c.Int(&s.uPort)
	congest.SnapSlice(c, &s.fChild, bools)
	congest.SnapSlice(c, &s.fChildColor, varints)
	congest.SnapSlice(c, &s.fChildWt, varints)
	congest.SnapSlice(c, &s.fChildMark, bools)
	c.Bool(&s.partHasOut)
	c.Varint(&s.partTarget)
	c.Varint(&s.partWeight)
	c.Bool(&s.partMutual)
	c.Varint(&s.partColor)
	c.Varint(&s.partPreShift)
	c.Bool(&s.partHasKids)
	c.Bool(&s.partOutMkd)
	c.Bool(&s.partInT)
	c.Int(&s.partLevel)
	c.Bool(&s.partContract)
	c.Bool(&s.fdActive)
	c.Bool(&s.fdResolved)
	congest.SnapSlice(c, &s.watch, varints)
	congest.SnapSlice(c, &s.pending, snapRootWeight)
	congest.SnapSlice(c, &s.outs, snapRootWeight)
	congest.SnapSlice(c, &s.actPort, bools)
	congest.SnapSlice(c, &s.actSeen, bools)
	s.stStatus.snap(c)
	c.Bool(&s.fdJoined)
	c.Bool(&s.fdDirty)
	c.Uvarint(&s.fdCleanMask)
	c.Bool(&s.fdFF)
	c.Bool(&s.cascFF)
	c.Int(&s.fdFFUntil)
	c.Varint(&s.bestW)
	c.Varint(&s.bestTarget)
	c.Msg(&s.opMsg)
	c.Msg(&s.crossGot)
	s.crossPair.snap(c)
	s.gotSel.snap(c)
	c.Msg(&s.cvRes)
	c.Varint(&s.dropDec)
	c.Varint(&s.mbParent)
	s.mkDec.snap(c)
	c.Varint(&s.mkPC)
	c.Bool(&s.mkPCOK)
	s.sums.snap(c)
	s.acc.snap(c)
	c.Varint(&s.parity)
	c.Varint(&s.newRoot)
	c.Bool(&s.merging)
	c.Bool(&s.flipped)
	c.Int(&s.deadline)
}

// ResumeNode reconstructs one node's Stage I program from a checkpoint
// record written by SnapState. The plan must be compiled from the same
// Options and n as the checkpointed run; onDone plays the role it has in
// NewNode. The returned program reinstalls its function-typed state
// (convergecast combiners) on its first Step. A record that decodes but
// is out of range for the plan fails with congest.ErrBadSnapshot.
func (pl *StageIPlan) ResumeNode(c *congest.SnapCodec, onDone func(api *congest.StepAPI, out *Outcome) congest.Status) (congest.StepProgram, error) {
	s := pl.allocNode()
	s.plan = pl
	s.onDone = onDone
	s.restored = true
	s.SnapState(c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	if s.pc < 0 || s.pc >= len(pl.ops) {
		return nil, fmt.Errorf("%w: stage I pc %d out of range [0,%d)", congest.ErrBadSnapshot, s.pc, len(pl.ops))
	}
	if !s.finished && (s.phase < 1 || s.phase > pl.phases) {
		return nil, fmt.Errorf("%w: stage I phase %d out of range [1,%d]", congest.ErrBadSnapshot, s.phase, pl.phases)
	}
	// The plan's batching counters (fdParticipants/fdStable) are single-run
	// state, so the resumed run's fresh plan rebuilds them here from the
	// decoded nodes. ResumeNode runs before the engine starts, so plain
	// increments suffice. Finished nodes no longer vote: their phase is
	// over and its counter slots are never read again.
	if s.fdJoined && !s.finished && pl.fdParticipants != nil {
		p := s.phase - 1
		pl.fdParticipants[p]++
		for l := 1; l < pl.S && l < 64; l++ {
			if s.fdCleanMask&(1<<uint(l)) != 0 {
				pl.fdStable[p*pl.S+l]++
			}
		}
	}
	// The cascade-window tallies (DESIGN.md §10) rebuild the same way: a
	// root's restored T-membership, level, and contraction parity imply
	// exactly the tally writes its history performed this phase — level 0
	// and its parity are assigned in the hop-0 entry glue, level L >= 1
	// (and its parity) during hop L-1 of the respective cascade.
	if !s.finished && s.tree.ParentPort == -1 {
		p := s.phase - 1
		if s.partInT {
			pl.cascInT[p]++
		}
		if L := s.partLevel; L >= 0 && L <= treeHeightBound {
			slot := 0
			if L > 0 {
				slot = L - 1
			}
			pl.lvlAt[p*treeHeightBound+slot]++
			pl.lvlByVal[p*(treeHeightBound+1)+L]++
			if s.parity >= 0 {
				pl.decAt[p*treeHeightBound+slot]++
			}
		}
	}
	return s, nil
}

// reattach reinstalls the function-typed fields that a checkpoint cannot
// carry: the two closure combiners (initCombiners) and, when a convergecast
// op is in flight, the op's combiner on the tree machine. Broadcast ops
// never carry a transform in Stage I (Begin is always called with nil),
// so bd needs no repair.
func (s *stageINode) reattach(api *congest.StepAPI) {
	s.initCombiners(api)
	if s.inOp {
		if op := &s.plan.ops[s.pc]; op.kind == sCvg {
			s.cv.SetCombine(s.cvgCombine(op))
		}
	}
}
