package congest

import "fmt"

// Tree is a node's local view of a rooted spanning tree of (a subgraph of)
// the network: the port leading to its parent and the ports leading to its
// children. All tree operations are budget-synchronized: every node of the
// tree must run the same operation with the same deadline, and every node
// completes exactly at the deadline, keeping multi-part schedules in
// lockstep (the paper's emulation style, §2.1.5).
type Tree struct {
	ParentPort int // -1 at the root
	ChildPorts []int
}

// IsRoot reports whether this node is the tree root.
func (t Tree) IsRoot() bool { return t.ParentPort < 0 }

func (t Tree) isChildPort(p int) bool {
	for _, c := range t.ChildPorts {
		if c == p {
			return true
		}
	}
	return false
}

// The tree communication primitives are small state machines driven from
// a StepProgram:
//
//	completed := sm.Begin(api, ...)   // at the operation's start round
//	for !completed {
//	    // yield sm.Wake() to the engine, then on the next wake:
//	    completed = sm.Feed(api, inbox)
//	}
//	result, ok := sm.Result()
//
// Each machine completes exactly at its deadline. The structs are
// reusable: Begin fully resets them, and retained buffers are recycled
// across operations to keep the hot path allocation-free. They are
// embedded by value in the per-node program state, and everything they
// need per wake reaches them through the slab-backed StepAPI (DESIGN.md
// §8); the run-constant bit bound is captured at Begin so the per-round
// send path does not re-chase it through the engine.

// BroadcastDownStep distributes a message from the root to every tree
// node, transformed on each hop (a nil transform is the identity). Nodes
// forward to their children one round after receiving.
type BroadcastDownStep struct {
	t         Tree
	deadline  int
	transform func(Message) Message
	got       Message
	ok        bool
}

// Begin starts the broadcast at the current round (the root sends to its
// children immediately). It returns true when the operation is already
// complete (deadline reached).
func (b *BroadcastDownStep) Begin(api *StepAPI, t Tree, deadline int, rootMsg Message, transform func(Message) Message) bool {
	b.t, b.deadline, b.transform = t, deadline, transform
	b.got, b.ok = nil, false
	if t.IsRoot() {
		b.got, b.ok = rootMsg, true
		for _, c := range t.ChildPorts {
			api.Send(c, rootMsg)
		}
	}
	return api.Round() >= b.deadline
}

// Feed consumes one wake and reports whether the operation completed.
func (b *BroadcastDownStep) Feed(api *StepAPI, inbox []Inbound) bool {
	if b.got == nil && !b.t.IsRoot() {
		for _, in := range inbox {
			if in.Port != b.t.ParentPort {
				panic(fmt.Sprintf("congest: BroadcastDown: unexpected message on port %d (node %d)", in.Port, api.Index()))
			}
			b.got = in.Msg
		}
		if b.got != nil {
			b.ok = true
			if b.transform != nil {
				b.got = b.transform(b.got)
			}
			for _, c := range b.t.ChildPorts {
				api.Send(c, b.got)
			}
		}
	}
	return api.Round() >= b.deadline
}

// Wake is the scheduling request while the operation is incomplete.
func (b *BroadcastDownStep) Wake() Status { return Sleep(b.deadline) }

// Result returns the received message; ok is false when the deadline
// passed before the message arrived (budget too small).
func (b *BroadcastDownStep) Result() (Message, bool) { return b.got, b.ok }

// SnapState codes the machine for a checkpoint. The transform function is
// not serialized: the owning program must reinstall it after a restore
// (before the next Feed) when it uses one.
func (b *BroadcastDownStep) SnapState(c *SnapCodec) {
	c.Tree(&b.t)
	c.Int(&b.deadline)
	c.Msg(&b.got)
	c.Bool(&b.ok)
}

// SetTransform reinstalls the per-hop transform after a restore; the
// function itself cannot be serialized.
func (b *BroadcastDownStep) SetTransform(f func(Message) Message) { b.transform = f }

// ConvergecastStep aggregates one message from every tree node to the
// root. Each node contributes own; combine merges own with the messages
// of all children (ordered as ChildPorts; every child contributes exactly
// one), and the result travels to the parent.
type ConvergecastStep struct {
	t        Tree
	deadline int
	own      Message
	combine  func(own Message, children []Message) Message
	children []Message // reused across operations
	missing  int
	agg      Message
	ok       bool
}

// Begin starts the convergecast at the current round. Leaves send to their
// parent immediately.
func (c *ConvergecastStep) Begin(api *StepAPI, t Tree, deadline int, own Message, combine func(own Message, children []Message) Message) bool {
	c.t, c.deadline, c.own, c.combine = t, deadline, own, combine
	c.children = c.children[:0]
	for range t.ChildPorts {
		c.children = append(c.children, nil)
	}
	c.missing = len(t.ChildPorts)
	c.agg, c.ok = nil, false
	if c.missing == 0 {
		c.finish(api)
	}
	return api.Round() >= c.deadline
}

// Feed consumes one wake and reports whether the operation completed.
func (c *ConvergecastStep) Feed(api *StepAPI, inbox []Inbound) bool {
	if c.missing > 0 {
		for _, in := range inbox {
			idx := -1
			for i, p := range c.t.ChildPorts {
				if p == in.Port {
					idx = i
					break
				}
			}
			if idx == -1 {
				panic(fmt.Sprintf("congest: Convergecast: unexpected message on port %d (node %d)", in.Port, api.Index()))
			}
			if c.children[idx] != nil {
				panic(fmt.Sprintf("congest: Convergecast: duplicate message from child port %d", in.Port))
			}
			c.children[idx] = in.Msg
			c.missing--
		}
		if c.missing == 0 {
			c.finish(api)
		}
	}
	return api.Round() >= c.deadline
}

func (c *ConvergecastStep) finish(api *StepAPI) {
	c.agg = c.combine(c.own, c.children)
	c.ok = true
	if !c.t.IsRoot() {
		api.Send(c.t.ParentPort, c.agg)
	}
}

// Wake is the scheduling request while the operation is incomplete.
func (c *ConvergecastStep) Wake() Status { return Sleep(c.deadline) }

// Result returns the aggregate (the full aggregate at the root, the
// subtree aggregate elsewhere); ok is false when the deadline passed
// before all children reported.
func (c *ConvergecastStep) Result() (Message, bool) { return c.agg, c.ok }

// SnapState codes the machine for a checkpoint. The combine function is
// not serialized: the owning program must reinstall it after a restore
// when the operation is still in flight.
func (c *ConvergecastStep) SnapState(sc *SnapCodec) {
	sc.Tree(&c.t)
	sc.Int(&c.deadline)
	sc.Msg(&c.own)
	SnapSlice(sc, &c.children, (*SnapCodec).Msg)
	sc.Int(&c.missing)
	sc.Msg(&c.agg)
	sc.Bool(&c.ok)
}

// SetCombine reinstalls the aggregation function after a restore; the
// function itself cannot be serialized.
func (c *ConvergecastStep) SetCombine(f func(own Message, children []Message) Message) { c.combine = f }

// PipelineUpStep streams every node's items to the root, one B-bit batch
// of items per tree edge per round (packPipe): the standard CONGEST
// pipelining bound with the bit bound fully used, completing within
// ceil(total bits / B) + depth rounds.
type PipelineUpStep struct {
	t            Tree
	deadline     int
	bitBound     int       // captured at Begin (run constant)
	collected    []Message // root: gathered items
	queue        []Message // non-root: pending payloads to forward
	doneChildren int
	sentEnd      bool
	wantNext     bool // non-root: advance one round (Running) vs sleep
}

// Begin starts the pipeline at the current round.
func (p *PipelineUpStep) Begin(api *StepAPI, t Tree, deadline int, items []Message) bool {
	p.t, p.deadline, p.bitBound = t, deadline, api.BitBound()
	p.collected = p.collected[:0]
	// The queue backing must be fresh each operation: the batches packed
	// from it alias its slots, and the previous operation's final batches
	// may still sit in a recipient's mailbox at the handover round.
	p.queue = make([]Message, 0, len(items))
	p.doneChildren = 0
	p.sentEnd = false
	if t.IsRoot() {
		p.collected = append(p.collected, items...)
		return api.Round() >= p.deadline
	}
	p.queue = append(p.queue, items...)
	if api.Round() >= p.deadline {
		return true
	}
	p.sendPhase(api)
	return false
}

// sendPhase performs one send step: a maximal bit-bound-sized batch is
// packed from the queue front (own items and received ones re-batch
// together, so links stay fully utilized).
func (p *PipelineUpStep) sendPhase(api *StepAPI) {
	allDone := p.doneChildren == len(p.t.ChildPorts)
	switch {
	case len(p.queue) > 0:
		m, n := packPipe(p.queue, p.bitBound)
		api.Send(p.t.ParentPort, m)
		p.queue = p.queue[n:]
	case allDone && !p.sentEnd:
		api.Send(p.t.ParentPort, pipeEnd{})
		p.sentEnd = true
	}
	allDone = p.doneChildren == len(p.t.ChildPorts)
	p.wantNext = !(p.sentEnd || (len(p.queue) == 0 && !allDone))
}

// Feed consumes one wake and reports whether the operation completed.
func (p *PipelineUpStep) Feed(api *StepAPI, inbox []Inbound) bool {
	if p.t.IsRoot() {
		if p.doneChildren < len(p.t.ChildPorts) {
			for _, in := range inbox {
				if !p.t.isChildPort(in.Port) {
					panic(fmt.Sprintf("congest: PipelineUp: unexpected message on port %d (node %d)", in.Port, api.Index()))
				}
				var ok bool
				if p.collected, ok = pushPipePayloads(p.collected, in.Msg); !ok {
					if _, end := in.Msg.(pipeEnd); !end {
						panic("congest: PipelineUp: unexpected message type")
					}
					p.doneChildren++
				}
			}
		}
		return api.Round() >= p.deadline
	}
	for _, in := range inbox {
		if !p.t.isChildPort(in.Port) {
			panic(fmt.Sprintf("congest: PipelineUp: unexpected message on port %d (node %d)", in.Port, api.Index()))
		}
		var ok bool
		if p.queue, ok = pushPipePayloads(p.queue, in.Msg); !ok {
			if _, end := in.Msg.(pipeEnd); !end {
				panic("congest: PipelineUp: unexpected message type")
			}
			p.doneChildren++
		}
	}
	if api.Round() >= p.deadline {
		return true
	}
	p.sendPhase(api)
	return false
}

// Wake is the scheduling request while the operation is incomplete.
func (p *PipelineUpStep) Wake() Status {
	if !p.t.IsRoot() && p.wantNext {
		return Running()
	}
	return Sleep(p.deadline)
}

// Result returns, at the root, all items of the tree (its own first, then
// received ones in deterministic arrival order) and whether the stream
// completed; other nodes return nil and whether they flushed their queue.
func (p *PipelineUpStep) Result() ([]Message, bool) {
	if p.t.IsRoot() {
		return p.collected, p.doneChildren == len(p.t.ChildPorts)
	}
	return nil, p.sentEnd && len(p.queue) == 0
}

// SnapState codes the machine for a checkpoint. A restored queue backing
// is necessarily fresh, which preserves Begin's no-aliasing invariant for
// batches still in flight.
func (p *PipelineUpStep) SnapState(c *SnapCodec) {
	c.Tree(&p.t)
	c.Int(&p.deadline)
	c.Int(&p.bitBound)
	SnapSlice(c, &p.collected, (*SnapCodec).Msg)
	SnapSlice(c, &p.queue, (*SnapCodec).Msg)
	c.Int(&p.doneChildren)
	c.Bool(&p.sentEnd)
	c.Bool(&p.wantNext)
}

// BroadcastItemsDownStep streams a sequence of items from the root to
// every tree node, one B-bit batch per round, pipelined through the
// tree. Items must individually fit the bit bound.
type BroadcastItemsDownStep struct {
	t        Tree
	deadline int
	bitBound int       // captured at Begin (run constant)
	items    []Message // root: the source items
	got      []Message // non-root: received items (reused)
	next     int       // root: index of the next item to send
	endSent  bool      // root: pipeEnd dispatched
	done     bool      // non-root: pipeEnd received

	// Keep, when non-nil, filters which received items a non-root node
	// retains in its Result slice. Forwarding down the tree (and thus the
	// message schedule) is unaffected — the filter only cuts the local
	// buffer, for streams where a node needs a small slice of the items
	// (e.g. its own rotation entries out of the whole part's). Set it
	// before Begin; it applies until replaced, so callers reusing the
	// struct for an unfiltered stream must reset it to nil before that
	// Begin. The root's Result is always the unfiltered source items.
	Keep func(Message) bool
}

// Begin starts the stream at the current round (the root sends the first
// item immediately).
func (b *BroadcastItemsDownStep) Begin(api *StepAPI, t Tree, deadline int, items []Message) bool {
	b.t, b.deadline, b.items = t, deadline, items
	b.bitBound = api.BitBound()
	b.got = b.got[:0]
	b.next, b.endSent, b.done = 0, false, false
	if t.IsRoot() {
		b.rootSend(api)
	}
	return api.Round() >= b.deadline
}

func (b *BroadcastItemsDownStep) rootSend(api *StepAPI) {
	if b.next < len(b.items) {
		m, n := packPipe(b.items[b.next:], b.bitBound) // boxed once for all children
		b.next += n
		for _, c := range b.t.ChildPorts {
			api.Send(c, m)
		}
		return
	}
	if !b.endSent {
		for _, c := range b.t.ChildPorts {
			api.Send(c, pipeEnd{})
		}
		b.endSent = true
	}
}

// Feed consumes one wake and reports whether the operation completed.
func (b *BroadcastItemsDownStep) Feed(api *StepAPI, inbox []Inbound) bool {
	if b.t.IsRoot() {
		if !b.endSent {
			b.rootSend(api)
		}
		return api.Round() >= b.deadline
	}
	if !b.done {
		for _, in := range inbox {
			if in.Port != b.t.ParentPort {
				panic(fmt.Sprintf("congest: BroadcastItemsDown: unexpected message on port %d (node %d)", in.Port, api.Index()))
			}
			switch m := in.Msg.(type) {
			case pipeItem:
				if b.Keep == nil || b.Keep(m.payload) {
					b.got = append(b.got, m.payload)
				}
			case pipeBatch:
				for _, pl := range m.payloads {
					if b.Keep == nil || b.Keep(pl) {
						b.got = append(b.got, pl)
					}
				}
			case pipeEnd:
				b.done = true
				for _, c := range b.t.ChildPorts {
					api.Send(c, pipeEnd{})
				}
				continue
			default:
				panic("congest: BroadcastItemsDown: unexpected message type")
			}
			for _, c := range b.t.ChildPorts {
				api.Send(c, in.Msg) // forward the already-boxed message
			}
		}
	}
	return api.Round() >= b.deadline
}

// Wake is the scheduling request while the operation is incomplete.
func (b *BroadcastItemsDownStep) Wake() Status {
	if b.t.IsRoot() && !b.endSent {
		return Running()
	}
	return Sleep(b.deadline)
}

// Result returns the full item sequence as seen by this node; ok is false
// when the deadline was too small. Non-root callers must copy the slice if
// they retain it (it is reused by the next Begin).
func (b *BroadcastItemsDownStep) Result() ([]Message, bool) {
	if b.t.IsRoot() {
		return b.items, true
	}
	return b.got, b.done
}

// SnapState codes the machine for a checkpoint. Keep is not serialized:
// the owning program must reinstall it after a restore when the
// in-flight stream uses a filter.
func (b *BroadcastItemsDownStep) SnapState(c *SnapCodec) {
	c.Tree(&b.t)
	c.Int(&b.deadline)
	c.Int(&b.bitBound)
	SnapSlice(c, &b.items, (*SnapCodec).Msg)
	SnapSlice(c, &b.got, (*SnapCodec).Msg)
	c.Int(&b.next)
	c.Bool(&b.endSent)
	c.Bool(&b.done)
}

// pipeItem wraps a payload moving through PipelineUp/BroadcastItemsDown.
// The wrapped size is computed once at boxing time: the same boxed item
// is re-routed at every tree hop, and the engine checks Bits() per hop.
type pipeItem struct {
	payload Message
	bits    int
}

func newPipeItem(payload Message) pipeItem {
	return pipeItem{payload: payload, bits: 1 + payload.Bits()}
}

func (p pipeItem) Bits() int { return p.bits }

// pipeBatch packs consecutive pipelined payloads into a single message.
// The pipelined primitives use the full CONGEST bit bound this way: a
// stream of small items (rotation entries, edge ids) moves in
// ceil(total bits / B) rounds instead of one round per item, exactly
// like the paper's own label chunking (§2.2.2) exploits B-bit messages.
// The size is computed once at packing time.
type pipeBatch struct {
	payloads []Message
	bits     int
}

func (p pipeBatch) Bits() int { return p.bits }

// packPipe packs a maximal prefix of items into one pipelined message
// within bitBound bits (batch header 1 bit, plus 1+Bits() per payload,
// mirroring pipeItem's framing) and returns it with the count consumed.
// A single payload travels as a bare pipeItem — also the fallback when
// the batch framing would not fit the bound. The returned batch aliases
// items, so callers must not rewrite consumed slots while the message
// may be in flight (popping a prefix and appending is fine).
func packPipe(items []Message, bitBound int) (Message, int) {
	bits := 1 + 1 + items[0].Bits()
	if bits > bitBound {
		return newPipeItem(items[0]), 1
	}
	n := 1
	for n < len(items) {
		nb := 1 + items[n].Bits()
		if bits+nb > bitBound {
			break
		}
		bits += nb
		n++
	}
	if n == 1 {
		return newPipeItem(items[0]), 1
	}
	return pipeBatch{payloads: items[:n:n], bits: bits}, n
}

// pushPipePayloads appends the payloads of a received pipeItem/pipeBatch
// to a relay queue (shared receive path of the pipelined primitives).
// It reports false for messages that are not pipelined items.
func pushPipePayloads(queue []Message, m Message) ([]Message, bool) {
	switch pm := m.(type) {
	case pipeItem:
		return append(queue, pm.payload), true
	case pipeBatch:
		return append(queue, pm.payloads...), true
	}
	return queue, false
}

// pipeEnd marks the end of a pipelined stream.
type pipeEnd struct{}

func (pipeEnd) Bits() int { return 1 }
