package congest

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"

	"repro/internal/graphio"
)

// Checkpoint/restore for the step engine (DESIGN.md §9).
//
// A snapshot is taken at a round barrier, immediately after every due
// node has been stepped and its sends routed. At that point the engine
// is quiescent: all outboxes and duplicate-send bitsets are empty, the
// queued bitset is clear, and the only in-flight state is the mailboxes
// (messages deliverable at the next barrier). The scheduling structures
// (deadline heap, next-round list, mail-due list) are pure functions of
// the phase/deadline/mailbox slabs and are rebuilt on restore, so the
// format serializes only: the run header, the per-node slabs, each
// node's mailbox, its lazy RNG draw count, and its program state via the
// Snapshottable interface. Restore re-enters the scheduler loop right
// after the barrier, so a restored run executes the exact same barrier
// sequence — and produces a byte-identical Result — as an uninterrupted
// one.

// snapshotMagic identifies the checkpoint format ("planar checkpoint,
// version 1"); snapshotVersion is bumped on any layout change.
const (
	snapshotMagic   = "PCK1"
	snapshotVersion = 3
)

// snapshotFooterLen is the length of the SHA-256 integrity footer.
const snapshotFooterLen = sha256.Size

// ErrNotSnapshottable is reported when a checkpoint is requested while
// some live node runs a program (or holds an in-flight message) that the
// snapshot layer cannot serialize. Test with errors.Is. The engine stops
// attempting checkpoints for the rest of the run when it sees this.
var ErrNotSnapshottable = errors.New("congest: program state not snapshottable")

// ErrBadSnapshot is reported (wrapped with detail) when snapshot bytes
// fail validation: short data, bad magic, unsupported version, integrity
// footer mismatch, or a malformed record. Test with errors.Is.
var ErrBadSnapshot = errors.New("congest: invalid snapshot")

// ErrDeadlineExceeded is the error reported (wrapped with round context)
// when a run exceeds Config.Deadline. Test with errors.Is.
var ErrDeadlineExceeded = errors.New("congest: deadline exceeded")

// Snapshottable is implemented by step programs that can serialize their
// state into a checkpoint. SnapState codes every field Step can have
// mutated, in one order for both directions; SnapshotKind tags the record
// so the restore callback can dispatch to the right program type.
// Function-valued fields cannot be serialized: owners must reinstall them
// on the first Step after a restore (the tree machines keep such fields
// out of their records on purpose).
type Snapshottable interface {
	StepProgram
	// SnapshotKind identifies the program's record layout to RestoreFunc.
	SnapshotKind() uint16
	// SnapState codes the program's mutable state through c.
	SnapState(c *SnapCodec)
}

// RestoreFunc reconstructs one node's program from its snapshot record.
// It receives the node index, the program's SnapshotKind, and a reader
// over the record SnapState wrote (and must consume all of it). It is
// called once per live node, in node order. Errors for records that
// decode but fail validation should wrap ErrBadSnapshot.
type RestoreFunc func(node int, kind uint16, c *SnapCodec) (StepProgram, error)

// CheckpointConfig asks the engine to emit periodic snapshots of its own
// state. Checkpointing is best-effort by design: a failing Sink (or a
// run whose programs are not Snapshottable) never aborts the run — the
// error is reported through OnError and the simulation continues, so an
// injected checkpoint-I/O fault costs durability, not the result.
type CheckpointConfig struct {
	// EveryBarriers is the checkpoint cadence in executed barriers
	// (snapshots are only possible at barriers). 0 disables.
	EveryBarriers int
	// Sink receives each encoded snapshot with the round it was taken
	// at. The engine blocks while Sink runs; the data slice is not
	// reused afterwards.
	Sink func(round int, data []byte) error
	// OnError observes encode/Sink failures (optional). After an
	// ErrNotSnapshottable the engine stops attempting checkpoints.
	OnError func(round int, err error)
}

// SnapshotInfo is the decoded header of a snapshot, for validation and
// inventory without a full restore.
type SnapshotInfo struct {
	// Version is the snapshot format version.
	Version int
	// N and M are the node and edge counts of the graph the run was on.
	N, M int
	// Seed is the run seed.
	Seed int64
	// Round is the round the snapshot was taken at.
	Round int
	// Barriers is the number of barriers executed up to the snapshot.
	Barriers int64
}

// SnapCodec reads or writes one snapshot record. Its direction is fixed
// when it is built (NewSnapWriter, NewSnapReader), and every field method
// takes a pointer: a writer appends the value, a reader stores the decoded
// value through it. A record's layout is therefore one function that both
// checkpoint and restore run (Snapshottable.SnapState). All integers use
// the canonical varint layout shared with graphio, and a reader rejects
// non-minimal encodings. Errors are sticky: after the first failure every
// field method is a no-op, and Err reports the failure — callers check
// once at the end. A reader leaves a destination untouched once it has
// failed.
type SnapCodec struct {
	decode bool
	buf    []byte
	off    int // reader: next unread byte
	err    error
}

// NewSnapWriter returns a codec that encodes into a fresh buffer.
func NewSnapWriter() *SnapCodec { return &SnapCodec{} }

// NewSnapReader returns a codec that decodes the record b.
func NewSnapReader(b []byte) *SnapCodec { return &SnapCodec{decode: true, buf: b} }

// Encoded returns the bytes a writer has produced so far.
func (c *SnapCodec) Encoded() []byte { return c.buf }

// Err returns the first failure, or nil.
func (c *SnapCodec) Err() error { return c.err }

// Remaining returns the number of bytes a reader has not consumed.
func (c *SnapCodec) Remaining() int { return len(c.buf) - c.off }

func (c *SnapCodec) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s at offset %d", ErrBadSnapshot, what, c.off)
	}
}

// Uvarint codes an unsigned varint.
func (c *SnapCodec) Uvarint(v *uint64) {
	if c.err != nil {
		return
	}
	if !c.decode {
		c.buf = graphio.AppendUvarint(c.buf, *v)
		return
	}
	x, n, err := graphio.ConsumeUvarint(c.buf[c.off:])
	if err != nil {
		c.fail("varint")
		return
	}
	c.off += n
	*v = x
}

// Varint codes a signed value, zigzag-mapped onto the unsigned layout.
func (c *SnapCodec) Varint(v *int64) {
	u := uint64(*v)<<1 ^ uint64(*v>>63)
	c.Uvarint(&u)
	if c.decode && c.err == nil {
		*v = int64(u>>1) ^ -int64(u&1)
	}
}

// Int codes a signed int (the Varint layout).
func (c *SnapCodec) Int(v *int) { SnapVarint(c, v) }

// Float64 codes a float64 as the uvarint of its IEEE-754 bits.
func (c *SnapCodec) Float64(v *float64) {
	u := math.Float64bits(*v)
	c.Uvarint(&u)
	if c.decode && c.err == nil {
		*v = math.Float64frombits(u)
	}
}

// Bool codes a boolean as one byte; a reader rejects any value other
// than 0 or 1.
func (c *SnapCodec) Bool(v *bool) {
	if c.err != nil {
		return
	}
	if !c.decode {
		b := byte(0)
		if *v {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	if c.off >= len(c.buf) {
		c.fail("truncated bool")
		return
	}
	b := c.buf[c.off]
	c.off++
	if b > 1 {
		c.fail("bool out of range")
		return
	}
	*v = b == 1
}

// Bytes codes a length-prefixed byte slice. A reader's result aliases
// the record.
func (c *SnapCodec) Bytes(b *[]byte) {
	n := uint64(len(*b))
	c.Uvarint(&n)
	if c.err != nil {
		return
	}
	if !c.decode {
		c.buf = append(c.buf, *b...)
		return
	}
	if n > uint64(c.Remaining()) {
		c.fail("truncated bytes")
		return
	}
	*b = c.buf[c.off : c.off+int(n)]
	c.off += int(n)
}

// Msg codes a message through the codec registry (nil is kind 0). A
// writer given a message type with no registered codec fails sticky with
// ErrNotSnapshottable.
func (c *SnapCodec) Msg(m *Message) {
	var kind uint64
	if !c.decode && *m != nil {
		k, ok := msgKindByType[reflect.TypeOf(*m)]
		if !ok {
			if c.err == nil {
				c.err = fmt.Errorf("%w: no codec for message type %T", ErrNotSnapshottable, *m)
			}
			return
		}
		kind = uint64(k)
	}
	c.Uvarint(&kind)
	if c.err != nil || (kind == 0 && !c.decode) {
		return
	}
	if kind == 0 {
		*m = nil
		return
	}
	mc, ok := msgCodecs[uint16(kind)]
	if !ok || kind > 0xFFFF {
		c.fail(fmt.Sprintf("unknown message kind %d", kind))
		return
	}
	in := *m
	if c.decode {
		in = nil
	}
	out := mc.sample // a message type without fields
	if mc.code != nil {
		out = mc.code(c, in)
	}
	if c.decode && c.err == nil {
		*m = out
	}
}

// Tree codes a Tree value.
func (c *SnapCodec) Tree(t *Tree) {
	c.Int(&t.ParentPort)
	SnapSlice(c, &t.ChildPorts, (*SnapCodec).Int)
}

// snapInteger is the set of types SnapVarint and SnapUvarint code.
type snapInteger interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// SnapVarint codes an integer of any type in the zigzag Varint layout
// (for narrow or named fields; a reader truncates to T).
func SnapVarint[T snapInteger](c *SnapCodec, v *T) {
	x := int64(*v)
	c.Varint(&x)
	if c.decode && c.err == nil {
		*v = T(x)
	}
}

// SnapUvarint codes an integer of any type in the plain Uvarint layout
// (for counters and enumerations; a reader truncates to T).
func SnapUvarint[T snapInteger](c *SnapCodec, v *T) {
	x := uint64(*v)
	c.Uvarint(&x)
	if c.decode && c.err == nil {
		*v = T(x)
	}
}

// SnapSlice codes a nil-preserving slice: uvarint 0 for nil, else the
// length plus one, then each element through elem. A reader rejects a
// length above the unread byte count before allocating (every element
// costs at least one byte), so a hostile length cannot force a large
// allocation.
func SnapSlice[S ~[]E, E any](c *SnapCodec, s *S, elem func(*SnapCodec, *E)) {
	var n uint64
	if *s != nil {
		n = uint64(len(*s)) + 1
	}
	c.Uvarint(&n)
	if c.err != nil {
		return
	}
	if c.decode {
		if n == 0 {
			*s = nil
			return
		}
		if n-1 > uint64(c.Remaining()) {
			c.fail("truncated slice")
			return
		}
		*s = make(S, n-1)
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Message codec registry. Codecs are registered from init functions
// (congest, partition, core each own a disjoint kind range) and the maps
// are read-only afterwards, so lock-free concurrent reads are safe.
type msgCodec struct {
	sample Message
	code   func(c *SnapCodec, m Message) Message
}

var (
	msgKindByType = map[reflect.Type]uint16{}
	msgCodecs     = map[uint16]msgCodec{}
)

// RegisterMessageCodec registers the snapshot codec for one message
// type, identified by a non-zero kind (kind 0 is reserved for nil).
// sample carries the concrete type. code codes the fields of one value:
// a writer passes the message being written (of exactly sample's type)
// and ignores the result; a reader passes nil and takes the result as
// the decoded message. A nil code registers a type without fields, which
// decodes as sample. Call from init; duplicate kinds or types panic.
func RegisterMessageCodec(kind uint16, sample Message, code func(c *SnapCodec, m Message) Message) {
	if kind == 0 {
		panic("congest: message kind 0 is reserved")
	}
	if _, dup := msgCodecs[kind]; dup {
		panic(fmt.Sprintf("congest: duplicate message kind %d", kind))
	}
	t := reflect.TypeOf(sample)
	if _, dup := msgKindByType[t]; dup {
		panic(fmt.Sprintf("congest: duplicate message codec for %v", t))
	}
	msgKindByType[t] = kind
	msgCodecs[kind] = msgCodec{sample: sample, code: code}
}

// Engine-internal pipeline framing messages (tree_step.go). Bits are
// coded rather than recomputed so a restored message is field-exact.
func init() {
	RegisterMessageCodec(1, pipeItem{}, func(c *SnapCodec, m Message) Message {
		p, _ := m.(pipeItem)
		c.Msg(&p.payload)
		c.Int(&p.bits)
		return p
	})
	RegisterMessageCodec(2, pipeBatch{}, func(c *SnapCodec, m Message) Message {
		p, _ := m.(pipeBatch)
		SnapSlice(c, &p.payloads, (*SnapCodec).Msg)
		c.Int(&p.bits)
		return p
	})
	RegisterMessageCodec(3, pipeEnd{}, nil)
}

// countingSource wraps a node's lazy randomness source and counts how
// many times it advanced. math/rand's rngSource steps exactly once per
// Int63 or Uint64 call, so the count alone replays the state: a restore
// reseeds the source and fast-forwards it count steps.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 { c.n++; return c.src.Int63() }

func (c *countingSource) Uint64() uint64 { c.n++; return c.src.Uint64() }

func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// rngSourcePool recycles the ~5KB math/rand source state across nodes
// and runs. A pooled source is fully re-seeded before every use —
// rngSource.Seed rebuilds the exact state NewSource would produce — so
// reuse never perturbs a draw sequence.
var rngSourcePool = sync.Pool{
	New: func() any { return rand.NewSource(1).(rand.Source64) },
}

// nodeRNGSource is the seeding rule shared by first use and restore. The
// backing state comes from rngSourcePool; the engine hands it back via
// releaseRNG when the run ends.
func nodeRNGSource(seed int64, node int) rand.Source64 {
	src := rngSourcePool.Get().(rand.Source64)
	src.Seed(seed ^ (0x5E3779B97F4A7C15 * int64(node+1)))
	return src
}

// releaseRNG returns every allocated randomness source to the pool.
// Called once after the run loop finishes; no RNG state is read past
// this point (Results carry only counters).
func (e *engine) releaseRNG() {
	for i, src := range e.rngSrc {
		if src != nil {
			rngSourcePool.Put(src.src)
			e.rngSrc[i] = nil
			e.rngs[i] = nil
		}
	}
}

// snapHeader is the engine header of a snapshot, right after the magic.
// One method (snap) codes it for checkpointing, InspectSnapshot and
// ResumeStep alike.
type snapHeader struct {
	SnapshotInfo
	bitBound, maxRounds int
	stopOnRej           bool
	alive               int
	rejected            bool
	// metrics carries Messages, TotalBits, MaxMessageBits and
	// DroppedToDone, with charged traffic folded in.
	metrics Metrics
}

func (h *snapHeader) snap(c *SnapCodec) {
	SnapUvarint(c, &h.Version)
	SnapUvarint(c, &h.N)
	SnapUvarint(c, &h.M)
	c.Varint(&h.Seed)
	SnapUvarint(c, &h.bitBound)
	SnapUvarint(c, &h.maxRounds)
	c.Bool(&h.stopOnRej)
	SnapUvarint(c, &h.Round)
	SnapUvarint(c, &h.Barriers)
	SnapUvarint(c, &h.alive)
	c.Bool(&h.rejected)
	SnapUvarint(c, &h.metrics.Messages)
	SnapUvarint(c, &h.metrics.TotalBits)
	SnapUvarint(c, &h.metrics.MaxMessageBits)
	SnapUvarint(c, &h.metrics.DroppedToDone)
}

// snapNodes codes the node IDs and the per-node records: phase, verdict,
// reject flag and modeled rounds, plus for live nodes the deadline, the
// RNG draw count, the mailbox and the program state (its SnapshotKind and
// the length-prefixed SnapState record). Writing needs every live program
// to be Snapshottable; reading fills the slabs of a fresh engine, builds
// each live node's program through restore, and returns the number of
// live records.
func (e *engine) snapNodes(c *SnapCodec, restore RestoreFunc) (alive int, err error) {
	for i := range e.ids {
		c.Varint(&e.ids[i])
	}
	sub := NewSnapWriter()
	for i := 0; i < e.n; i++ {
		SnapUvarint(c, &e.phase[i])
		SnapUvarint(c, &e.verdicts[i])
		c.Bool(&e.rejFlag[i])
		SnapUvarint(c, &e.modeled[i])
		if c.err != nil {
			return 0, c.err
		}
		if ph := e.phase[i]; ph != phaseWaiting {
			if ph != phaseDone {
				return 0, fmt.Errorf("%w: node %d has phase %d", ErrBadSnapshot, i, ph)
			}
			continue // deadline, RNG, mailbox, program: dead state
		}
		alive++
		SnapUvarint(c, &e.deadline[i])
		if c.decode && e.deadline[i] <= int64(e.round) && c.err == nil {
			return 0, fmt.Errorf("%w: node %d deadline %d not after round %d",
				ErrBadSnapshot, i, e.deadline[i], e.round)
		}
		hasRNG := e.rngSrc[i] != nil
		c.Bool(&hasRNG)
		if hasRNG {
			var draws uint64
			if !c.decode {
				draws = e.rngSrc[i].n
			}
			c.Uvarint(&draws)
			if c.decode && c.err == nil {
				src := &countingSource{src: nodeRNGSource(e.seed, i), n: draws}
				for k := uint64(0); k < draws; k++ {
					src.src.Uint64()
				}
				e.rngSrc[i] = src
				e.rngs[i] = rand.New(src)
			}
		}
		mb := &e.hot[i].mailbox
		nmail := uint64(len(*mb))
		c.Uvarint(&nmail)
		if c.decode && nmail > uint64(c.Remaining()) {
			return 0, fmt.Errorf("%w: node %d mailbox length %d", ErrBadSnapshot, i, nmail)
		}
		for k := 0; k < int(nmail); k++ {
			var in Inbound
			if !c.decode {
				in = (*mb)[k]
			}
			SnapUvarint(c, &in.Port)
			SnapUvarint(c, &in.From)
			c.Msg(&in.Msg)
			if !c.decode {
				continue
			}
			if c.err != nil {
				return 0, c.err
			}
			if in.Port < 0 || in.Port >= e.g.Degree(i) || in.From < 0 || in.From >= e.n {
				return 0, fmt.Errorf("%w: node %d mailbox entry %d out of range", ErrBadSnapshot, i, k)
			}
			*mb = append(*mb, in)
		}
		var kind uint16
		var state []byte
		if !c.decode {
			sp := e.hot[i].prog.(Snapshottable)
			sub.buf, sub.err = sub.buf[:0], nil
			sp.SnapState(sub)
			if sub.err != nil {
				return 0, fmt.Errorf("node %d (%T): %w", i, sp, sub.err)
			}
			kind, state = sp.SnapshotKind(), sub.buf
		}
		SnapUvarint(c, &kind)
		c.Bytes(&state)
		if !c.decode {
			continue
		}
		if c.err != nil {
			return 0, c.err
		}
		rc := NewSnapReader(state)
		prog, rerr := restore(i, kind, rc)
		if rerr != nil {
			return 0, fmt.Errorf("congest: restore node %d (kind %d): %w", i, kind, rerr)
		}
		if rc.err != nil {
			return 0, fmt.Errorf("node %d: %w", i, rc.err)
		}
		if rc.Remaining() != 0 {
			return 0, fmt.Errorf("%w: node %d program state has %d trailing bytes",
				ErrBadSnapshot, i, rc.Remaining())
		}
		e.hot[i].prog = prog
	}
	return alive, c.err
}

// encodeSnapshot serializes the full engine state at the current
// barrier. Called from the scheduler loop only (workers idle).
func (e *engine) encodeSnapshot() ([]byte, error) {
	// Gate first: a snapshot is all-or-nothing, so detect a
	// non-snapshottable program before encoding anything.
	for i := 0; i < e.n; i++ {
		if e.phase[i] != phaseWaiting {
			continue
		}
		if _, ok := e.hot[i].prog.(Snapshottable); !ok {
			return nil, fmt.Errorf("%w: node %d runs %T", ErrNotSnapshottable, i, e.hot[i].prog)
		}
	}
	c := &SnapCodec{buf: make([]byte, 0, 256+32*e.n)}
	c.buf = append(c.buf, snapshotMagic...)
	h := snapHeader{
		SnapshotInfo: SnapshotInfo{Version: snapshotVersion, N: e.n, M: e.g.M(), Seed: e.seed,
			Round: e.round, Barriers: e.barriers},
		bitBound: e.bitBound, maxRounds: e.maxRounds, stopOnRej: e.stopOnRej,
		alive: e.alive, rejected: e.rejected, metrics: e.m,
	}
	// Traffic charged through StepAPI.ChargeTraffic folds into the
	// header totals: the resumed engine starts with the folded sums and
	// fresh zero charge slabs, so final Messages/TotalBits are identical
	// no matter where the run was cut (DESIGN.md §10).
	for i := 0; i < e.n; i++ {
		h.metrics.Messages += e.chargedMsgs[i]
		h.metrics.TotalBits += e.chargedBits[i]
	}
	h.snap(c)
	if _, err := e.snapNodes(c, nil); err != nil {
		return nil, err
	}
	e.snapObs(c)
	if c.err != nil {
		return nil, c.err
	}
	sum := sha256.Sum256(c.buf)
	return append(c.buf, sum[:]...), nil
}

// openSnapshot validates magic, the SHA-256 footer and the version, and
// returns the header with a reader positioned right after it.
func openSnapshot(data []byte) (*SnapCodec, snapHeader, error) {
	var h snapHeader
	if len(data) < len(snapshotMagic)+1+snapshotFooterLen {
		return nil, h, fmt.Errorf("%w: %d bytes is too short", ErrBadSnapshot, len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, h, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, data[:len(snapshotMagic)])
	}
	body := data[:len(data)-snapshotFooterLen]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(data[len(body):]) {
		return nil, h, fmt.Errorf("%w: integrity footer mismatch", ErrBadSnapshot)
	}
	c := NewSnapReader(body[len(snapshotMagic):])
	h.snap(c)
	if h.Version != snapshotVersion {
		return nil, h, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, h.Version)
	}
	return c, h, c.err
}

// InspectSnapshot validates a snapshot's framing (magic, version,
// SHA-256 footer) and returns its header without restoring anything.
// Corrupt or truncated data fails with ErrBadSnapshot.
func InspectSnapshot(data []byte) (SnapshotInfo, error) {
	_, h, err := openSnapshot(data)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return h.SnapshotInfo, nil
}

// ResumeStep restores a run from a snapshot and drives it to
// completion, returning the same Result an uninterrupted run would have
// produced. cfg.Graph must be the graph of the original run (node and
// edge counts are checked); the run parameters that shape the
// computation — seed, IDs, bit bound, round limit, stop-on-reject — are
// taken from the snapshot, while the execution environment (Workers,
// Cancel, Deadline, Checkpoint) comes from cfg. restore rebuilds each
// live node's program from its serialized state.
func ResumeStep(cfg Config, data []byte, restore RestoreFunc) (*Result, error) {
	c, h, err := openSnapshot(data)
	if err != nil {
		return nil, err
	}
	g := cfg.Graph
	if g == nil {
		return nil, errors.New("congest: ResumeStep needs cfg.Graph")
	}
	n := g.N()
	if h.N != n || h.M != g.M() {
		return nil, fmt.Errorf("%w: snapshot is for an n=%d m=%d graph, got n=%d m=%d",
			ErrBadSnapshot, h.N, h.M, n, g.M())
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eng := &engine{
		g:            g,
		revPort:      g.RevPorts(),
		n:            n,
		seed:         h.Seed,
		phase:        make([]nodePhase, n),
		deadline:     make([]int64, n),
		heapDl:       make([]int64, n),
		hot:          make([]nodeHot, n),
		outbox:       make([][]outMsg, n),
		rejFlag:      make([]bool, n),
		modeled:      make([]int64, n),
		chargedMsgs:  make([]int64, n),
		chargedBits:  make([]int64, n),
		rngs:         make([]*rand.Rand, n),
		rngSrc:       make([]*countingSource, n),
		apis:         make([]StepAPI, n),
		verdicts:     make([]Verdict, n),
		ids:          make([]int64, n),
		bitBound:     h.bitBound,
		maxRounds:    h.maxRounds,
		stopOnRej:    h.stopOnRej,
		workers:      workers,
		cancel:       cfg.Cancel,
		ckpt:         cfg.Checkpoint,
		wallDeadline: cfg.Deadline,
		round:        h.Round,
		barriers:     h.Barriers,
		alive:        h.alive,
		rejected:     h.rejected,
		m:            h.metrics,
	}
	eng.m.BitBound = eng.bitBound
	alive, err := eng.snapNodes(c, restore)
	if err != nil {
		return nil, err
	}
	eng.initObs(cfg)
	eng.snapObs(c)
	if c.err != nil {
		return nil, c.err
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, c.Remaining())
	}
	if alive != eng.alive {
		return nil, fmt.Errorf("%w: header says %d live nodes, records have %d",
			ErrBadSnapshot, eng.alive, alive)
	}
	sentWords := 0
	for i := 0; i < n; i++ {
		sentWords += (g.Degree(i) + 63) / 64
	}
	eng.sentBits = make([]uint64, sentWords)
	off := int32(0)
	for i := 0; i < n; i++ {
		deg := g.Degree(i)
		eng.apis[i] = StepAPI{eng: eng, node: int32(i), degree: int32(deg), sentOff: off, id: eng.ids[i]}
		off += int32((deg + 63) / 64)
	}

	// Rebuild the scheduling structures from the slabs. They are
	// equivalent to (not bitwise-identical with) the originals — e.g. a
	// node that entered the original heap with deadline round+1 lands in
	// nrList here — but both layouts wake the exact same due set in the
	// exact same (ascending) order at every subsequent barrier, which is
	// all the scheduler's behavior depends on.
	for i := 0; i < n; i++ {
		if eng.phase[i] != phaseWaiting {
			continue
		}
		if len(eng.hot[i].mailbox) > 0 {
			eng.mailDue = append(eng.mailDue, int32(i))
		}
		if dl := eng.deadline[i]; dl == int64(eng.round+1) {
			eng.nrList = append(eng.nrList, int32(i))
		} else {
			eng.heapDl[i] = dl
			eng.heapPush(dl, int32(i))
		}
	}

	eng.run(nil, true)
	eng.shutdown()
	eng.releaseRNG()

	eng.m.Rounds = eng.round
	for i := range eng.modeled {
		eng.m.ModeledRounds += eng.modeled[i]
		eng.m.Messages += eng.chargedMsgs[i]
		eng.m.TotalBits += eng.chargedBits[i]
	}
	return &Result{Verdicts: eng.verdicts, Metrics: eng.m, Phases: eng.finishObs()}, eng.runErr
}
