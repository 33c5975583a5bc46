// Package cpu models the out-of-order cores of the simulated multicore
// (Table 2: 4-issue, 140-entry ROB, 64-entry write buffer, TSO) together
// with the requester/sharer side of the coherence protocol and the five
// fence designs of the paper (S+, WS+, SW+, W+, Wee).
//
// Execution is functional+timing combined: instructions are fetched in
// program order (with perfect branch prediction — fetch stalls only when a
// branch operand depends on an unperformed load), execute when their
// dataflow operands are ready, and retire in order up to four per cycle.
// Loads may perform speculatively deep in the ROB; under the weak-fence
// designs, post-fence loads may also *retire and complete* before the
// fence completes, entering the Bypass Set.
package cpu

import (
	"math"

	"asymfence/internal/cache"
	"asymfence/internal/check"
	"asymfence/internal/coherence"
	"asymfence/internal/faults"
	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/metrics"
	"asymfence/internal/noc"
	"asymfence/internal/stats"
	"asymfence/internal/trace"
)

// Config holds one core's microarchitectural parameters. Zero values are
// replaced by the paper's Table 2 defaults.
type Config struct {
	ID     int
	NCores int
	Design fence.Design

	ROBSize      int   // reorder buffer entries (default 140)
	WBSize       int   // write buffer entries (default 64)
	FetchWidth   int   // instructions fetched per cycle (default 4)
	RetireWidth  int   // instructions retired per cycle (default 4)
	L1Bytes      int   // private L1 size (default 32 KB)
	L1Assoc      int   // L1 associativity (default 4)
	L1HitLatency int64 // L1 round trip (default 2)
	MSHRs        int   // outstanding load misses (default 8)

	BSCapacity int  // Bypass Set entries (default 32)
	BSBloom    bool // Bloom-filter front end on the BS

	// WPlusTimeout is the deadlock-suspicion timeout of the W+ design:
	// cycles of simultaneous bouncing/being-bounced before rollback.
	WPlusTimeout int64
	// RetryBackoff is the delay before re-issuing a nacked write.
	RetryBackoff int64

	// Privacy classifies addresses as private or shared for WeeFence's
	// Private Access Filtering (see mem.Privacy). Nil means everything is
	// treated as shared.
	Privacy *mem.Privacy

	// Tracer receives this core's fence-lifecycle and write-buffer
	// events. Nil (the default) disables tracing at zero cost.
	Tracer *trace.Tracer

	// WBOcc, when non-nil, observes the write buffer's occupancy after
	// every store enters it (the machine.wb.occupancy histogram). Nil
	// (the default) disables the observation at zero cost.
	WBOcc *metrics.Histogram

	// Checker receives this core's retirement/commit stream for runtime
	// invariant verification. Nil (the default) disables checking at
	// zero cost.
	Checker *check.Oracle

	// Faults injects deterministic timing faults (write-buffer drain
	// stalls) into this core. Nil (the default) injects nothing.
	Faults *faults.Injector

	// NoIdleSleep disables the idle-cycle memoization fast path, forcing
	// a full pipeline evaluation every cycle. Results are identical
	// either way (the equivalence test in internal/sim asserts it); the
	// switch exists for that cross-check and for debugging.
	NoIdleSleep bool
}

// DefaultWPlusTimeout is the default W+ deadlock-suspicion timeout in
// cycles (Config.WPlusTimeout overrides it): long enough that ordinary
// transient bouncing (which resolves as soon as the remote fence
// completes, typically well under 100 cycles) rarely trips a rollback,
// short enough that a genuine deadlock is broken quickly. The machine
// watchdog must exceed it (sim.Config.Validate enforces this).
const DefaultWPlusTimeout = 150

func (c *Config) applyDefaults() {
	if c.ROBSize == 0 {
		c.ROBSize = 140
	}
	if c.WBSize == 0 {
		c.WBSize = 64
	}
	if c.FetchWidth == 0 {
		c.FetchWidth = 4
	}
	if c.RetireWidth == 0 {
		c.RetireWidth = 4
	}
	if c.L1Bytes == 0 {
		c.L1Bytes = 32 * 1024
	}
	if c.L1Assoc == 0 {
		c.L1Assoc = 4
	}
	if c.L1HitLatency == 0 {
		c.L1HitLatency = 2
	}
	if c.MSHRs == 0 {
		c.MSHRs = 8
	}
	if c.BSCapacity == 0 {
		c.BSCapacity = fence.DefaultBSCapacity
	}
	if c.WPlusTimeout == 0 {
		c.WPlusTimeout = DefaultWPlusTimeout
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 10
	}
}

// ref is a handle to a ROB entry: the ring slot it occupies and its
// sequence number. It is valid only while rob[slot].seq == seq; once the
// slot holds a younger instruction, dereferencing it panics (Core.entry).
// The zero ref names no entry (sequence numbers start at 1).
type ref struct {
	slot int32
	seq  uint64
}

// operand is a value that may still be in flight: either known, with its
// dataflow-ready time, or a handle to the unresolved entry producing it.
// It is both a captured instruction input and the fetch-side register
// state (maintained in program order). No operand names a resolved
// producer for long: propagate materializes captured inputs and publish
// rewrites register state as soon as the producer resolves, so a handle
// never outlives its producer's slot.
type operand struct {
	known bool
	val   uint32
	ready int64
	prod  ref
}

// robEntry is one in-flight instruction.
type robEntry struct {
	in   isa.Instr
	pc   int
	seq  uint64
	slot int32 // this entry's ring slot

	s1, s2 operand

	// Value/timing resolution. resolved means the result value (if any)
	// and ready time are final.
	resolved bool
	val      uint32
	ready    int64

	// Memory state.
	addr      mem.Addr
	addrOK    bool
	addrReady int64
	performed bool
	forwarded bool // value came from store-to-load forwarding

	// Store data (St, Xchg).
	dataOK    bool
	dataVal   uint32
	dataReady int64

	// Branch prediction state: predicted is set when the branch was
	// fetched with unresolved operands; actualTaken records the
	// verified outcome of a mispredicted one.
	predicted   bool
	predTaken   bool
	actualTaken bool

	// slots is how many ROB entries this instruction occupies: 1, except
	// Work instructions, which stand for their cycle count's worth of
	// instructions (capped), so the reorder window runs ahead of a
	// blocked fence by a realistic amount.
	slots int

	// WeeFence handshake state (WFence entries under the Wee design).
	weeChecked bool
	weeDemoted bool

	// prevWork restores workUnitFree when a Work entry is squashed.
	prevWork int64

	// undoIdx is the absolute index (see Core.undoBase) of the undo record
	// that saved this entry as a register's previous writer, if any;
	// publish checks that the record still names the entry before
	// patching it.
	undoIdx int
}

func (e *robEntry) line() mem.Line { return mem.LineOf(e.addr) }

func (e *robEntry) ref() ref { return ref{slot: e.slot, seq: e.seq} }

// activeFence is a retired-but-incomplete weak fence.
type activeFence struct {
	seq     uint64 // the fence instruction's sequence number
	pcAfter int    // resume point for W+ rollback
	// Wee state.
	module   int        // module the PS (and BS) must confine to; -1 if not yet pinned
	remotePS []mem.Line // combined pending sets of other active fences
	wee      bool
	weeID    uint64 // GRT deposit id (the fence's deposit ReqID)
	// C-Fence state: a free Conditional Fence stays registered in the
	// centralized associate table until it completes.
	cf      bool
	cfGroup int32
	// demoted: a post-fence access homed outside the fence's module, so
	// the fence could not confine its PS and BS to one directory module
	// and turned into a conventional fence (paper §6): subsequent
	// post-fence loads stall until it completes.
	demoted bool
}

// wbEntry is a retired store waiting to merge with the memory system.
type wbEntry struct {
	addr mem.Addr
	val  uint32
	seq  uint64
}

type undoRec struct {
	seq  uint64
	reg  isa.Reg
	prev operand
}

type statRec struct {
	seq uint64
	id  int32
}

// loadMiss is one MSHR: an outstanding GetS and the loads waiting on it.
type loadMiss struct {
	busy    bool
	line    mem.Line
	reqID   uint64
	waiters []ref
}

// Core is one simulated processor: pipeline front end, ROB, write buffer,
// private L1, Bypass Set and fence engines.
type Core struct {
	cfg   Config
	prog  *isa.Program
	mesh  *coherence.Fabric
	store *mem.Store
	st    *stats.Core
	tr    *trace.Tracer
	chk   *check.Oracle
	flt   *faults.Injector

	l1 *cache.Cache
	bs *fence.BypassSet

	// Fetch-side architectural state.
	pc       int
	regs     [isa.NumRegs]operand
	fetchEnd bool // Halt fetched; stop fetching

	// rob is a ring of ROBSize entries, allocated once, at the first
	// fetch: robN entries in program order starting at slot robHead. Retired and squashed slots
	// are overwritten by later fetches, so nothing may keep a reference to
	// an entry except a ref handle that is dropped or materialized before
	// the slot can be reused.
	rob      []robEntry
	robHead  int
	robN     int
	robSlots int // occupied ROB entries (Work counts its size)
	seq      uint64

	// lq holds the unissued loads and sq the unretired St/Xchg entries,
	// both in program order, so load issue and store-to-load
	// disambiguation walk only the entries they concern.
	lq []ref
	sq refQueue

	undoLog []undoRec
	// undoBase is the absolute index of undoLog[0]: pruneUndoLog advances
	// it, so robEntry.undoIdx stays meaningful across pruning.
	undoBase int
	workFree int64 // execution-unit availability for Work instrs

	// statLog records Stat events retired while W+ weak fences are
	// active, so a W+ rollback can un-count the ones it replays.
	statLog []statRec

	// mispredicted is the oldest branch found mispredicted this cycle;
	// the squash/redirect happens at the next step boundary.
	mispredicted ref

	wb []wbEntry

	// In-flight store transaction (write-buffer head).
	wbReqID    uint64
	wbInFlight bool
	wbRetryAt  int64
	wbBounced  bool // current head store has been nacked at least once
	wbOrder    bool // current request carries the O bit
	wbStalled  bool // fault injection already drew for the current head

	// In-flight atomic (Xchg) transaction.
	atomReqID    uint64
	atomInFlight bool
	atomRetryAt  int64
	atomEntry    ref

	// mshrs holds the MSHRs (Config.MSHRs records, allocated once); at
	// most one is busy per line. nMiss counts the busy ones.
	mshrs  []loadMiss
	nMiss  int
	reqIDc uint64

	fences []*activeFence // active (retired, incomplete) weak fences

	// Wee per-fence handshake state for the fence at the ROB head.
	weeDepositSent bool
	weeDepositAck  bool
	weeRemote      []mem.Line
	weeModule      int
	weeReqID       uint64

	// C-Fence handshake state for the fence at the ROB head.
	cfState   uint8 // 0 idle, 1 registering, 2 stalled, 3 free
	cfReqID   uint64
	cfSnap    []coherence.CFEntry
	cfCleared bool
	cfQueryIn bool
	cfQueryAt int64

	// W+ deadlock detection and recovery.
	bouncedExternal bool // our BS bounced someone since oldest fence began
	timeoutArmed    bool
	timeoutAt       int64
	draining        bool // post-rollback: wait for WB drain before resuming
	drainResumePC   int

	finished  bool
	haltEntry bool

	// Idle-cycle memoization (see PERFORMANCE.md). When a full Step ends
	// with nothing retired and no action taken, the core computes the
	// earliest future cycle at which a purely time-gated event can occur
	// and sleeps until then: Steps before wakeAt just re-charge the
	// recorded stall category in O(1). Message-driven events cannot be
	// predicted, so HandleMsg clears wakeAt; a spurious early wake is a
	// stats-identical no-op, so only *missed* time-gated events would be
	// bugs — computeWake enumerates them all conservatively.
	wakeAt    int64
	acted     bool     // something changed this Step; do not sleep
	stallKind stallCat // category charged for skipped cycles
	stallPC   int      // fence-site attribution for stallFence
	issueWake int64    // earliest future addr-ready of an unissued load
}

// stallCat is the memoized per-cycle stats category charged while the
// core sleeps; it mirrors the switch at the end of Step exactly.
type stallCat uint8

const (
	stallOther stallCat = iota // rMem/rExec/rEmpty: OtherStallCycles
	stallBusy                  // rWork: modeled compute, BusyCycles
	stallFence                 // rFence: FenceStallCycles + site profile
	stallDrain                 // post-rollback drain: FenceStallCycles
)

// New builds a core executing prog on the given machine fabric.
func New(cfg Config, prog *isa.Program, mesh *coherence.Fabric, store *mem.Store) *Core {
	cfg.applyDefaults()
	c := &Core{
		cfg:       cfg,
		prog:      prog,
		mesh:      mesh,
		store:     store,
		st:        stats.NewCore(),
		tr:        cfg.Tracer,
		chk:       cfg.Checker,
		flt:       cfg.Faults,
		l1:        cache.New(cfg.L1Bytes, cfg.L1Assoc),
		bs:        fence.NewBypassSet(cfg.BSCapacity, cfg.BSBloom),
		mshrs:     make([]loadMiss, cfg.MSHRs),
		issueWake: math.MaxInt64,
	}
	// Architectural registers start as known zeros.
	for i := range c.regs {
		c.regs[i].known = true
	}
	return c
}

// Stats returns the core's measurement block.
func (c *Core) Stats() *stats.Core { return c.st }

// Finished reports whether the thread has halted (program complete, write
// buffer drained, all fences complete).
func (c *Core) Finished() bool { return c.finished }

// BypassSet exposes the core's BS (test hook).
func (c *Core) BypassSet() *fence.BypassSet { return c.bs }

// WBDepth returns the current write-buffer occupancy (deadlock
// diagnostics and the invariant oracle's machine view).
func (c *Core) WBDepth() int { return len(c.wb) }

// L1Holds reports whether this core's private L1 currently holds line l,
// and whether it holds it exclusively (Modified or Exclusive). It is the
// invariant oracle's read-only view; Peek does not disturb LRU state.
func (c *Core) L1Holds(l mem.Line) (held, exclusive bool) {
	st, ok := c.l1.Peek(l)
	if !ok {
		return false, false
	}
	return true, st == cache.Modified || st == cache.Exclusive
}

// Reg returns the architectural value of a register once the core has
// finished (test hook). It panics if the register's value is still
// unresolved.
func (c *Core) Reg(r isa.Reg) uint32 {
	rv := c.regs[r]
	if rv.prod.seq != 0 {
		panic("cpu: register value unresolved")
	}
	return rv.val
}

func (c *Core) nextReqID() uint64 {
	c.reqIDc++
	// Make request ids globally unique across cores for debuggability.
	return uint64(c.cfg.ID)<<48 | c.reqIDc
}

func (c *Core) home(l mem.Line) int { return mem.HomeBank(l, c.cfg.NCores) }

func (c *Core) send(now int64, dst int, m coherence.Msg, cat noc.Category) {
	// Sending is an action: a core that communicated this cycle may have
	// follow-up work next cycle, so it must not go to sleep on stale
	// state (single chokepoint for every outbound-message site).
	c.acted = true
	if m.Retry {
		cat = noc.CatRetry
	}
	c.mesh.Send(now, coherence.Packet{Src: c.cfg.ID, Dst: dst, Size: m.Size(), Cat: cat, Payload: m})
}

// slotAt returns the ring slot of the i-th oldest in-flight entry.
func (c *Core) slotAt(i int) int {
	s := c.robHead + i
	if s >= len(c.rob) {
		s -= len(c.rob)
	}
	return s
}

// at returns the i-th oldest in-flight entry.
func (c *Core) at(i int) *robEntry { return &c.rob[c.slotAt(i)] }

// posOf returns the program-order position of a ring slot; it is >= robN
// when the slot holds no in-flight entry.
func (c *Core) posOf(slot int32) int {
	p := int(slot) - c.robHead
	if p < 0 {
		p += len(c.rob)
	}
	return p
}

// entry dereferences a handle. A stale handle (its slot reused by a
// younger instruction) is a dataflow bug, so it panics rather than
// returning the wrong entry.
func (c *Core) entry(h ref) *robEntry {
	e := &c.rob[h.slot]
	if e.seq != h.seq {
		panic("cpu: stale ROB handle")
	}
	return e
}

// newEntry claims the ring slot after the youngest entry and zeroes it.
// The caller must have checked that the window has room; the entry joins
// the window when pushROB commits it.
func (c *Core) newEntry() *robEntry {
	slot := c.slotAt(c.robN)
	e := &c.rob[slot]
	*e = robEntry{slot: int32(slot)}
	return e
}

// refQueue is a bounded FIFO of ROB handles in program order.
type refQueue struct {
	buf     []ref
	head, n int
}

// idx maps the i-th oldest position to its buffer index.
func (q *refQueue) idx(i int) int {
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return j
}

func (q *refQueue) at(i int) ref { return q.buf[q.idx(i)] }

func (q *refQueue) push(h ref) {
	q.buf[q.idx(q.n)] = h
	q.n++
}

func (q *refQueue) popFront() {
	q.head = q.idx(1)
	q.n--
}

// dropFrom removes every handle with seq >= cut (a program-order suffix).
func (q *refQueue) dropFrom(cut uint64) {
	for q.n > 0 && q.at(q.n-1).seq >= cut {
		q.n--
	}
}

// freeMSHR returns an idle MSHR; the caller has checked nMiss < MSHRs.
func (c *Core) freeMSHR() *loadMiss {
	for i := range c.mshrs {
		if !c.mshrs[i].busy {
			return &c.mshrs[i]
		}
	}
	panic("cpu: no free MSHR")
}

// missFor returns the busy MSHR for line l, or nil.
func (c *Core) missFor(l mem.Line) *loadMiss {
	for i := range c.mshrs {
		if lm := &c.mshrs[i]; lm.busy && lm.line == l {
			return lm
		}
	}
	return nil
}

// readReg captures the current fetch-side state of register r as an
// operand.
func (c *Core) readReg(r isa.Reg) operand {
	if r == isa.R0 {
		return operand{known: true}
	}
	return c.regs[r]
}

// writeReg records a fetch-side register write, logging the previous state
// for squash/rollback undo. When the previous state names an unresolved
// producer, the producer remembers the record so publish can patch it.
func (c *Core) writeReg(e *robEntry, r isa.Reg, nv operand) {
	if r == isa.R0 {
		return
	}
	prev := c.regs[r]
	if prev.prod.seq != 0 {
		c.entry(prev.prod).undoIdx = c.undoBase + len(c.undoLog)
	}
	c.undoLog = append(c.undoLog, undoRec{seq: e.seq, reg: r, prev: prev})
	c.regs[r] = nv
}

// publish hands a just-resolved entry's value to the fetch side: into its
// destination register if e is still that register's latest writer,
// otherwise into the single undo record that saved e as the register's
// previous state (a squash or W+ rollback may restore it after e's slot
// has been reused). Afterwards no register state names e.
func (c *Core) publish(e *robEntry) {
	h := e.ref()
	v := operand{known: true, val: e.val, ready: e.ready}
	if rv := &c.regs[e.in.Dst]; rv.prod == h {
		*rv = v
		return
	}
	if i := e.undoIdx - c.undoBase; i >= 0 && i < len(c.undoLog) && c.undoLog[i].prev.prod == h {
		c.undoLog[i].prev = v
	}
}

// materialize refreshes an operand whose producer has since resolved.
func (c *Core) materialize(o *operand) {
	if o.prod.seq == 0 {
		return
	}
	if p := c.entry(o.prod); p.resolved {
		*o = operand{known: true, val: p.val, ready: p.ready}
	}
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
