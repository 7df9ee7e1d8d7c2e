// Package telemetry is the observability plane shared by both executors:
// a low-overhead, race-clean event bus that the simulated engine, the
// concurrent CSP executor, and the prefetching layer caches publish to.
//
// Design constraints, in order:
//
//  1. Disabled means free. A nil *Bus is the disabled bus; every method
//     is nil-safe and returns immediately, and emitting to it allocates
//     nothing (events are plain value structs that never escape). The
//     engines' hot paths therefore carry telemetry calls unconditionally.
//  2. Emission never blocks the pipeline. The bus is a fixed-capacity
//     ring: when the stream is full, new events are dropped and counted
//     (Bus.Dropped) rather than stalling a stage goroutine on a
//     consumer. Live counters keep advancing even while the stream drops.
//  3. Race-clean by construction. Counters are atomics; the stream is
//     guarded by one mutex with O(1) critical sections. Events are
//     emitted concurrently by stage workers and the caches they share.
//
// The package depends only on internal/obs (itself standard-library
// only), so every layer of the system — engine, csp, prefetch, cmds — can
// publish to it without import cycles. Exporters turn a captured stream
// into a Perfetto-loadable Chrome trace (chrometrace.go) or a replayable
// JSONL log (jsonl.go); Register names every live counter once as an obs
// family, and the debug endpoint (debug.go) serves pprof and /metrics.
package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"naspipe/internal/obs"
)

// Op identifies what happened — the event taxonomy. The three families
// mirror the three subsystems the paper's claims hang on: task lifecycle
// (CSP spans), scheduler decisions (Algorithm 2), and the memory context
// (Algorithm 3 prefetching).
type Op uint8

const (
	// Task lifecycle (category "task"). Subnet is the global sequence.
	OpTaskAdmit    Op = iota // task became known/queued on a stage: its input landed (stage 0: retrieved)
	OpTaskStart              // first compute of the task span
	OpTaskPreempt            // span paused: a higher-priority task took the stage
	OpTaskResume             // span resumed after preemption
	OpTaskComplete           // span closed

	// Scheduler decisions (category "sched"), one layout on both planes:
	// Subnet is the global sequence, Kind the task's.
	OpSchedAdmit // the stage admitted a queued task (Arg = its position in the stage's queue)
	OpSchedDelay // every queued forward held back, once per (head, blocker) episode (Subnet = head, Arg = blocking writer, -1 none)

	// Memory context (category "mem").
	OpPrefetchRequest // async context fetch issued (Arg = bytes)
	OpPrefetchLand    // prefetch copy completion (Arg = bytes)
	OpPrefetchDrop    // prefetch abandoned: injected copy failure or locked capacity
	OpCacheHit        // layer accesses served from residency (Arg = layer count)
	OpCacheMiss       // layer accesses that waited for a copy (Arg = layer count)
	OpCacheEvict      // residency freed (Arg = bytes)
	OpCacheStall      // compute stalled on PCIe (Arg = modelled ns; the span is the wait paid)

	// Cross-stage transfers (category "flow").
	OpTransferSend // activation/gradient handed to the next stage (Arg = flow id)
	OpTransferRecv // transfer consumed by the receiving task (Arg = flow id)

	// Fault plane (category "fault"): injected failures and the
	// checkpoint cuts that make them survivable. Every injected fault
	// appears on the stream, so naspipe-replay can reconstruct a failure
	// timeline from the JSONL log alone.
	OpFaultCrash // stage goroutine crashed at a task boundary (Arg = incarnation)
	OpFaultDrop  // message attempt dropped; retried with backoff (Arg = attempt)
	OpFaultDelay // message delivery delayed (Arg = delay ns)
	OpFaultDup   // message delivered twice (receiver dedups)
	OpFaultFetch // prefetch copy failed; surfaced as a cache miss
	OpFaultWedge // stage goroutine hung at a task boundary until cancelled (Arg = incarnation)
	OpCheckpoint // consistency cut committed to the recorder — not yet durable (Arg = global cursor)

	// Supervision plane (category "health"): the supervisor's state
	// machine transitions (Arg = HealthArg(from, to), Subnet =
	// incarnation), so a JSONL log reconstructs the full
	// running→degraded→recovering→done|failed history of a supervised run.
	OpHealth

	// Transport plane (category "link"): the distributed execution
	// plane's stage-to-stage links. Send/recv count sequenced data
	// frames (Arg = link seqno); drop/cut are injected link faults;
	// reconnect closes a cut with the attempt count that healed it;
	// retransmit is the go-back-N tail after a reconnect (Arg = frames
	// re-sent). Stage attributes the event to the link's peer stage.
	OpLinkSend
	OpLinkRecv
	OpLinkDrop
	OpLinkCut
	OpLinkReconnect
	OpLinkRetransmit

	opCount
)

// Bus-level live counters, kept after the ops in Counters.
const (
	cStallNs      = int(opCount) + iota // compute stalled on PCIe, ns (Arg of OpCacheStall instants and span ends)
	cEmitted                            // events emitted, dropped ones included
	cDropped                            // events the full ring refused
	cBatchFlushes                       // Batcher bulk flushes (EmitBatch calls)
	numCounters
)

// counterNames names every live counter once, in Counters order: the ops
// by their wire names, then the bus-level counters. Op.String, OpByName
// and Register read it.
var counterNames = [numCounters]string{
	"task-admit", "task-start", "task-preempt", "task-resume", "task-complete",
	"sched-admit", "sched-delay",
	"prefetch-request", "prefetch-land", "prefetch-drop",
	"cache-hit", "cache-miss", "cache-evict", "cache-stall",
	"transfer-send", "transfer-recv",
	"fault-crash", "fault-drop", "fault-delay", "fault-dup", "fault-fetch",
	"fault-wedge", "checkpoint",
	"health",
	"link-send", "link-recv", "link-drop", "link-cut", "link-reconnect",
	"link-retransmit",
	"cache-stall-seconds", "events-emitted", "events-dropped", "batch-flushes",
}

func (o Op) String() string {
	if o < opCount {
		return counterNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpByName resolves the wire name used in JSONL logs back to an Op.
func OpByName(name string) (Op, bool) {
	for i, n := range counterNames[:opCount] {
		if n == name {
			return Op(i), true
		}
	}
	return 0, false
}

// Category groups an op for exporters ("task", "sched", "mem", "flow",
// "fault", "health").
func (o Op) Category() string {
	switch {
	case o <= OpTaskComplete:
		return "task"
	case o <= OpSchedDelay:
		return "sched"
	case o <= OpCacheStall:
		return "mem"
	case o <= OpTransferRecv:
		return "flow"
	case o <= OpCheckpoint:
		return "fault"
	case o == OpHealth:
		return "health"
	default:
		return "link"
	}
}

// Phase is how an event renders on a timeline.
type Phase uint8

const (
	PhaseInstant   Phase = iota // a point in time
	PhaseBegin                  // opens a span on (Stage, Worker)
	PhaseEnd                    // closes the matching open span
	PhaseFlowBegin              // flow arrow tail (inside the sending span)
	PhaseFlowEnd                // flow arrow head (inside the receiving span)
)

var phaseNames = [...]string{"i", "B", "E", "s", "f"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// PhaseByName resolves a phase wire name ("i", "B", "E", "s", "f").
func PhaseByName(name string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), true
		}
	}
	return 0, false
}

// Task kinds, mirroring csp.Kind without the import (the bus imports no
// plane it observes).
const (
	KindNone     int8 = -1 // not task-scoped (cache traffic, scheduler scans)
	KindForward  int8 = 0
	KindBackward int8 = 1
)

// KindString renders a kind the way the rest of the system does.
func KindString(k int8) string {
	switch k {
	case KindForward:
		return "F"
	case KindBackward:
		return "B"
	}
	return "-"
}

// Virtual worker (thread) ids within a stage, used as Chrome-trace tids.
// The simulated plane puts everything on WorkerStage; the concurrent
// plane attributes cache traffic to WorkerMem and modeled PCIe copy
// completions to WorkerPCIe.
const (
	WorkerStage int32 = 0 // the stage's compute worker
	WorkerMem   int32 = 1 // prefetch requests / cache bookkeeping
	WorkerPCIe  int32 = 2 // modeled copy-completion timeline
)

// Event is one telemetry record. It is a fixed-size value struct — no
// maps, no pointers — so emission never allocates and the ring is a flat
// slab. Attribution fields that do not apply carry their zero/sentinel
// values (Subnet -1, Kind KindNone, Arg 0).
type Event struct {
	TsNs   int64 // nanoseconds since the bus epoch (or simulated ns)
	Op     Op
	Phase  Phase
	Stage  int32 // pipeline stage (Chrome pid)
	Worker int32 // virtual worker within the stage (Chrome tid)
	Subnet int32 // subnet sequence id, -1 when not task-scoped
	Kind   int8  // KindForward/KindBackward/KindNone
	Arg    int64 // op-specific payload (bytes, ns, seq, flow id)
}

// Bus is the shared event collector. Construct with NewBus; the nil *Bus
// is the disabled bus (see the package comment).
type Bus struct {
	epoch time.Time

	counters [numCounters]atomic.Int64

	mu  sync.Mutex
	buf []Event // ring slab; len grows to cap, then the stream drops
}

// DefaultCapacity is the ring size NewBus uses for capacity <= 0:
// generous for a bench smoke (a few hundred tasks × a handful of events
// each) while bounding a long run's memory at ~4 MB.
const DefaultCapacity = 1 << 17

// NewBus returns an enabled bus whose stream holds up to capacity events
// (capacity <= 0 selects DefaultCapacity). The epoch — time zero for
// wall-clock stamps — is the moment of construction.
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Bus{epoch: time.Now(), buf: make([]Event, 0, capacity)}
}

// Now returns nanoseconds since the bus epoch (0 on the disabled bus) —
// the timestamp base for EmitAt backdating.
func (b *Bus) Now() int64 {
	if b == nil {
		return 0
	}
	return int64(time.Since(b.epoch))
}

// Emit stamps the event with the current wall-clock offset and records
// it. Nil-safe and non-blocking; a full ring drops the event (counted)
// while the live counters still advance.
func (b *Bus) Emit(ev Event) {
	if b == nil {
		return
	}
	ev.TsNs = int64(time.Since(b.epoch))
	b.record(ev)
}

// EmitAt is Emit with an explicit timestamp — simulated time from the
// discrete-event engine, or backdated span boundaries (e.g. a stall that
// is only known once it has finished).
func (b *Bus) EmitAt(tsNs int64, ev Event) {
	if b == nil {
		return
	}
	ev.TsNs = tsNs
	b.record(ev)
}

// count advances the live counters for one event.
func (b *Bus) count(ev Event) {
	switch {
	case ev.Op == OpCacheHit || ev.Op == OpCacheMiss:
		// Emitters aggregate per acquire; Arg carries the layer count so
		// the live counters stay per-layer-exact.
		b.counters[ev.Op].Add(ev.Arg)
	case ev.Op < opCount:
		b.counters[ev.Op].Add(1)
	}
	if ev.Op == OpCacheStall && ev.Phase != PhaseBegin {
		// Count stall time once per stall (instant or span end).
		b.counters[cStallNs].Add(ev.Arg)
	}
	b.counters[cEmitted].Add(1)
}

func (b *Bus) record(ev Event) {
	b.count(ev)
	b.mu.Lock()
	if len(b.buf) < cap(b.buf) {
		b.buf = append(b.buf, ev)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	b.counters[cDropped].Add(1)
}

// EmitBatch records a slice of already-stamped events under a single ring
// lock — the bulk path Batcher flushes through. Events must carry their
// TsNs (stamp with Now at collection time); they are not re-stamped.
// Nil-safe and non-blocking: if the ring cannot hold the whole batch, the
// prefix that fits is kept and the rest is counted as dropped, exactly as
// per-event emission would have done.
func (b *Bus) EmitBatch(evs []Event) {
	if b == nil || len(evs) == 0 {
		return
	}
	b.counters[cBatchFlushes].Add(1)
	for i := range evs {
		b.count(evs[i])
	}
	b.mu.Lock()
	take := cap(b.buf) - len(b.buf)
	if take > len(evs) {
		take = len(evs)
	}
	b.buf = append(b.buf, evs[:take]...)
	b.mu.Unlock()
	if take < len(evs) {
		b.counters[cDropped].Add(int64(len(evs) - take))
	}
}

// Events returns a copy of the captured stream in emission order.
// Nil-safe (returns nil).
func (b *Bus) Events() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, len(b.buf))
	copy(out, b.buf)
	return out
}

// Dropped returns how many events the full ring refused. Nil-safe.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return uint64(b.counters[cDropped].Load())
}

// Count returns the live counter for one op (counted even for events the
// ring dropped). Nil-safe.
func (b *Bus) Count(op Op) int64 {
	if b == nil || op >= opCount {
		return 0
	}
	return b.counters[op].Load()
}

// Counters is every live counter in one array, indexed as counterNames
// names them: the op counts, then stall ns, emitted, dropped and batch
// flushes. Register publishes it; a daemon sums its jobs' buses into one.
type Counters [numCounters]int64

// Counters reads the live counters. Nil-safe (zeros).
func (b *Bus) Counters() Counters {
	var c Counters
	if b == nil {
		return c
	}
	for i := range c {
		c[i] = b.counters[i].Load()
	}
	return c
}

// Register publishes each live counter on r once, as the counter family
// naspipe_telemetry_<name>_total read from read at scrape time: one
// bus's Counters (a CLI's -debug-addr), or a daemon's sum over its jobs.
// Stall time is exposed in seconds. Nil-safe.
func Register(r *obs.Registry, read func() Counters) {
	for i, name := range counterNames {
		help := "Events of op " + name + ", counted even when the ring drops them."
		scale := 1.0
		switch i {
		case int(OpCacheHit), int(OpCacheMiss):
			help = "Layer accesses reported by " + name + " events."
		case cStallNs:
			help, scale = "Compute time stalled on PCIe copies.", 1e-9
		case cEmitted:
			help = "Events emitted, dropped ones included."
		case cDropped:
			help = "Events the full ring refused; the exports lack them."
		case cBatchFlushes:
			help = "Batcher bulk flushes into the bus."
		}
		r.CounterFunc("naspipe_telemetry_"+strings.ReplaceAll(name, "-", "_")+"_total", help,
			func() float64 { return scale * float64(read()[i]) })
	}
}

// Snapshot is a point-in-time copy of the live counters under named
// fields — cheap enough for a progress ticker. Derived from Counters.
type Snapshot struct {
	ElapsedNs    int64
	Emitted      uint64
	Dropped      uint64
	BatchFlushes uint64

	Admitted  int64
	Started   int64
	Preempted int64
	Completed int64

	SchedAdmits int64
	SchedDelays int64

	PrefetchRequests int64
	PrefetchDrops    int64
	CacheHits        int64
	CacheMisses      int64
	CacheEvicts      int64
	StallNs          int64

	Crashes      int64
	FaultDrops   int64
	FaultDelays  int64
	FaultDups    int64
	FaultFetches int64
	FaultWedges  int64
	Checkpoints  int64

	HealthTransitions int64

	LinkSends       int64
	LinkRecvs       int64
	LinkDrops       int64
	LinkCuts        int64
	LinkReconnects  int64
	LinkRetransmits int64
}

// Snapshot reads the live counters. Nil-safe (zero snapshot).
func (b *Bus) Snapshot() Snapshot {
	if b == nil {
		return Snapshot{}
	}
	c := b.Counters()
	return Snapshot{
		ElapsedNs:         b.Now(),
		Emitted:           uint64(c[cEmitted]),
		Dropped:           uint64(c[cDropped]),
		BatchFlushes:      uint64(c[cBatchFlushes]),
		Admitted:          c[OpTaskAdmit],
		Started:           c[OpTaskStart],
		Preempted:         c[OpTaskPreempt],
		Completed:         c[OpTaskComplete],
		SchedAdmits:       c[OpSchedAdmit],
		SchedDelays:       c[OpSchedDelay],
		PrefetchRequests:  c[OpPrefetchRequest],
		PrefetchDrops:     c[OpPrefetchDrop],
		CacheHits:         c[OpCacheHit],
		CacheMisses:       c[OpCacheMiss],
		CacheEvicts:       c[OpCacheEvict],
		StallNs:           c[cStallNs],
		Crashes:           c[OpFaultCrash],
		FaultDrops:        c[OpFaultDrop],
		FaultDelays:       c[OpFaultDelay],
		FaultDups:         c[OpFaultDup],
		FaultFetches:      c[OpFaultFetch],
		FaultWedges:       c[OpFaultWedge],
		Checkpoints:       c[OpCheckpoint],
		HealthTransitions: c[OpHealth],
		LinkSends:         c[OpLinkSend],
		LinkRecvs:         c[OpLinkRecv],
		LinkDrops:         c[OpLinkDrop],
		LinkCuts:          c[OpLinkCut],
		LinkReconnects:    c[OpLinkReconnect],
		LinkRetransmits:   c[OpLinkRetransmit],
	}
}

// HitRate returns cache hits/(hits+misses), or -1 with no accesses — the
// same N/A sentinel the result tables use.
func (s Snapshot) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return -1
	}
	return float64(s.CacheHits) / float64(total)
}

// String renders the one-line progress format the cmds print:
//
//	[2.1s] tasks 96/128 started/done, sched 32 delays, cache 91.2% hit (12 stall ms), events 4521 (0 dropped)
//
// The task and scheduler fields appear only once the bus has seen a task
// event: a fleet coordinator's bus never does, since its stage workers
// keep theirs, and zeros there would misreport the run.
func (s Snapshot) String() string {
	var parts []string
	if s.Admitted+s.Started+s.Completed+s.SchedAdmits > 0 {
		parts = append(parts, fmt.Sprintf("tasks %d/%d started/done, sched %d delays", s.Started, s.Completed, s.SchedDelays))
	}
	if s.CacheHits+s.CacheMisses > 0 {
		parts = append(parts, fmt.Sprintf("cache %.1f%% hit (%.1f stall ms)",
			100*s.HitRate(), float64(s.StallNs)/1e6))
	}
	if faults := s.Crashes + s.FaultDrops + s.FaultDelays + s.FaultDups + s.FaultFetches + s.FaultWedges; faults > 0 {
		parts = append(parts, fmt.Sprintf("faults %d (%d crashes), ckpts %d", faults, s.Crashes, s.Checkpoints))
	}
	if s.HealthTransitions > 0 {
		parts = append(parts, fmt.Sprintf("health %d transitions", s.HealthTransitions))
	}
	if s.LinkSends+s.LinkRecvs > 0 {
		link := fmt.Sprintf("link %d/%d sent/recvd", s.LinkSends, s.LinkRecvs)
		if disturbed := s.LinkDrops + s.LinkCuts; disturbed > 0 {
			link += fmt.Sprintf(" (%d drops, %d cuts, %d reconnects)",
				s.LinkDrops, s.LinkCuts, s.LinkReconnects)
		}
		parts = append(parts, link)
	}
	parts = append(parts, fmt.Sprintf("events %d (%d dropped)", s.Emitted, s.Dropped))
	return fmt.Sprintf("[%.1fs] %s", float64(s.ElapsedNs)/1e9, strings.Join(parts, ", "))
}

// FlowID packs a cross-stage transfer identity (kind, subnet, sending
// stage) into the Arg payload of OpTransferSend/Recv events, so the
// receiving side can name the same flow without shared state.
func FlowID(kind int8, subnet, fromStage int32) int64 {
	return int64(kind+1)<<40 | int64(subnet)<<16 | int64(fromStage)
}

// HealthArg packs a supervision state transition into an OpHealth event's
// Arg payload. State codes are the supervision plane's (see
// internal/supervise): 0 running, 1 degraded, 2 recovering, 3 done,
// 4 failed; the bus imports no plane it observes.
func HealthArg(from, to int32) int64 {
	return int64(from)<<8 | int64(to)
}

// HealthFromTo unpacks a HealthArg payload.
func HealthFromTo(arg int64) (from, to int32) {
	return int32(arg>>8) & 0xff, int32(arg) & 0xff
}
