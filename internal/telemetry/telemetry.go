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
//     (Snapshot.Dropped) rather than stalling a stage goroutine on a
//     consumer. Live counters keep advancing even while the stream drops.
//  3. Race-clean by construction. Counters are atomics; the stream is
//     guarded by one mutex with O(1) critical sections. Events are
//     emitted concurrently by stage workers and the caches they share.
//
// The package is dependency-free (standard library only) so every layer
// of the system — engine, csp, prefetch, metrics, cmds — can publish to
// it without import cycles. Exporters turn a captured stream into a
// Perfetto-loadable Chrome trace (chrometrace.go) or a replayable JSONL
// log (jsonl.go); ServeDebug (debug.go) exposes pprof, expvar, and live
// snapshots over HTTP.
package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
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

var opNames = [opCount]string{
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
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpByName resolves the wire name used in JSONL logs back to an Op.
func OpByName(name string) (Op, bool) {
	for i, n := range opNames {
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

// Task kinds, mirroring internal/task without the import (the bus is
// dependency-free).
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

	counters [opCount]atomic.Int64
	stallNs  atomic.Int64
	emitted  atomic.Uint64
	dropped  atomic.Uint64
	flushes  atomic.Uint64

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

// Enabled reports whether events go anywhere. Nil-safe.
func (b *Bus) Enabled() bool { return b != nil }

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
		b.stallNs.Add(ev.Arg)
	}
	b.emitted.Add(1)
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
	b.dropped.Add(1)
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
	b.flushes.Add(1)
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
		b.dropped.Add(uint64(len(evs) - take))
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

// Len returns the number of events currently captured. Nil-safe.
func (b *Bus) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

// Dropped returns how many events the full ring refused. Nil-safe.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Count returns the live counter for one op (counted even for events the
// ring dropped). Nil-safe.
func (b *Bus) Count(op Op) int64 {
	if b == nil || op >= opCount {
		return 0
	}
	return b.counters[op].Load()
}

// Snapshot is a point-in-time copy of the live counters — cheap enough
// for a progress ticker, and the payload ServeDebug publishes via expvar.
type Snapshot struct {
	ElapsedNs    int64  `json:"elapsed_ns"`
	Emitted      uint64 `json:"emitted"`
	Dropped      uint64 `json:"dropped"`
	BatchFlushes uint64 `json:"batch_flushes"`

	Admitted  int64 `json:"admitted"`
	Started   int64 `json:"started"`
	Preempted int64 `json:"preempted"`
	Completed int64 `json:"completed"`

	SchedAdmits int64 `json:"sched_admits"`
	SchedDelays int64 `json:"sched_delays"`

	PrefetchRequests int64 `json:"prefetch_requests"`
	PrefetchDrops    int64 `json:"prefetch_drops"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	CacheEvicts      int64 `json:"cache_evicts"`
	StallNs          int64 `json:"stall_ns"`

	Crashes      int64 `json:"fault_crashes"`
	FaultDrops   int64 `json:"fault_drops"`
	FaultDelays  int64 `json:"fault_delays"`
	FaultDups    int64 `json:"fault_dups"`
	FaultFetches int64 `json:"fault_fetches"`
	FaultWedges  int64 `json:"fault_wedges"`
	Checkpoints  int64 `json:"checkpoints"`

	HealthTransitions int64 `json:"health_transitions"`

	LinkSends       int64 `json:"link_sends"`
	LinkRecvs       int64 `json:"link_recvs"`
	LinkDrops       int64 `json:"link_drops"`
	LinkCuts        int64 `json:"link_cuts"`
	LinkReconnects  int64 `json:"link_reconnects"`
	LinkRetransmits int64 `json:"link_retransmits"`
}

// Snapshot reads the live counters. Nil-safe (zero snapshot).
func (b *Bus) Snapshot() Snapshot {
	if b == nil {
		return Snapshot{}
	}
	return Snapshot{
		ElapsedNs:        b.Now(),
		Emitted:          b.emitted.Load(),
		Dropped:          b.dropped.Load(),
		BatchFlushes:     b.flushes.Load(),
		Admitted:         b.counters[OpTaskAdmit].Load(),
		Started:          b.counters[OpTaskStart].Load(),
		Preempted:        b.counters[OpTaskPreempt].Load(),
		Completed:        b.counters[OpTaskComplete].Load(),
		SchedAdmits:      b.counters[OpSchedAdmit].Load(),
		SchedDelays:      b.counters[OpSchedDelay].Load(),
		PrefetchRequests: b.counters[OpPrefetchRequest].Load(),
		PrefetchDrops:    b.counters[OpPrefetchDrop].Load(),
		CacheHits:        b.counters[OpCacheHit].Load(),
		CacheMisses:      b.counters[OpCacheMiss].Load(),
		CacheEvicts:      b.counters[OpCacheEvict].Load(),
		StallNs:          b.stallNs.Load(),
		Crashes:          b.counters[OpFaultCrash].Load(),
		FaultDrops:       b.counters[OpFaultDrop].Load(),
		FaultDelays:      b.counters[OpFaultDelay].Load(),
		FaultDups:        b.counters[OpFaultDup].Load(),
		FaultFetches:     b.counters[OpFaultFetch].Load(),
		FaultWedges:      b.counters[OpFaultWedge].Load(),
		Checkpoints:      b.counters[OpCheckpoint].Load(),

		HealthTransitions: b.counters[OpHealth].Load(),

		LinkSends:       b.counters[OpLinkSend].Load(),
		LinkRecvs:       b.counters[OpLinkRecv].Load(),
		LinkDrops:       b.counters[OpLinkDrop].Load(),
		LinkCuts:        b.counters[OpLinkCut].Load(),
		LinkReconnects:  b.counters[OpLinkReconnect].Load(),
		LinkRetransmits: b.counters[OpLinkRetransmit].Load(),
	}
}

// Add returns the field-wise sum of two snapshots — how the service
// scheduler aggregates per-job buses (live and finished) into one
// system-wide view for /metrics and /debug/telemetry. ElapsedNs takes
// the max: the summed counters describe overlapping runs, so elapsed
// time is "longest run observed", not a sum.
func (s Snapshot) Add(o Snapshot) Snapshot {
	if o.ElapsedNs > s.ElapsedNs {
		s.ElapsedNs = o.ElapsedNs
	}
	s.Emitted += o.Emitted
	s.Dropped += o.Dropped
	s.BatchFlushes += o.BatchFlushes
	s.Admitted += o.Admitted
	s.Started += o.Started
	s.Preempted += o.Preempted
	s.Completed += o.Completed
	s.SchedAdmits += o.SchedAdmits
	s.SchedDelays += o.SchedDelays
	s.PrefetchRequests += o.PrefetchRequests
	s.PrefetchDrops += o.PrefetchDrops
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheEvicts += o.CacheEvicts
	s.StallNs += o.StallNs
	s.Crashes += o.Crashes
	s.FaultDrops += o.FaultDrops
	s.FaultDelays += o.FaultDelays
	s.FaultDups += o.FaultDups
	s.FaultFetches += o.FaultFetches
	s.FaultWedges += o.FaultWedges
	s.Checkpoints += o.Checkpoints
	s.HealthTransitions += o.HealthTransitions
	s.LinkSends += o.LinkSends
	s.LinkRecvs += o.LinkRecvs
	s.LinkDrops += o.LinkDrops
	s.LinkCuts += o.LinkCuts
	s.LinkReconnects += o.LinkReconnects
	s.LinkRetransmits += o.LinkRetransmits
	return s
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
func (s Snapshot) String() string {
	out := fmt.Sprintf("[%.1fs] tasks %d/%d started/done, sched %d delays",
		float64(s.ElapsedNs)/1e9, s.Started, s.Completed, s.SchedDelays)
	if s.CacheHits+s.CacheMisses > 0 {
		out += fmt.Sprintf(", cache %.1f%% hit (%.1f stall ms)",
			100*s.HitRate(), float64(s.StallNs)/1e6)
	}
	if faults := s.Crashes + s.FaultDrops + s.FaultDelays + s.FaultDups + s.FaultFetches + s.FaultWedges; faults > 0 {
		out += fmt.Sprintf(", faults %d (%d crashes), ckpts %d", faults, s.Crashes, s.Checkpoints)
	}
	if s.HealthTransitions > 0 {
		out += fmt.Sprintf(", health %d transitions", s.HealthTransitions)
	}
	if s.LinkSends+s.LinkRecvs > 0 {
		out += fmt.Sprintf(", link %d/%d sent/recvd", s.LinkSends, s.LinkRecvs)
		if disturbed := s.LinkDrops + s.LinkCuts; disturbed > 0 {
			out += fmt.Sprintf(" (%d drops, %d cuts, %d reconnects)",
				s.LinkDrops, s.LinkCuts, s.LinkReconnects)
		}
	}
	out += fmt.Sprintf(", events %d (%d dropped)", s.Emitted, s.Dropped)
	return out
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
// 4 failed; the bus itself stays dependency-free.
func HealthArg(from, to int32) int64 {
	return int64(from)<<8 | int64(to)
}

// HealthFromTo unpacks a HealthArg payload.
func HealthFromTo(arg int64) (from, to int32) {
	return int32(arg>>8) & 0xff, int32(arg) & 0xff
}
