// The concurrent execution plane: a goroutine-per-stage CSP executor.
//
// Where the simulator (engine.go) models the paper's runtime on a
// discrete-event clock, RunConcurrent *is* the runtime, at Go scale: every
// pipeline stage runs in its own goroutine and admits forward tasks by
// consulting its own csp.Scheduler — the paper's decentralized
// synchronization (§3.3), with no global clock and no central scheduler.
//
// Stages talk one way only (dist.go): activations downstream, gradients
// upstream and write/finish notifications sideways (the mirroring push of
// §4.2) are transport.Msgs sent through one transport.Transport, and each
// stage goroutine drains — and parks on — its own inbox, Transport.Recv(k).
// A single-process run gets a private ChanTransport; a Config.Dist run
// uses the caller's, be it a shared ChanTransport or a TCP star. The
// send/receive code is the same in all three.
//
// With Config.ConcurrentMem enabled, each stage additionally owns a
// thread-safe prefetching layer cache (internal/prefetch). Prefetch
// requests come from three sources, the same three the simulator models:
// arrival of a task's input message, cross-stage notification at a
// neighbour's admission (§3.3 context push, issued before the admitted
// task's own acquire so the copy overlaps its stall), and the Algorithm 3
// predictor (csp.Predictor), including pending-backward records carried
// upstream with gradient transfers (Algorithm 3 lines 10–11). A request is
// applied by the goroutine that makes it — issuing a copy only computes
// its deadline — so a cached run still has one goroutine per stage. Each
// forward/backward brackets its compute with Acquire/Release on the
// cache, counting the paper's hit/miss/stall/drop micro events; a stall is
// one clock.Sleep. Prefetching moves data only — admission decisions never
// consult the cache — so the causal schedule, and with it the Definition 1
// guarantee below, is invariant under any cache configuration; every
// traced run still verifies it mechanically.
//
// Determinism under real parallelism is the point. The raw interleaving of
// parameter accesses across stages is wall-clock-nondeterministic — it
// changes with GOMAXPROCS, scheduling noise, and injected timing jitter.
// CSP's guarantee (Definition 1) is that the *per-layer projection* of
// that interleaving — the only thing the training result depends on — is
// always the sequential order. RunConcurrent therefore returns two traces:
// Result.ObservedTrace, the raw emission order, and Result.Trace, the
// canonical causal order (each subnet's READs in stage order, then its
// WRITEs in backward stage order — byte-for-byte what a sequential run
// emits). After a complete run it verifies that the observed per-layer
// order equals the canonical one and fails loudly otherwise, making every
// call a mechanical check of Definition 1 on a genuinely parallel
// execution.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"naspipe/internal/clock"
	"naspipe/internal/csp"
	"naspipe/internal/fault"
	"naspipe/internal/metrics"
	"naspipe/internal/prefetch"
	"naspipe/internal/rng"
	"naspipe/internal/supernet"
	"naspipe/internal/task"
	"naspipe/internal/telemetry"
	"naspipe/internal/trace"
	"naspipe/internal/transport"
)

// ccStage is one stage goroutine's private state. Only the owning
// goroutine touches the scheduling fields after the run starts; the
// cache is thread-safe and shared with the neighbouring stages'
// goroutines (requestFetch); all other cross-stage communication arrives
// on the inbox.
type ccStage struct {
	k    int
	base int // global seq of local subnet 0 (Config.SeqBase)

	sched *csp.Scheduler

	// in is the stage's inbox, Transport.Recv(k): every activation,
	// gradient, notification and remote prefetch push addressed to it.
	in <-chan transport.Msg

	// seenFwd/seenBwd dedup duplicated fault-plane deliveries (nil when
	// fault injection is off; with it on, the injector bounds deliveries
	// per message at two).
	seenFwd map[int]bool
	seenBwd map[int]bool

	// Memory-context plane (nil/empty when ConcurrentMem is disabled).
	cache     *prefetch.Cache
	pred      *csp.Predictor                // Algorithm 3 (nil unless Predictor)
	carriedBy map[int][]csp.PendingBackward // pending records received per gradient
	announced map[int]bool                  // subnets already carried upstream

	fwdQ     []int // L_q: subnets whose forward input has arrived
	bwdReady []int // subnets whose backward input has arrived
	fwdDone  int
	bwdDone  int

	retrieved int // stage 0 only: subnets pulled from the exploration stream

	lastTaskNs int64 // wall-clock ns of the last completed task (health probe)

	// sent counts deliveries handed to the transport (a broadcast is D−1),
	// processed the inbox messages folded in: the lost-wake-up check's
	// ledger (enterIdle).
	sent, processed int

	cont metrics.StageContention

	tel *telemetry.Bus // nil = telemetry disabled
	// telb batches this stage goroutine's own events (task lifecycle,
	// scheduler decisions, transfer endpoints), amortizing the bus lock to
	// one acquisition per flush. Single-producer by construction: only the
	// stage goroutine emits through it. Events that other goroutines may
	// emit on this stage's behalf (fault-plane prefetch failures, cache
	// traffic) go straight to tel. Flushed at parks, at wedge/crash/
	// cancel boundaries, and on loop exit — before anyone reads the bus.
	telb *telemetry.Batcher
	// lastDelaySeq/Writer dedup OpSchedDelay: a stage rescans its blocked
	// queue every loop iteration, but only a *change* of blocked head or
	// blocking writer is a new fact worth an event.
	lastDelaySeq    int
	lastDelayWriter int
}

// telTask emits one task-scoped event at wall-clock now. seq is the
// stage-local sequence; the event carries the global one.
func (s *ccStage) telTask(op telemetry.Op, ph telemetry.Phase, seq int, kind int8) {
	if s.tel == nil {
		return
	}
	s.telb.Emit(telemetry.Event{
		Op: op, Phase: ph,
		Stage: int32(s.k), Worker: telemetry.WorkerStage,
		Subnet: int32(s.base + seq), Kind: kind,
	})
}

// telFlow emits one cross-stage transfer endpoint; from is the sending
// stage on both ends of the arrow.
func (s *ccStage) telFlow(op telemetry.Op, ph telemetry.Phase, seq int, kind int8, from int) {
	if s.tel == nil {
		return
	}
	s.telb.Emit(telemetry.Event{
		Op: op, Phase: ph,
		Stage: int32(s.k), Worker: telemetry.WorkerStage,
		Subnet: int32(s.base + seq), Kind: kind,
		Arg: telemetry.FlowID(kind, int32(s.base+seq), int32(from)),
	})
}

// telFault emits one fault-plane event; gseq is already global.
func (s *ccStage) telFault(op telemetry.Op, gseq int, kind int8, arg int64) {
	if s.tel == nil {
		return
	}
	s.tel.Emit(telemetry.Event{
		Op: op, Phase: telemetry.PhaseInstant,
		Stage: int32(s.k), Worker: telemetry.WorkerStage,
		Subnet: int32(gseq), Kind: kind, Arg: arg,
	})
}

// ccRun is the shared, read-only-after-start context of one concurrent
// run, plus the mutex-guarded trace collector.
type ccRun struct {
	cfg    Config
	w      *World
	stages []*ccStage // indexed by stage; nil for stages remote to this process
	base   int        // Config.SeqBase

	tp transport.Transport // all cross-stage traffic (see dist.go)

	// done and stop belong to the run context. A stage parks on its inbox
	// and done only; every failure — an injected crash, a recorder or
	// transport error, a lost wake-up — is stop(cause), and the first
	// cause wins.
	done <-chan struct{}
	stop context.CancelCauseFunc

	// The lost-wake-up check (enterIdle); off on a fleet worker.
	checkIdle bool
	idleMu    sync.Mutex
	idle      int

	mu  sync.Mutex
	obs *trace.Trace // raw interleaving; nil unless RecordTrace

	// tel is Config.Telemetry, or a private bus when RecordTrace needs
	// Result.Spans without one; nil = telemetry disabled.
	tel *telemetry.Bus

	// Fault plane (nil when Config.Faults is disabled).
	inj *fault.Injector

	// Checkpoint plane: rec receives consistency cuts as stage 0's
	// backward frontier advances; lastCut is the stage-0 goroutine's.
	rec     fault.Recorder
	lastCut int

	// Health plane: probe is Config.Probe (nil = disabled); stages
	// publish their scheduler state into it at every task boundary.
	probe *RunProbe
}

// errLostWakeup is the cause enterIdle stops the run with; RunConcurrent
// reports it as a *StallError if the stream is unfinished.
var errLostWakeup = errors.New("engine: every stage parked with no message in flight")

// RunConcurrent executes the configuration on the concurrent CSP
// execution plane. It is inherently a NASPipe (CSP) run: admission is
// Algorithm 2 on a per-stage scheduler, backward tasks carry priority, and
// subnets use balanced per-subnet partitions as in the full system.
//
// The returned Result carries scheduling/trace fields (Completed, TotalMs
// wall clock, Trace, ObservedTrace, per-stage Contention) and — when
// Config.ConcurrentMem enables the cache — the memory-context fields:
// per-stage CacheStats, aggregate CacheHitRate (or -1/N-A with no
// accesses), StallMs, DroppedPrefetches, CachedParamBytes (the summed
// cache budget), and CPUMemBytes (the pinned supernet stash). With the
// cache disabled the memory fields stay zero and CacheHitRate is -1, as
// in PR 1.
//
// Cancellation: stage goroutines check ctx between tasks; on cancellation
// the partial Result (Deadlock set, Completed < N) returns with ctx.Err().
// Otherwise an unfinished run returns the first failure, or a *StallError
// when every stage parked with no message in flight.
func RunConcurrent(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return Result{}, fmt.Errorf("engine: invalid cluster spec: %w", err)
	}
	mem := cfg.ConcurrentMem
	if mem.Predictor && !mem.Enabled() {
		return Result{}, fmt.Errorf("engine: the concurrent predictor requires a cache (ConcurrentMem.CacheFactor > 0)")
	}
	if mem.CacheFactor < 0 || mem.FetchMsScale < 0 {
		return Result{}, fmt.Errorf("engine: negative ConcurrentMem parameters: %+v", mem)
	}
	if cfg.SeqBase < 0 {
		return Result{}, fmt.Errorf("engine: negative SeqBase %d", cfg.SeqBase)
	}
	if err := cfg.validateTiming(); err != nil {
		return Result{}, err
	}
	w, err := NewWorld(cfg, PartitionBalanced)
	if err != nil {
		return Result{}, err
	}
	c := &ccRun{cfg: cfg, w: w, base: cfg.SeqBase, rec: cfg.Checkpoint, probe: cfg.Probe}
	if cfg.Faults.Enabled() {
		c.inj, err = fault.NewInjector(*cfg.Faults, cfg.FaultIncarnation)
		if err != nil {
			return Result{}, fmt.Errorf("engine: %w", err)
		}
	}
	if cfg.RecordTrace {
		c.obs = &trace.Trace{}
	}
	n := len(w.Subnets)
	tel := cfg.Telemetry
	if tel == nil && cfg.RecordTrace {
		// A traced run wants Result.Spans even without an external bus:
		// capture privately, sized for the full span/flow event volume.
		tel = telemetry.NewBus(32*n*w.D + 4096)
	}
	c.tel = tel
	local := make([]int, w.D) // the stages this process runs
	for k := range local {
		local[k] = k
	}
	if cfg.Dist != nil {
		if err := cfg.Dist.validate(w.D); err != nil {
			return Result{}, err
		}
		c.tp, local = cfg.Dist.Transport, cfg.Dist.Stages
	} else {
		c.tp = transport.NewChanTransport(w.D, c.inboxCap(n))
	}
	c.stages = make([]*ccStage, w.D) // nil = runs in another process, behind the transport
	for _, k := range local {
		s := &ccStage{
			k:     k,
			base:  c.base,
			sched: csp.New(k),
			in:    c.tp.Recv(k),
			cont:  metrics.StageContention{Stage: k},
			tel:   tel,
			telb:  telemetry.NewBatcher(tel),
		}
		if c.inj != nil {
			s.seenFwd = make(map[int]bool, n)
			s.seenBwd = make(map[int]bool, n)
		}
		for i := range w.Subnets {
			if err := s.sched.AddSubnet(csp.SubnetInfo{
				Seq:         i,
				AllLayers:   w.AllLayerIDs(i),
				StageLayers: w.StageLayerIDs(i, k),
			}); err != nil {
				return Result{}, fmt.Errorf("engine: concurrent scheduler init: %w", err)
			}
		}
		if mem.Enabled() {
			s.cache = prefetch.New(w.cacheCapacity(k, mem.CacheFactor), cfg.Spec.PCIeBytesPerMs, mem.FetchMsScale).WithTelemetry(tel, int32(k))
			if mem.Predictor {
				s.pred = csp.NewPredictor(s.sched)
				s.carriedBy = make(map[int][]csp.PendingBackward)
				s.announced = make(map[int]bool)
			}
		}
		c.stages[k] = s
	}
	if c.probe != nil {
		c.probe.attach(w.D, c.base)
	}
	runCtx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	c.done, c.stop, c.checkIdle = runCtx.Done(), stop, len(local) == w.D

	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range c.stages {
		if s == nil {
			continue
		}
		wg.Add(1)
		go func(s *ccStage) {
			defer wg.Done()
			c.stageLoop(s)
		}(s)
	}
	wg.Wait() // establishes happens-before: stage state is safe to read below

	res := Result{
		Policy: "NASPipe-CC", Space: cfg.Space.Name, D: w.D,
		SupernetBytes: w.Net.TotalParamBytes(),
		BaseSeq:       c.base,
	}
	res.TotalMs = float64(time.Since(start)) / float64(time.Millisecond)
	// Every subnet's backward passes through every stage, so any local
	// stage's backward counter measures completion; the minimum is the
	// conservative one for the deadlock verdict. A dist worker without
	// stage 0 still reports n here on a clean finish — the coordinator
	// takes the authoritative count from the stage-0 owner.
	res.Completed = n
	for _, s := range c.stages {
		if s != nil && s.bwdDone < res.Completed {
			res.Completed = s.bwdDone
		}
	}
	res.Deadlock = res.Completed < n
	res.Contention = make([]metrics.StageContention, w.D)
	for k, s := range c.stages {
		res.Contention[k] = metrics.StageContention{Stage: k}
		if s != nil { // the scheduler is this run's own: its counters are this run's
			_, empty := s.sched.Stats()
			s.cont.BlockedScans = int64(empty)
			res.Contention[k] = s.cont
		}
	}
	c.collectCacheStats(&res)
	if res.TotalMs > 0 {
		res.SubnetsPerHour = float64(res.Completed) / (res.TotalMs / 3.6e6)
	}
	if c.obs != nil {
		res.ObservedTrace = c.obs
		res.Trace = CanonicalTrace(w)
		if cfg.Dist != nil {
			// A dist worker observes only its local stages; its reference
			// is the canonical trace filtered to them. Partitions are
			// per-subnet, so a layer can straddle workers across subnets —
			// this local check is necessary but not sufficient, and the
			// coordinator's merged-trace verification is the full one.
			res.Trace = FilterTrace(res.Trace, cfg.Dist.Stages)
		}
	}
	if c.tel != nil {
		// The first real concurrent-plane spans: reconstructed from the
		// event stream, so timeline/figure renderers work on both planes.
		res.Spans = SpansFromEvents(c.tel.Events())
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if cause := context.Cause(runCtx); cause != nil && cause != errLostWakeup {
		// A failure aborts the run, as the process death an injected crash
		// models: the partial result (the committed prefix is in the
		// recorder) returns with the typed error so callers can resume.
		return res, cause
	}
	if res.Deadlock {
		// The lost-wake-up check stopped the run (a completed run ignores
		// it). Safe to read stage state directly: wg.Wait above is the
		// happens-before edge.
		stall := &StallError{Completed: res.Completed, Total: n}
		for _, s := range c.stages {
			if s != nil {
				stall.Stages = append(stall.Stages, c.healthOf(s, false))
			}
		}
		return res, stall
	}
	if c.obs != nil && !c.obs.PerLayerEqual(res.Trace) {
		return res, fmt.Errorf("engine: concurrent execution violated CSP: observed per-layer access order diverges from the sequential reference")
	}
	return res, nil
}

// collectCacheStats folds each stage cache's counters into the result's
// per-stage and aggregate memory fields.
func (c *ccRun) collectCacheStats(res *Result) {
	res.CacheHitRate = -1 // no cache, or no accesses: N/A
	if !c.cfg.ConcurrentMem.Enabled() {
		return
	}
	res.CacheStats = make([]metrics.StageCache, c.w.D)
	var hits, misses int
	var budget int64
	for k, s := range c.stages {
		if s == nil {
			res.CacheStats[k] = metrics.StageCache{Stage: k}
			continue
		}
		st := s.cache.Stats()
		res.CacheStats[k] = metrics.StageCache{Stage: k, Stats: st}
		hits += st.Hits
		misses += st.Misses
		res.StallMs += st.StallMs
		res.DroppedPrefetches += st.DroppedPrefetches
		budget += s.cache.Capacity()
	}
	if hits+misses > 0 {
		res.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	res.CachedParamBytes = budget
	res.CPUMemBytes = c.w.Net.TotalParamBytes()
}

// requestFetch prefetches subnet seq's partition into stage s's cache on
// the calling goroutine: s's own (arrival, refill, predictor) or a
// neighbour's (context push). It never blocks — a copy is a deadline on
// the cache's modelled channel — so on return the context is resident or
// in flight. An injected prefetch-copy failure abandons the fetch and
// counts it as dropped: the later Acquire fetches synchronously, a stall,
// never a hang. Keyed by (stage, global seq), every requester of the same
// fetch fails consistently.
func (c *ccRun) requestFetch(s *ccStage, seq int) {
	if s.cache == nil {
		return
	}
	if c.inj != nil && c.inj.FetchFails(s.k, s.base+seq) {
		s.telFault(telemetry.OpFaultFetch, s.base+seq, telemetry.KindNone, 0)
		s.cache.NoteDropped()
		return
	}
	for _, id := range c.w.stageIDs[seq][s.k] {
		s.cache.Prefetch(id, c.bytesOf(id))
	}
}

// stageLoop is the body of one stage goroutine: drain inputs, run the
// highest-priority admissible task, park when nothing is runnable.
func (c *ccRun) stageLoop(s *ccStage) {
	// The flush pairs with RunConcurrent's wg.Wait before it reads the
	// bus: no batched event may outlive its producer goroutine.
	defer s.telb.Flush()
	defer c.enterIdle() // a stage that leaves its loop stays idle
	n := len(c.w.Subnets)
	for s.fwdDone < n || s.bwdDone < n {
		select { // lock-free, unlike runCtx.Err()
		case <-c.done:
			return
		default:
		}
		c.drain(s)
		if s.k == 0 {
			c.refill(s, n)
		}
		// Backward tasks always run first (§3.2): they retire dependencies
		// and widen every stage's schedulable set.
		if c.runBackward(s) {
			continue
		}
		if c.runForward(s) {
			continue
		}
		// Nothing admissible: park until an input or notification arrives.
		// The health publish keeps the probe's view of queue/block state
		// fresh while idle without counting as progress. Parking is the
		// natural batch boundary: flush so observers (debug snapshots, an
		// overlapping reader) see a quiet stage's events promptly.
		s.telb.Flush()
		c.publishHealth(s, false, false)
		s.cont.Parks++
		c.enterIdle()
		select {
		case m := <-s.in:
			c.leaveIdle()
			c.receive(s, m)
		case <-c.done:
			c.leaveIdle()
			return
		}
	}
}

// enterIdle puts a stage about to block, or one that left its loop, into
// the idle set; leaveIdle takes a woken stage out before it processes the
// message that woke it. When the last stage enters and every delivery
// handed to the transport has been processed, no stage can ever run
// again — only stage goroutines send, every other one is blocked, and a
// message taken off an inbox but not yet processed still counts as in
// flight — so the lost wake-up fails the run instead of hanging it. The
// counters need no atomics: owners write them outside the set, and they
// are summed only when every owner is inside it, ordered by idleMu. A
// fleet worker cannot see remote senders and a wedged stage never enters
// the set: both stay the supervision watchdog's to detect.
func (c *ccRun) enterIdle() {
	if !c.checkIdle {
		return
	}
	c.idleMu.Lock()
	defer c.idleMu.Unlock()
	if c.idle++; c.idle < c.w.D {
		return
	}
	sent, processed := 0, 0
	for _, s := range c.stages {
		sent, processed = sent+s.sent, processed+s.processed
	}
	if sent == processed {
		c.stop(errLostWakeup)
	}
}

func (c *ccRun) leaveIdle() {
	if c.checkIdle {
		c.idleMu.Lock()
		c.idle--
		c.idleMu.Unlock()
	}
}

// drain non-blockingly absorbs every message pending on the inbox.
func (c *ccRun) drain(s *ccStage) {
	for {
		select {
		case m := <-s.in:
			c.receive(s, m)
		default:
			return
		}
	}
}

// receive folds one inbox message into the stage's queues and scheduler.
func (c *ccRun) receive(s *ccStage, m transport.Msg) {
	switch m.Type {
	case transport.FrameFwd:
		c.acceptFwd(s, m.Seq)
	case transport.FrameBwd:
		c.acceptBwd(s, m.Seq, m.Carried)
	case transport.FrameNote:
		s.cont.Notes++
		s.apply(m.Seq, m.IDs, m.Finished)
	case transport.FrameFetch:
		c.requestFetch(s, m.Seq)
	}
	s.processed++
}

// acceptFwd queues an activation arrival and prefetches its context (the
// simulator's prefetch-on-arrival). Under fault injection, duplicated
// deliveries are dropped here before any side effect.
func (c *ccRun) acceptFwd(s *ccStage, seq int) {
	if s.seenFwd != nil {
		if s.seenFwd[seq] {
			return
		}
		s.seenFwd[seq] = true
	}
	s.fwdQ = append(s.fwdQ, seq)
	s.telFlow(telemetry.OpTransferRecv, telemetry.PhaseFlowEnd, seq, telemetry.KindForward, s.k-1)
	s.telTask(telemetry.OpTaskAdmit, telemetry.PhaseInstant, seq, telemetry.KindForward)
	c.requestFetch(s, seq)
}

// acceptBwd queues a gradient arrival, stashes the pending-backward
// records it carried from downstream (Algorithm 3 lines 10–11) for the
// predictor, and prefetches the backward's context.
func (c *ccRun) acceptBwd(s *ccStage, seq int, carried []csp.PendingBackward) {
	if s.seenBwd != nil {
		if s.seenBwd[seq] {
			return
		}
		s.seenBwd[seq] = true
	}
	s.bwdReady = append(s.bwdReady, seq)
	s.telFlow(telemetry.OpTransferRecv, telemetry.PhaseFlowEnd, seq, telemetry.KindBackward, s.k+1)
	s.telTask(telemetry.OpTaskAdmit, telemetry.PhaseInstant, seq, telemetry.KindBackward)
	if len(carried) > 0 && s.carriedBy != nil {
		s.carriedBy[seq] = append(s.carriedBy[seq], carried...)
	}
	c.requestFetch(s, seq)
}

// apply folds a dependency release into the local scheduler: subnet
// seq's WRITE of ids has flushed on some stage; finished additionally
// marks the subnet's backward as having reached stage 0 (whole-subnet
// retirement, which advances the elimination frontier).
func (s *ccStage) apply(seq int, ids []supernet.LayerID, finished bool) {
	s.sched.MarkWritten(seq, ids)
	if finished {
		s.sched.MarkFinished(seq)
	}
}

// refill keeps stage 0's forward queue stocked from the exploration
// stream, bounded by the inflight window (retrieve() of Algorithm 1). Only
// the near-term retrievals are prefetched: the inflight window is wider
// than the cache budget, and prefetching all of it would LRU-evict exactly
// the contexts needed soonest. Later retrievals are fetched by the
// predictor's forward forecast as execution approaches them.
func (c *ccRun) refill(s *ccStage, n int) {
	for s.retrieved < n && s.retrieved-s.bwdDone < c.cfg.InflightLimit {
		s.fwdQ = append(s.fwdQ, s.retrieved)
		s.telTask(telemetry.OpTaskAdmit, telemetry.PhaseInstant, s.retrieved, telemetry.KindForward)
		if s.retrieved-s.fwdDone < 2 {
			c.requestFetch(s, s.retrieved)
		}
		s.retrieved++
	}
}

// bytesOf sizes a layer for the stage caches.
func (c *ccRun) bytesOf(id supernet.LayerID) int64 {
	return c.w.Net.Meta[id].ParamBytes
}

// healthOf captures one stage's current scheduler state for the health
// probe and the stall report. Reads only stage-goroutine-owned fields
// (plus the thread-safe cache), so it is valid from the owning
// goroutine during the run and from RunConcurrent after wg.Wait.
func (c *ccRun) healthOf(s *ccStage, wedged bool) StageHealth {
	h := StageHealth{
		Stage: s.k, FwdDone: s.fwdDone, BwdDone: s.bwdDone,
		QueueLen: len(s.fwdQ), BwdQueueLen: len(s.bwdReady),
		BlockedHead: -1, OwnerSubnet: -1,
		LastTaskNs: s.lastTaskNs, Wedged: wedged,
	}
	if len(s.fwdQ) > 0 {
		head := s.fwdQ[0]
		h.BlockedHead = s.base + head
		if w := s.sched.BlockingWriter(head); w >= 0 {
			h.OwnerSubnet = s.base + w
		}
	}
	if s.cache != nil {
		h.CacheResidentBytes = s.cache.Used()
	}
	return h
}

// publishHealth pushes the stage's state into the health probe;
// taskDone stamps the completion and bumps the probe's monotone
// progress counter — parks and queue churn never count as progress.
func (c *ccRun) publishHealth(s *ccStage, taskDone, wedged bool) {
	if c.probe == nil {
		return
	}
	if taskDone {
		s.lastTaskNs = time.Now().UnixNano()
	}
	c.probe.publish(c.healthOf(s, wedged), taskDone)
}

// maybeWedge consults the fault plane's targeted wedge at a task
// boundary — same site discipline as maybeCrash — and, when it fires,
// hangs the stage goroutine until the run context ends (cancellation or
// another stage's failure). It models a stuck kernel or lost collective
// rather than a death: no state is corrupted, no progress is made, and
// nothing inside the engine will ever unwedge it — detection is the
// supervision watchdog's job (or the caller's ctx deadline).
func (c *ccRun) maybeWedge(s *ccStage, seq int, kind int8) bool {
	if c.inj == nil || !c.inj.WedgeAt(s.k, s.base+seq, kind) {
		return false
	}
	s.telFault(telemetry.OpFaultWedge, s.base+seq, kind, int64(c.inj.Incarnation()))
	// The goroutine is about to hang until cancellation: flush the batch
	// now, or up to batcherCap already-completed span events stay
	// invisible to mid-run observers (the watchdog's debug snapshot) for
	// the whole stall — exactly when they matter most.
	s.telb.Flush()
	c.publishHealth(s, false, true)
	<-c.done
	return true
}

// maybeCrash consults the fault plane at a task boundary — after the
// task is selected, before any of its side effects (trace emission,
// scheduler state, cache locks) — and, when the injector says so, kills
// the run: the typed error becomes the run's cause, then the crash event
// is recorded (whoever sees it knows the run is stopping), and every
// stage goroutine unwinds at its next loop check or park, modeling a
// process death whose durable state is exactly the recorder's last cut.
func (c *ccRun) maybeCrash(s *ccStage, seq int, kind int8) bool {
	if c.inj == nil || !c.inj.CrashAt(s.k, s.base+seq, kind) {
		return false
	}
	c.stop(&fault.CrashError{
		Stage: s.k, Seq: s.base + seq, Kind: kind,
		Incarnation: c.inj.Incarnation(),
	})
	s.telFault(telemetry.OpFaultCrash, s.base+seq, kind, int64(c.inj.Incarnation()))
	return true
}

// transport delivers one cross-stage message through the fault plane.
// deliver must not block (sendFwd/sendBwd never do) and is invoked once,
// twice (Duplicate), or after a wait (Delay). A Drop burns one bounded
// retry with exponential backoff; when retries are exhausted the message
// escalates to the reliable path and delivers — faults slow the
// pipeline, they never wedge it.
func (c *ccRun) transport(s *ccStage, kind int8, seq int, deliver func()) {
	if c.inj == nil {
		deliver()
		return
	}
	gseq := s.base + seq
	for attempt := 0; ; attempt++ {
		v := c.inj.Message(kind, s.k, gseq, attempt)
		if v.Action == fault.Drop && attempt >= c.inj.MaxRetries() {
			v.Action = fault.Deliver
		}
		switch v.Action {
		case fault.Drop:
			s.telFault(telemetry.OpFaultDrop, gseq, kind, int64(attempt))
			clock.Sleep(c.inj.Backoff(attempt))
			continue
		case fault.Delay:
			s.telFault(telemetry.OpFaultDelay, gseq, kind, int64(v.Wait))
			clock.Sleep(v.Wait)
			deliver()
		case fault.Duplicate:
			s.telFault(telemetry.OpFaultDup, gseq, kind, 0)
			deliver()
			deliver()
		default:
			deliver()
		}
		return
	}
}

// snapshotCut hands the stage-0 backward frontier to the checkpoint
// recorder when it advanced: subnets below the frontier are fully
// retired — their WRITEs are in the committed sequential prefix — so
// (frontier, finished-gaps) is a crash-consistent cut. Called only by
// the stage-0 goroutine, after the frontier-advancing self-apply, so the
// recorder must not block on I/O here (fault.FileRecorder group-commits
// on its own goroutine); OpCheckpoint means committed, not durable.
func (c *ccRun) snapshotCut(s *ccStage) {
	if c.rec == nil {
		return
	}
	f := s.sched.Frontier()
	if f <= c.lastCut && c.lastCut != 0 {
		return
	}
	c.lastCut = f
	cut := fault.Cut{Cursor: c.base + f}
	for _, seq := range s.sched.FinishedSeqs() {
		cut.Finished = append(cut.Finished, c.base+seq)
	}
	if err := c.rec.Snapshot(cut); err != nil {
		c.stop(fmt.Errorf("engine: checkpoint recorder: %w", err))
		return
	}
	s.telFault(telemetry.OpCheckpoint, c.base+f, telemetry.KindNone, int64(c.base+f))
}

// runBackward executes the lowest-sequence ready backward, emits its
// WRITEs, and broadcasts the dependency release. Returns false if no
// backward is ready.
func (c *ccRun) runBackward(s *ccStage) bool {
	if len(s.bwdReady) == 0 {
		return false
	}
	best := 0
	for i := 1; i < len(s.bwdReady); i++ {
		if s.bwdReady[i] < s.bwdReady[best] {
			best = i
		}
	}
	seq := s.bwdReady[best]
	if c.maybeWedge(s, seq, telemetry.KindBackward) {
		return true
	}
	if c.maybeCrash(s, seq, telemetry.KindBackward) {
		return true
	}
	s.bwdReady = append(s.bwdReady[:best], s.bwdReady[best+1:]...)
	ids := c.w.stageIDs[seq][s.k]
	if s.tel != nil {
		s.telb.Emit(telemetry.Event{
			Op: telemetry.OpSchedAdmit, Phase: telemetry.PhaseInstant,
			Stage: int32(s.k), Worker: telemetry.WorkerStage,
			Subnet: int32(s.base + seq), Kind: telemetry.KindBackward, Arg: int64(best),
		})
	}
	s.telTask(telemetry.OpTaskStart, telemetry.PhaseBegin, seq, telemetry.KindBackward)

	if s.pred != nil {
		// This backward is executing: any pending record forecasting it is
		// moot now. Then run Algorithm 3's backward call site with the
		// records this gradient carried from downstream.
		s.pred.Retire(seq)
		carried := s.carriedBy[seq]
		delete(s.carriedBy, seq)
		for _, f := range s.pred.OnBackward(s.fwdQ, seq, carried) {
			c.requestFetch(s, f.Seq)
		}
	}
	if s.k > 0 {
		// Cross-stage context push (§3.3) before this task's own acquire, as
		// in the simulator's admit: upstream runs this subnet's backward next,
		// and its copy hides behind this stage's stall, compute and transfer.
		c.pushFetch(s, s.k-1, seq)
	}
	if s.cache != nil {
		s.cache.AcquireFor(ids, c.bytesOf, int32(s.base+seq), telemetry.KindBackward)
	}
	c.compute(seq, s.k, task.Backward)
	// The WRITE must be visible in the trace before any dependent learns
	// of the release: append first, notify after. The channel send/receive
	// pair then carries the happens-before edge to every dependent READ.
	c.emit(ids, seq, s.k, trace.Write)
	finished := s.k == 0
	s.apply(seq, ids, finished)
	if finished {
		c.snapshotCut(s)
		if c.probe != nil {
			c.probe.advanceFrontier(c.base + s.sched.Frontier())
		}
	}
	c.broadcastNote(s, seq, ids, finished)
	if s.k > 0 {
		s.telFlow(telemetry.OpTransferSend, telemetry.PhaseFlowBegin, seq, telemetry.KindBackward, s.k)
		carried := s.pendingCarry()
		c.transport(s, telemetry.KindBackward, seq, func() { c.sendBwd(s, seq, carried) })
	}
	if s.cache != nil {
		s.cache.Release(ids)
		// The subnet's backward has flushed here: its context is finished
		// on this stage and leaves the cache (the paper's eviction of
		// finished contexts).
		s.cache.Evict(ids)
	}
	s.telTask(telemetry.OpTaskComplete, telemetry.PhaseEnd, seq, telemetry.KindBackward)
	s.bwdDone++
	s.cont.Tasks++
	c.publishHealth(s, true, false)
	return true
}

// pendingCarry collects the pending-backward records this stage announces
// upstream with a gradient transfer (Algorithm 3 lines 10–11): every
// queued forward currently blocked by an unfinished earlier writer, each
// announced at most once.
func (s *ccStage) pendingCarry() []csp.PendingBackward {
	if s.pred == nil {
		return nil
	}
	var carry []csp.PendingBackward
	for _, q := range s.fwdQ {
		if s.announced[q] {
			continue
		}
		if w := s.sched.BlockingWriter(q); w >= 0 {
			s.announced[q] = true
			carry = append(carry, csp.PendingBackward{Seq: q, Precedence: w})
		}
	}
	s.cont.Carried += int64(len(carry))
	return carry
}

// runForward admits the first CSP-admissible queued forward (Algorithm 2),
// emits its READs, and forwards the activation downstream. Returns false
// if the queue is empty or every queued subnet is blocked.
func (c *ccRun) runForward(s *ccStage) bool {
	if len(s.fwdQ) == 0 {
		return false
	}
	qidx, seq := s.sched.Schedule(s.fwdQ)
	if qidx < 0 {
		if s.tel != nil {
			// Every queued forward is CSP-blocked (Algorithm 2): attribute
			// the delay to the queue head and the writer blocking it, once
			// per distinct (head, writer) episode rather than per rescan.
			head := s.fwdQ[0]
			writer := s.sched.BlockingWriter(head)
			if head != s.lastDelaySeq || writer != s.lastDelayWriter {
				s.lastDelaySeq, s.lastDelayWriter = head, writer
				gwriter := int64(writer)
				if writer >= 0 {
					gwriter = int64(s.base + writer)
				}
				s.telb.Emit(telemetry.Event{
					Op: telemetry.OpSchedDelay, Phase: telemetry.PhaseInstant,
					Stage: int32(s.k), Worker: telemetry.WorkerStage,
					Subnet: int32(s.base + head), Kind: telemetry.KindForward,
					Arg: gwriter,
				})
			}
		}
		return false
	}
	if c.maybeWedge(s, seq, telemetry.KindForward) {
		return true
	}
	if c.maybeCrash(s, seq, telemetry.KindForward) {
		return true
	}
	s.lastDelaySeq, s.lastDelayWriter = -1, -1
	s.fwdQ = append(s.fwdQ[:qidx], s.fwdQ[qidx+1:]...)
	ids := c.w.stageIDs[seq][s.k]
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Op: telemetry.OpSchedAdmit, Phase: telemetry.PhaseInstant,
			Stage: int32(s.k), Worker: telemetry.WorkerStage,
			Subnet: int32(s.base + seq), Kind: telemetry.KindForward, Arg: int64(qidx),
		})
	}
	s.telTask(telemetry.OpTaskStart, telemetry.PhaseBegin, seq, telemetry.KindForward)
	if s.pred != nil {
		// Algorithm 3's forward call site: release pending backwards whose
		// precedence this forward satisfies, and forecast the next
		// schedulable forward.
		for _, f := range s.pred.OnForward(s.fwdQ, seq) {
			c.requestFetch(s, f.Seq)
		}
	}
	if s.k < c.w.D-1 {
		// Cross-stage context push (§3.3), forward direction.
		c.pushFetch(s, s.k+1, seq)
	}
	if s.cache != nil {
		s.cache.AcquireFor(ids, c.bytesOf, int32(s.base+seq), telemetry.KindForward)
	}
	// The READ happens at admission — after the CSP check, before compute —
	// mirroring the simulator's context-acquire semantics.
	c.emit(ids, seq, s.k, trace.Read)
	c.compute(seq, s.k, task.Forward)
	if s.cache != nil {
		s.cache.Release(ids)
	}
	if s.k < c.w.D-1 {
		s.telFlow(telemetry.OpTransferSend, telemetry.PhaseFlowBegin, seq, telemetry.KindForward, s.k)
	}
	s.telTask(telemetry.OpTaskComplete, telemetry.PhaseEnd, seq, telemetry.KindForward)
	if s.k < c.w.D-1 {
		c.transport(s, telemetry.KindForward, seq, func() { c.sendFwd(s, seq) })
	} else {
		// Loss computed: the backward is immediately ready locally.
		s.bwdReady = append(s.bwdReady, seq)
	}
	s.fwdDone++
	s.cont.Tasks++
	c.publishHealth(s, true, false)
	return true
}

// ccStraggleUnit is the wall-clock cost of one unit of excess stage
// slowness on the concurrent plane: a stage with speed factor s sleeps
// (s−1)·ccStraggleUnit per task, making a declared straggler a real
// wall-clock one: clock.Sleep resolves a wait a Go timer rounds up to 1 ms.
const ccStraggleUnit = 25 * time.Microsecond

// compute stands in for the stage's kernel work. With TimingJitter set it
// sleeps a deterministic pseudo-random duration (up to ~50µs scaled by the
// jitter magnitude) keyed by (JitterSeed, task) — real wall-clock
// perturbation, modeling foreign hardware exactly as the simulator's
// jitter does. StageSpeeds add a per-stage deterministic slowdown on
// top (heterogeneous clusters, stragglers). Without either it still
// yields to the Go scheduler so stage interleavings stay adversarial
// rather than lockstep.
func (c *ccRun) compute(seq, stage int, kind task.Kind) {
	var d time.Duration
	if c.cfg.TimingJitter > 0 {
		r := rng.Labeled(c.cfg.JitterSeed, fmt.Sprintf("ccjitter/%d/%d/%d", c.base+seq, stage, int(kind)))
		d = time.Duration(c.cfg.TimingJitter * r.Float64() * float64(50*time.Microsecond))
	}
	if sp := c.cfg.StageSpeed(stage); sp > 1 {
		d += time.Duration((sp - 1) * float64(ccStraggleUnit))
	}
	if d > 0 {
		clock.Sleep(d)
		return
	}
	runtime.Gosched()
}

// emit appends one access per layer to the observed trace, in stage-index
// order, under the collector lock.
func (c *ccRun) emit(ids []supernet.LayerID, seq, stage int, kind trace.AccessKind) {
	if c.obs == nil {
		return
	}
	c.mu.Lock()
	for _, id := range ids {
		c.obs.Append(0, id, c.base+seq, stage, kind)
	}
	c.mu.Unlock()
}

// CanonicalTrace builds the causal (sequential-reference) parameter-access
// order for a world: for each subnet in sequence order, its READs stage by
// stage downstream, then its WRITEs stage by stage back upstream — exactly
// the emission order of a sequential run, and the deterministic
// normalization of every CSP-compliant interleaving. The replay trainer
// consumes it directly.
func CanonicalTrace(w *World) *trace.Trace {
	tr := &trace.Trace{}
	for seq := range w.Subnets {
		for k := 0; k < w.D; k++ {
			for _, id := range w.stageIDs[seq][k] {
				tr.Append(0, id, w.SeqBase+seq, k, trace.Read)
			}
		}
		for k := w.D - 1; k >= 0; k-- {
			for _, id := range w.stageIDs[seq][k] {
				tr.Append(0, id, w.SeqBase+seq, k, trace.Write)
			}
		}
	}
	return tr
}
