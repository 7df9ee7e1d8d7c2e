// The goroutine plane: the stage machines' driver on the wall clock.
//
// RunConcurrent *is* the runtime the simulator models, at Go scale: every
// pipeline stage is one goroutine running its stage machine with the CSP
// admission — the paper's decentralized synchronization (§3.3), no global
// clock, no central scheduler — and messages travel the one data path of
// dist.go. The driver runs each admitted task as one step (compute);
// what the simulator has no use for lives here alone: the fault plane,
// the health probe, the lost-wake-up check and the transport. With
// Config.ConcurrentMem each stage also owns a prefetching layer cache
// (internal/prefetch) that its machine's requests land in, applied by
// the requesting goroutine; a stall is one clock.Sleep inside Acquire.
// Prefetching moves data only — admission never consults the cache.
// Events go to the caller's bus, Config.Telemetry, and nowhere else: the
// plane builds no bus and reads none back, so Result.Spans stays nil and
// a caller wanting a timeline derives it with SpansFromEvents over its
// own bus.
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
	"naspipe/internal/prefetch"
	"naspipe/internal/rng"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
	"naspipe/internal/trace"
	"naspipe/internal/transport"
)

// ccStage is one stage goroutine's private state around its machine.
// Only the owning goroutine touches it after the run starts; the cache is
// thread-safe and shared with the neighbouring stages' goroutines (a
// context push); all other cross-stage communication arrives on the
// inbox.
type ccStage struct {
	k int
	m *stage

	// in is the stage's inbox, Transport.Recv(k): every activation,
	// gradient, notification and remote prefetch push addressed to it.
	in <-chan transport.Msg

	// seen dedups duplicated fault-plane deliveries of activations and
	// gradients (nil when fault injection is off; with it on, the injector
	// bounds deliveries per message at two).
	seen map[delivery]bool

	cache *prefetch.Cache // nil when ConcurrentMem is disabled

	lastTaskNs int64 // wall-clock ns of the last completed task (health probe)

	// sent counts messages handed to the transport, processed the inbox
	// messages folded in: the lost-wake-up check's ledger (enterIdle).
	sent, processed int

	cont StageContention

	tel *telemetry.Bus // nil = telemetry disabled
	// telb batches this stage goroutine's own events (task lifecycle,
	// scheduler decisions, transfer endpoints), amortizing the bus lock to
	// one acquisition per flush. Single-producer by construction: only the
	// stage goroutine emits through it. Events that other goroutines may
	// emit on this stage's behalf (fault-plane prefetch failures, cache
	// traffic) go straight to tel. Flushed at parks, at wedge/crash/
	// cancel boundaries, and on loop exit — before anyone reads the bus.
	telb *telemetry.Batcher
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
	csp    *CSP       // the stages' admission: one scheduler per local stage
	stages []*ccStage // indexed by stage; nil for stages remote to this process
	base   int        // Config.SeqBase

	tp     transport.Transport // all cross-stage traffic (see dist.go)
	routes noteRoutes          // where each write note goes

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
// cache disabled the memory fields stay zero and CacheHitRate is -1.
// Spans stays nil: task spans are events on Config.Telemetry.
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
	pol := NewCSP(true)
	w, err := NewWorld(cfg, pol.Traits().Partition)
	if err != nil {
		return Result{}, err
	}
	c := &ccRun{cfg: cfg, w: w, csp: pol, base: cfg.SeqBase, rec: cfg.Checkpoint, probe: cfg.Probe, routes: newNoteRoutes(w)}
	if cfg.Faults.Enabled() {
		c.inj, err = fault.NewInjector(*cfg.Faults, cfg.FaultIncarnation)
		if err != nil {
			return Result{}, fmt.Errorf("engine: %w", err)
		}
	}
	if cfg.RecordTrace {
		c.obs = &trace.Trace{}
	}
	n, tel := len(w.Subnets), cfg.Telemetry
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
	if err := pol.init(w, local); err != nil {
		return Result{}, err
	}
	tr := ccTraits(mem)
	c.stages = make([]*ccStage, w.D) // nil = runs in another process, behind the transport
	for _, k := range local {
		s := &ccStage{
			k:    k,
			m:    newStage(k, w, pol, c, tr, cfg.InflightLimit, tel != nil),
			in:   c.tp.Recv(k),
			cont: StageContention{Stage: k},
			tel:  tel,
			telb: telemetry.NewBatcher(tel),
		}
		if c.inj != nil {
			s.seen = make(map[delivery]bool, 2*n)
		}
		if mem.Enabled() {
			s.cache = prefetch.New(w.cacheCapacity(k, mem.CacheFactor), cfg.Spec.PCIeBytesPerMs, mem.FetchMsScale).WithTelemetry(tel, int32(k))
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
		Policy: pol.Traits().Name, Space: cfg.Space.Name, D: w.D,
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
		if s != nil && s.m.bwdDone < res.Completed {
			res.Completed = s.m.bwdDone
		}
	}
	res.Deadlock = res.Completed < n
	res.Contention = make([]StageContention, w.D)
	for k, s := range c.stages {
		res.Contention[k] = StageContention{Stage: k}
		if s != nil { // the scheduler is this run's own: its counters are this run's
			_, empty := pol.scheds[k].Stats()
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
	res.CacheStats = make([]StageCache, c.w.D)
	var hits, misses int
	var budget int64
	for k, s := range c.stages {
		if s == nil {
			res.CacheStats[k] = StageCache{Stage: k}
			continue
		}
		st := s.cache.Stats()
		res.CacheStats[k] = StageCache{Stage: k, Stats: st}
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
// the calling goroutine: s's own (a gradient's arrival, a forecast) or a
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
	if c.inj != nil && c.inj.FetchFails(s.k, c.base+seq) {
		s.telFault(telemetry.OpFaultFetch, c.base+seq, telemetry.KindNone, 0)
		s.cache.NoteDropped()
		return
	}
	for _, id := range c.w.stageIDs[seq][s.k] {
		s.cache.Prefetch(id, c.w.bytesOf(id))
	}
}

// stageLoop is the body of one stage goroutine: drain inputs, run the
// machine's next admissible task, park when nothing is runnable.
func (c *ccRun) stageLoop(s *ccStage) {
	// The flush pairs with RunConcurrent's wg.Wait: every batched event
	// is on the caller's bus before the run returns.
	defer s.telb.Flush()
	defer c.enterIdle() // a stage that leaves its loop stays idle
	if s.k == 0 {
		s.m.refill()
	}
	for !s.m.done() {
		select { // lock-free, unlike runCtx.Err()
		case <-c.done:
			return
		default:
		}
		c.drain(s)
		if kind, idx := s.m.pick(true); idx >= 0 {
			c.run(s, kind, idx)
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

// run executes the task pick chose as one step: the fault plane's task
// boundary (a wedge or crash fires here, before any side effect), then
// admission, compute and completion.
func (c *ccRun) run(s *ccStage, kind csp.Kind, idx int) {
	seq, tk := s.m.queue(kind)[idx], telKind(kind)
	if c.maybeWedge(s, seq, tk) || c.maybeCrash(s, seq, tk) {
		return
	}
	t := s.m.admit(kind, idx)
	c.compute(seq, s.k, kind)
	s.m.complete(t)
	s.m.event(telemetry.OpTaskComplete, telemetry.PhaseEnd, seq, kind, 0)
	s.cont.Tasks++
	c.publishHealth(s, true, false)
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

// receive folds one inbox message into the stage's machine. Under fault
// injection, duplicated deliveries are dropped here before any side
// effect.
func (c *ccRun) receive(s *ccStage, m transport.Msg) {
	switch m.Type {
	case transport.FrameFwd, transport.FrameBwd:
		kind := csp.Forward
		if m.Type == transport.FrameBwd {
			kind = csp.Backward
		}
		if s.fresh(delivery{kind, m.Seq}) {
			s.m.arrive(kind, m.Seq, m.Carried)
		}
	case transport.FrameNote:
		s.cont.Notes++
		s.m.note(m.Seq, m.IDs, false)
	case transport.FrameFetch:
		c.requestFetch(s, m.Seq)
	}
	s.processed++
}

// delivery names one activation or gradient for the dedup set.
type delivery struct {
	kind csp.Kind
	seq  int
}

// fresh records d in the dedup set and reports whether it is new;
// without fault injection nothing arrives twice.
func (s *ccStage) fresh(d delivery) bool {
	if s.seen == nil {
		return true
	}
	if s.seen[d] {
		return false
	}
	s.seen[d] = true
	return true
}

// healthOf captures one stage's current scheduler state for the health
// probe and the stall report. Reads only stage-goroutine-owned fields
// (plus the thread-safe cache), so it is valid from the owning
// goroutine during the run and from RunConcurrent after wg.Wait.
func (c *ccRun) healthOf(s *ccStage, wedged bool) StageHealth {
	m := s.m
	h := StageHealth{
		Stage: s.k, FwdDone: m.fwdDone, BwdDone: m.bwdDone,
		QueueLen: len(m.fwdQ), BwdQueueLen: len(m.bwdReady),
		BlockedHead: -1, OwnerSubnet: -1,
		LastTaskNs: s.lastTaskNs, Wedged: wedged,
	}
	if len(m.fwdQ) > 0 {
		head := m.fwdQ[0]
		h.BlockedHead = c.base + head
		if w := m.pol.Blocker(s.k, head); w >= 0 {
			h.OwnerSubnet = c.base + w
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
	if c.inj == nil || !c.inj.WedgeAt(s.k, c.base+seq, kind) {
		return false
	}
	s.telFault(telemetry.OpFaultWedge, c.base+seq, kind, int64(c.inj.Incarnation()))
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
	if c.inj == nil || !c.inj.CrashAt(s.k, c.base+seq, kind) {
		return false
	}
	c.stop(&fault.CrashError{
		Stage: s.k, Seq: c.base + seq, Kind: kind,
		Incarnation: c.inj.Incarnation(),
	})
	s.telFault(telemetry.OpFaultCrash, c.base+seq, kind, int64(c.inj.Incarnation()))
	return true
}

// snapshotCut hands the stage-0 backward frontier to the checkpoint
// recorder when it advanced: subnets below the frontier are fully
// retired — their WRITEs are in the committed sequential prefix — so
// (frontier, finished-gaps) is a crash-consistent cut. Called only by
// the stage-0 goroutine, after the frontier-advancing self-note, so the
// recorder must not block on I/O here (fault.FileRecorder group-commits
// on its own goroutine); OpCheckpoint means committed, not durable.
func (c *ccRun) snapshotCut(s *ccStage) {
	sched := c.csp.scheds[0]
	if c.probe != nil {
		c.probe.advanceFrontier(c.base + sched.Frontier())
	}
	if c.rec == nil {
		return
	}
	f := sched.Frontier()
	if f <= c.lastCut && c.lastCut != 0 {
		return
	}
	c.lastCut = f
	cut := fault.Cut{Cursor: c.base + f}
	for _, seq := range sched.FinishedSeqs() {
		cut.Finished = append(cut.Finished, c.base+seq)
	}
	if err := c.rec.Snapshot(cut); err != nil {
		c.stop(fmt.Errorf("engine: checkpoint recorder: %w", err))
		return
	}
	s.telFault(telemetry.OpCheckpoint, c.base+f, telemetry.KindNone, int64(c.base+f))
}

// The goroutine plane's side of the driver interface (the data-path half
// — send, note, fetch — is in dist.go). Effects are stamped by the wall
// clock as they happen, so now is 0.

func (c *ccRun) now() float64 { return 0 }

// acquire opens the task's span and takes its context, sleeping out any
// stall inside AcquireFor.
func (c *ccRun) acquire(t csp.Task) float64 {
	s := c.stages[t.Stage]
	s.m.event(telemetry.OpTaskStart, telemetry.PhaseBegin, t.Subnet, t.Kind, 0)
	if s.cache != nil {
		s.cache.AcquireFor(c.w.stageIDs[t.Subnet][t.Stage], c.w.bytesOf, int32(c.base+t.Subnet), telKind(t.Kind))
	}
	return 0
}

// release unlocks the task's context; a backward's flushed context is
// finished on this stage and leaves the cache (the paper's eviction of
// finished contexts).
func (c *ccRun) release(t csp.Task) {
	if s := c.stages[t.Stage]; s.cache != nil {
		ids := c.w.stageIDs[t.Subnet][t.Stage]
		s.cache.Release(ids)
		if t.Kind == csp.Backward {
			s.cache.Evict(ids)
		}
	}
}

// access appends one access per layer to the observed trace, in
// stage-index order, under the collector lock. A WRITE lands here before
// any dependent learns of the release (the note goes out after), so the
// channel send/receive pair carries the happens-before edge to every
// dependent READ.
func (c *ccRun) access(k int, ids []supernet.LayerID, seq int, kind trace.AccessKind, _ float64) {
	if c.obs == nil {
		return
	}
	c.mu.Lock()
	for _, id := range ids {
		c.obs.Append(0, id, c.base+seq, k, kind)
	}
	c.mu.Unlock()
}

func (c *ccRun) emit(k int, ev telemetry.Event) { c.stages[k].telb.Emit(ev) }

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
func (c *ccRun) compute(seq, stage int, kind csp.Kind) {
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
