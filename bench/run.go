package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"naspipe/internal/engine"
	"naspipe/internal/telemetry"
)

// Names of the child spans ops record around their calls into the
// program. Every workload names its executor call spanEngine so the
// engine.* layer metrics mean the same thing everywhere.
const (
	spanOp     = "op"
	spanEngine = "engine"
	spanReplay = "replay"
	spanSim    = "sim." // + policy name
)

// counters are the per-pass sums ops feed from Results and buses; the
// per-layer ratios are computed from them once the pass is over.
type counters struct {
	emitted, droppedEvents, schedDelays, transfers float64
	linkSends, linkRetransmits, linkReconnects     float64
	checkpoints                                    float64

	tasks, parks, blockedScans float64

	hits, misses, late, droppedPrefetch   float64
	forcedEvictions, swapInBytes, stallMs float64

	busyShare, idleShareMax []float64 // one sample per engine run with a bus

	restarts   float64
	recoveryMs []float64
}

// pass is one closed-loop run of ops: untraced (end-to-end metrics) or
// traced (bus attached, spans recorded).
type pass struct {
	workload string
	traced   bool

	opMs     []float64
	segments []segment
	child    map[string][]float64 // ms per child-span name, in op order
	spans    []span
	failures []string
	subnets  int // subnets checked by ops that passed
	start    time.Time
	use      usage // delta over the pass
	c        counters
}

// opRun is what one op sees: which stream to use, whether to attach
// buses, and where to put what it measures.
type opRun struct {
	id     int
	stream int
	pass   *pass
	buses  []*telemetry.Bus
}

// newBus returns a fresh bus for one call into the program when the
// pass is traced, nil (telemetry off) otherwise. The ring is sized from
// the call's subnet count so nothing drops (the busiest call, a fleet
// job, emits ~60 events per subnet).
func (o *opRun) newBus(subnets int) *telemetry.Bus {
	if !o.pass.traced {
		return nil
	}
	capacity := 128 * subnets
	if capacity < telemetry.DefaultCapacity {
		capacity = telemetry.DefaultCapacity
	}
	b := telemetry.NewBus(capacity)
	o.buses = append(o.buses, b)
	return b
}

// call times one call into the program as a child span of the op.
func (o *opRun) call(name string, f func() error) error {
	start := time.Now()
	err := f()
	end := time.Now()
	p := o.pass
	p.child[name] = append(p.child[name], ms(end.Sub(start)))
	if p.traced {
		p.spans = append(p.spans, span{
			Workload: p.workload, Op: o.id, Name: name, Parent: spanOp,
			StartNs: start.Sub(p.start).Nanoseconds(), EndNs: end.Sub(p.start).Nanoseconds(),
		})
	}
	return err
}

// countResult adds a concurrent run's scheduler and cache counters.
func (o *opRun) countResult(res engine.Result) {
	c := &o.pass.c
	for _, s := range res.Contention {
		c.tasks += float64(s.Tasks)
		c.parks += float64(s.Parks)
		c.blockedScans += float64(s.BlockedScans)
	}
	for _, s := range res.CacheStats {
		c.hits += float64(s.Hits)
		c.misses += float64(s.Misses)
		c.late += float64(s.LatePrefetches)
		c.droppedPrefetch += float64(s.DroppedPrefetches)
		c.forcedEvictions += float64(s.EvictionsForced)
		c.swapInBytes += float64(s.SwapInBytes)
		c.stallMs += s.StallMs
	}
}

// absorb folds the op's buses into the pass counters. It runs after the
// op's end timestamp, so reading the rings is not charged to the op.
func (o *opRun) absorb() {
	c := &o.pass.c
	for _, b := range o.buses {
		s := b.Snapshot()
		c.emitted += float64(s.Emitted)
		c.droppedEvents += float64(s.Dropped)
		c.schedDelays += float64(s.SchedDelays)
		c.transfers += float64(b.Count(telemetry.OpTransferSend))
		c.linkSends += float64(s.LinkSends)
		c.linkRetransmits += float64(s.LinkRetransmits)
		c.linkReconnects += float64(s.LinkReconnects)
		c.checkpoints += float64(s.Checkpoints)
		if busy, idle, ok := stageShares(engine.SpansFromEvents(b.Events())); ok {
			c.busyShare = append(c.busyShare, busy)
			c.idleShareMax = append(c.idleShareMax, idle)
		}
	}
}

// stageShares reduces a run's task spans to the mean share of the run
// each stage spent inside a task, and the idle share of the idlest
// stage. A task's span runs from its first start to its completion, so
// preemption gaps and cache stalls count as busy.
func stageShares(spans []engine.TaskSpan) (busyMean, idleMax float64, ok bool) {
	if len(spans) == 0 {
		return 0, 0, false
	}
	lo, hi := spans[0].StartMs, spans[0].EndMs
	var busy []float64
	for _, s := range spans {
		for s.Task.Stage >= len(busy) {
			busy = append(busy, 0)
		}
		busy[s.Task.Stage] += s.EndMs - s.StartMs
		if s.StartMs < lo {
			lo = s.StartMs
		}
		if s.EndMs > hi {
			hi = s.EndMs
		}
	}
	if hi <= lo {
		return 0, 0, false
	}
	least := busy[0]
	for _, b := range busy {
		if b < least {
			least = b
		}
	}
	return sum(busy) / (float64(len(busy)) * (hi - lo)), 1 - least/(hi-lo), true
}

// segment is one slice of a pass's window. The end-to-end metrics
// except op_ms_p90 are computed per segment and the reported value is
// the best segment's: on a shared host interference comes in episodes of
// seconds and only ever adds time, so whole-window statistics drift from
// run to run by the share of the window that was disturbed, while the
// calmest second repeats. Each segment is itself a median over its ops,
// so one lucky op cannot set the result (except on fleet-tcp, where a
// segment is one job). op_ms_p90 is the tail, which a best segment does
// not have: see tailMs.
type segment struct {
	opMs    []float64
	subnets int
	wall    time.Duration
	use     usage // delta over the segment
}

// minSegmentOps keeps a segment's median more than one of a handful.
const minSegmentOps = 10

func usageDelta(before, after usage) usage {
	return usage{
		mallocs: after.mallocs - before.mallocs, bytes: after.bytes - before.bytes,
		gcPauseNs: after.gcPauseNs - before.gcPauseNs, cpu: after.cpu - before.cpu,
		maxRSSKB: after.maxRSSKB,
	}
}

// runPass drives ops one at a time until both minOps ops have run and
// the window has elapsed. Op ids continue from firstID so spans of
// different passes never share one. A segment closes once it holds a
// second and minSegmentOps ops, or a quarter of the window, so slow ops
// still give four segments to pick the calmest from (a fleet-tcp job
// takes a third of a 10 s window: each is a segment of its own).
func runPass(w workload, in *instance, traced bool, window time.Duration, minOps, firstID int) *pass {
	p := &pass{workload: w.name, traced: traced, child: map[string][]float64{}}
	before := readUsage()
	p.start = time.Now()
	seg, segStart, segBefore := segment{}, p.start, before
	for n := 0; n < minOps || time.Since(p.start) < window; n++ {
		o := &opRun{id: firstID + n, stream: (firstID + n) % streams, pass: p}
		start := time.Now()
		err := in.op(o)
		end := time.Now()
		p.opMs = append(p.opMs, ms(end.Sub(start)))
		seg.opMs = append(seg.opMs, ms(end.Sub(start)))
		if traced {
			p.spans = append(p.spans, span{
				Workload: w.name, Op: o.id, Name: spanOp,
				StartNs: start.Sub(p.start).Nanoseconds(), EndNs: end.Sub(p.start).Nanoseconds(),
			})
		}
		if err != nil {
			p.failures = append(p.failures, fmt.Sprintf("%s op %d (stream %d): %v", w.name, o.id, o.stream, err))
		} else {
			p.subnets += in.subnets
			seg.subnets += in.subnets
		}
		if el := end.Sub(segStart); el >= window/4 || (el >= time.Second && len(seg.opMs) >= minSegmentOps) {
			now := readUsage()
			seg.wall, seg.use = el, usageDelta(segBefore, now)
			p.segments = append(p.segments, seg)
			seg, segStart, segBefore = segment{}, time.Now(), now
		}
		o.absorb()
	}
	p.use = usageDelta(before, readUsage())
	return p
}

// maxSetups bounds how often a cheap set-up is repeated to fill
// params.setupFill, so its median rests on more than three draws.
const maxSetups = 15

// params sizes one workload run.
type params struct {
	seed    uint64
	seconds float64 // timed window of the untraced pass when e2e is on
	minOps  int     // every pass runs at least this many ops
	setups  int     // least set-up repetitions; setup_s is their median
	// setupFill keeps repeating a cheap set-up (up to maxSetups times)
	// until this much time has gone into set-up.
	setupFill time.Duration
	small     bool   // smoke-test sizes
	e2e       bool   // report end-to-end metrics
	layers    bool   // run the traced pass and the standalone probes
	tmp       string // where temp dirs go (inside the checkout)
}

// result is one workload's outcome: what the ledger stores and the
// driver line is cut from.
type result struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Ops       int      `json:"timed_ops"`
	Subnets   int      `json:"subnets_per_op"`
	EndToEnd  metrics  `json:"end_to_end,omitempty"`
	PerLayer  metrics  `json:"per_layer,omitempty"`

	spans []span
}

func (r *result) fail(msg string) {
	r.Failed++
	r.Failures = append(r.Failures, msg)
}

// FailedShare is failed_ops_share: ops that errored, timed out,
// mis-verified or saw the wrong restart count, over ops attempted.
func (r *result) FailedShare() float64 { return float64(r.Failed) / float64(r.Attempted) }

// goroutinesSettled waits for goroutines the workload's last op left
// winding down and returns how many remain above the baseline.
func goroutinesSettled(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine() - base; n > 0 {
		return n
	}
	return 0
}

// runWorkload sets the workload up, runs its passes and probes, and
// reduces them to metrics. Errors are set-up failures; failed ops are
// counted in the result instead.
func runWorkload(w workload, pr params) (*result, error) {
	goroutines := runtime.NumGoroutine()
	dir, err := os.MkdirTemp(pr.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up, including one untimed warm-up op, repeated so setup_s is a
	// median and not one draw.
	var in *instance
	var setupS []float64
	warm := &pass{workload: w.name, child: map[string][]float64{}}
	knownLeaks := 0 // of instances already replaced
	setupStart := time.Now()
	for i := 0; i < pr.setups || (i < maxSetups && time.Since(setupStart) < pr.setupFill); i++ {
		if in != nil {
			knownLeaks += in.knownLeaks
		}
		start := time.Now()
		if in, err = w.setup(pr.seed, pr.small, dir); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if err := in.op(&opRun{id: -1, pass: warm}); err != nil {
			return nil, fmt.Errorf("%s: warm-up op: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	res := &result{Workload: w.name, Subnets: in.subnets}
	window := time.Duration(pr.seconds * float64(time.Second))
	untracedWindow, tracedWindow := window, window/4
	if !pr.e2e {
		untracedWindow, tracedWindow = window/4, window/2
	}
	untraced := runPass(w, in, false, untracedWindow, pr.minOps, 0)
	res.Attempted, res.Ops = len(untraced.opMs), len(untraced.opMs)
	res.Failed, res.Failures = len(untraced.failures), untraced.failures
	if pr.e2e {
		res.EndToEnd = endToEnd(untraced, median(setupS))
	}
	if pr.layers {
		traced := runPass(w, in, true, tracedWindow, pr.minOps, len(untraced.opMs))
		res.Attempted += len(traced.opMs)
		res.Failed += len(traced.failures)
		res.Failures = append(res.Failures, traced.failures...)
		res.spans = traced.spans
		res.PerLayer = perLayer(in, untraced, traced)
		if err := in.probes(res.PerLayer); err != nil {
			res.fail(fmt.Sprintf("%s probes: %v", w.name, err))
		}
	}
	// Only goroutines beyond the instance's documented allowance fail the
	// workload; the metric reports all of them.
	excess := goroutinesSettled(goroutines + knownLeaks + in.knownLeaks)
	if pr.layers {
		res.PerLayer.set("process.goroutines_leaked", "count", math.Max(0, float64(runtime.NumGoroutine()-goroutines)))
		fillAbsent(res.PerLayer)
	}
	if excess > 0 {
		res.fail(fmt.Sprintf("%s: %d goroutines outlived the workload", w.name, excess))
	}
	return res, nil
}

// endToEnd reduces the untraced pass to the end-to-end metrics: each
// but op_ms_p90 is computed per segment and the best segment is reported
// (see segment). Segments in which every op failed carry no subnets and
// are skipped; the result is already marked incorrect.
func endToEnd(p *pass, setupS float64) metrics {
	per := map[string][]float64{}
	for _, s := range p.segments {
		if s.subnets == 0 {
			continue
		}
		sub := float64(s.subnets)
		per["subnets_per_s"] = append(per["subnets_per_s"], sub/s.wall.Seconds())
		per["op_ms_p50"] = append(per["op_ms_p50"], median(s.opMs))
		per["allocs_per_subnet"] = append(per["allocs_per_subnet"], float64(s.use.mallocs)/sub)
		per["bytes_per_subnet"] = append(per["bytes_per_subnet"], float64(s.use.bytes)/sub)
		per["cpu_ms_per_subnet"] = append(per["cpu_ms_per_subnet"], ms(s.use.cpu)/sub)
	}
	m := metrics{}
	for _, d := range endToEndDefs {
		switch {
		case d.Name == "setup_s":
			m.set(d.Name, d.Unit, setupS)
		case d.Name == "op_ms_p90":
			m.set(d.Name, d.Unit, tailMs(p.segments))
		case d.Better == higher:
			m.set(d.Name, d.Unit, quantile(per[d.Name], 1))
		default:
			m.set(d.Name, d.Unit, quantile(per[d.Name], 0))
		}
	}
	return m
}

// tailMs is op_ms_p90: the 90th percentile over the ops of the calmer
// half of the segments, ranked by their median op time. An episode of
// host interference slows every op of the segments it covers, raises
// their medians and drops them; an op that stalls by itself (a GC pause,
// an fsync hiccup, a teardown deadline) leaves its segment's median where
// it was and stays in the sample, so a stall that hits more than one op
// in ten shows whichever second it falls in. The p90 of the whole window
// was tried first and does not repeat on a shared host (see README.md).
func tailMs(segs []segment) float64 {
	var live []segment
	for _, s := range segs {
		if s.subnets > 0 {
			live = append(live, s)
		}
	}
	sort.Slice(live, func(i, j int) bool { return median(live[i].opMs) < median(live[j].opMs) })
	var ops []float64
	for _, s := range live[:(len(live)+1)/2] {
		ops = append(ops, s.opMs...)
	}
	return quantile(ops, 0.9)
}
