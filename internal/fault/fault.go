// Package fault is the deterministic fault-injection plane of the
// concurrent CSP executor, plus the crash-consistent checkpoint format
// the engine writes so an interrupted run can resume (checkpoint.go).
//
// Every fault decision — whether a stage crashes at a task boundary,
// whether a cross-stage message attempt is dropped, delayed, or
// duplicated, whether a prefetch copy fails — is drawn from a keyed
// rng substream (rng.Labeled) of the plan's seed, with the decision
// site (stage, global sequence ID, kind, attempt) and the restart
// incarnation folded into the label. Two consequences:
//
//  1. Reproducible chaos. A (plan, incarnation) pair yields the same
//     fault schedule on every run, every platform, and any GOMAXPROCS;
//     a failing fuzz sample is a seed, not a heisenbug.
//  2. Terminating recovery. Decisions are re-keyed per incarnation (the
//     restart epoch a checkpoint carries), so an injected crash cannot
//     deterministically re-fire at the same site forever: every resume
//     rolls a fresh schedule, and targeted one-shot crashes fire only
//     in incarnation 0.
//
// Faults perturb timing and delivery, never the causal schedule: CSP
// admission decisions do not consult the injector, so any run that
// survives its fault schedule still replays to the sequential reference
// (Definition 1) — which the schedule-fuzzing harness verifies
// mechanically.
package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"naspipe/internal/backoff"
	"naspipe/internal/rng"
)

// Task kinds, mirroring internal/telemetry without the import.
const (
	KindForward  int8 = 0
	KindBackward int8 = 1
)

// TaskRef names one task boundary on the concurrent plane: a (stage,
// global sequence ID, kind) triple. Used for targeted one-shot crashes.
type TaskRef struct {
	Stage int
	Seq   int  // global sequence ID (checkpoint-base offset included)
	Kind  int8 // KindForward or KindBackward
}

func (t TaskRef) String() string {
	k := "F"
	if t.Kind == KindBackward {
		k = "B"
	}
	return fmt.Sprintf("%d:%d:%s", t.Stage, t.Seq, k)
}

// StormEvent is one entry of a deterministic fault storm: a targeted
// crash (or wedge) pinned to a specific restart incarnation. Where the
// one-shot CrashTask fires only in incarnation 0, a storm schedules the
// whole outage sequence up front — entry k fires when incarnation k
// reaches its task boundary — so a multi-crash scenario has an exact,
// replayable restart count and recovery provably terminates once the
// last scheduled incarnation is past.
type StormEvent struct {
	Incarnation int
	Task        TaskRef
	Wedge       bool // hang instead of crash (watchdog fixture)
}

func (e StormEvent) String() string {
	return fmt.Sprintf("%d:%s", e.Incarnation, e.Task)
}

// Plan is a deterministic, seed-driven fault schedule. The zero value
// injects nothing; rates are per-decision probabilities in [0, 1].
type Plan struct {
	// Seed keys every fault decision's rng substream. Plans with equal
	// seeds and rates produce identical schedules at equal incarnations.
	Seed uint64

	// CrashRate is the probability that a stage goroutine crashes at any
	// given task boundary (checked once per admitted forward and once per
	// selected backward, before the task's side effects).
	CrashRate float64

	// CrashTask, when non-nil, crashes the named task boundary exactly
	// once — in incarnation 0 only, so the resumed run gets past it.
	CrashTask *TaskRef

	// WedgeTask, when non-nil, hangs the stage goroutine at the named
	// task boundary until its context is cancelled — the deterministic
	// deadlock fixture the supervision plane's watchdog is tested
	// against. Like CrashTask it fires in incarnation 0 only, so a
	// resume after the watchdog cuts a checkpoint gets past it.
	WedgeTask *TaskRef

	// Storm is a multi-incarnation targeted schedule: each entry fires
	// at its own incarnation's named task boundary (crash, or wedge when
	// Wedge is set). Unlike rate-based crashes — whose restart count
	// depends on which racing site rolls first — a storm's restart count
	// equals the number of incarnations it covers, exactly, on every
	// run; the scenario plane's scorecards depend on that.
	Storm []StormEvent

	// Message faults, applied per delivery attempt of every cross-stage
	// activation (forward) and gradient (backward) transfer. A dropped
	// attempt is retried with exponential backoff up to MaxRetries, after
	// which delivery escalates to the reliable path; a delayed attempt
	// sleeps up to MaxDelay before delivering; a duplicated message is
	// delivered twice (receivers dedup).
	DropRate  float64
	DelayRate float64
	DupRate   float64
	MaxDelay  time.Duration // 0 = default 200µs

	// FetchFailRate is the probability that a subnet's prefetch copy
	// fails on a stage: the fetch is abandoned and counted as a dropped
	// prefetch, so the later Acquire misses and fetches synchronously —
	// a slowdown, never a hang.
	FetchFailRate float64

	// Bounded-retry parameters for dropped messages.
	MaxRetries  int           // 0 = default 4
	BackoffBase time.Duration // 0 = default 50µs; doubles per retry
	BackoffMax  time.Duration // 0 = default 2ms; backoff ceiling

	// Transport-level faults, consulted by the multi-process transport
	// plane's links (the in-proc channel path has no wire to cut). In a
	// fleet they fire on the sending end of the worker-to-worker data
	// links, and a key's stage names the link's peer: linkdropat=2:10
	// drops the 10th data frame every worker sends to stage 2. The
	// coordinator's control links carry no faults.
	//
	// LinkDropRate is the probability that one data frame is discarded
	// at the sender before reaching the wire; the link's retransmit
	// timer resends it, exercising sequence-numbered recovery. Decisions
	// are keyed by (incarnation, stage, frame seqno), so a given frame
	// is dropped at most once and delivery always terminates.
	LinkDropRate float64
	// LinkDrops are targeted single-frame drops: each link whose peer is
	// the named stage discards exactly its AfterFrames-th data frame of
	// the named incarnation.
	LinkDrops []LinkEvent
	// Disconnects are targeted link cuts: each link whose peer is the
	// named stage is severed once it has sent AfterFrames data frames in
	// the named incarnation. The link's reconnect loop (shared backoff
	// policy) restores it and retransmits everything unacknowledged.
	Disconnects []LinkEvent
	// Partitions sever every link at once: each link cuts itself when
	// its own data-frame count reaches AfterFrames in the named
	// incarnation (Stage is ignored), so the whole mesh goes down
	// around the same point and must heal by reconnecting.
	Partitions []LinkEvent
}

// LinkEvent names one deterministic transport fault site: the links to
// a peer stage, after each has sent AfterFrames data frames, in one
// incarnation.
type LinkEvent struct {
	Incarnation int
	Stage       int
	AfterFrames int
}

func (e LinkEvent) String() string {
	return fmt.Sprintf("%d:%d:%d", e.Incarnation, e.Stage, e.AfterFrames)
}

// Default retry/delay parameters (see Plan field comments).
const (
	DefaultMaxDelay    = 200 * time.Microsecond
	DefaultMaxRetries  = 4
	DefaultBackoffBase = 50 * time.Microsecond
	DefaultBackoffMax  = 2 * time.Millisecond
)

// Enabled reports whether the plan injects any fault at all.
func (p *Plan) Enabled() bool {
	return p != nil && (p.CrashRate > 0 || p.CrashTask != nil || p.WedgeTask != nil ||
		len(p.Storm) > 0 ||
		p.DropRate > 0 || p.DelayRate > 0 || p.DupRate > 0 || p.FetchFailRate > 0 ||
		p.TransportEnabled())
}

// TransportEnabled reports whether the plan injects any transport-level
// fault (frame drops, link cuts, partitions). The engine's in-proc
// paths ignore these; only the transport plane's links consult them.
func (p *Plan) TransportEnabled() bool {
	return p != nil && (p.LinkDropRate > 0 || len(p.LinkDrops) > 0 ||
		len(p.Disconnects) > 0 || len(p.Partitions) > 0)
}

// Validate rejects out-of-range rates and negative durations.
func (p Plan) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"crash", p.CrashRate}, {"drop", p.DropRate}, {"delay", p.DelayRate},
		{"dup", p.DupRate}, {"fetchfail", p.FetchFailRate}, {"linkdrop", p.LinkDropRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	if p.DropRate+p.DelayRate+p.DupRate > 1 {
		return fmt.Errorf("fault: message rates sum to %v > 1 (drop %v + delay %v + dup %v)",
			p.DropRate+p.DelayRate+p.DupRate, p.DropRate, p.DelayRate, p.DupRate)
	}
	if p.MaxDelay < 0 || p.BackoffBase < 0 || p.BackoffMax < 0 {
		return fmt.Errorf("fault: negative duration in plan: maxdelay %v backoff %v/%v",
			p.MaxDelay, p.BackoffBase, p.BackoffMax)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("fault: negative MaxRetries %d", p.MaxRetries)
	}
	if t := p.CrashTask; t != nil {
		if t.Stage < 0 || t.Seq < 0 || (t.Kind != KindForward && t.Kind != KindBackward) {
			return fmt.Errorf("fault: malformed crash task %+v", *t)
		}
	}
	if t := p.WedgeTask; t != nil {
		if t.Stage < 0 || t.Seq < 0 || (t.Kind != KindForward && t.Kind != KindBackward) {
			return fmt.Errorf("fault: malformed wedge task %+v", *t)
		}
	}
	for i, ev := range p.Storm {
		t := ev.Task
		if ev.Incarnation < 0 || t.Stage < 0 || t.Seq < 0 ||
			(t.Kind != KindForward && t.Kind != KindBackward) {
			return fmt.Errorf("fault: malformed storm entry %d: %+v", i, ev)
		}
	}
	for _, group := range []struct {
		name string
		evs  []LinkEvent
	}{{"linkdropat", p.LinkDrops}, {"disconnect", p.Disconnects}, {"partition", p.Partitions}} {
		for i, ev := range group.evs {
			if ev.Incarnation < 0 || ev.Stage < 0 || ev.AfterFrames < 0 {
				return fmt.Errorf("fault: malformed %s entry %d: %+v", group.name, i, ev)
			}
		}
	}
	return nil
}

// withDefaults fills zero-valued retry/delay parameters.
func (p Plan) withDefaults() Plan {
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = DefaultMaxRetries
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = DefaultBackoffBase
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = DefaultBackoffMax
	}
	return p
}

// ParsePlan builds a plan from a compact comma-separated spec, the form
// the -faults CLI flag takes:
//
//	seed=7,drop=0.05,delay=0.02,dup=0.01,crash=0.005,fetchfail=0.1,
//	crashat=2:30:B,maxdelay=200us,retries=4,backoff=50us
//
// crashat/wedgeat take stage:seq:kind with kind F or B (the one-shot
// incarnation-0 target), or incarnation:stage:seq:kind to append a
// storm entry pinned to that incarnation; repeating the key builds the
// full storm. The transport keys act on a fleet's data links:
// linkdrop=rate, linkdropat and disconnect take stage:frames or
// incarnation:stage:frames, where stage names the link's peer (the
// stage the frames go to), and partition takes frames or
// incarnation:frames and cuts every link. Unknown keys are errors.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not key=value", kv)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseUint(val, 10, 64)
		case "crash":
			p.CrashRate, err = strconv.ParseFloat(val, 64)
		case "drop":
			p.DropRate, err = strconv.ParseFloat(val, 64)
		case "delay":
			p.DelayRate, err = strconv.ParseFloat(val, 64)
		case "dup":
			p.DupRate, err = strconv.ParseFloat(val, 64)
		case "fetchfail":
			p.FetchFailRate, err = strconv.ParseFloat(val, 64)
		case "maxdelay":
			p.MaxDelay, err = time.ParseDuration(val)
		case "backoff":
			p.BackoffBase, err = time.ParseDuration(val)
		case "backoffmax":
			p.BackoffMax, err = time.ParseDuration(val)
		case "retries":
			p.MaxRetries, err = strconv.Atoi(val)
		case "crashat":
			err = p.addTargeted(val, false)
		case "wedgeat":
			err = p.addTargeted(val, true)
		case "linkdrop":
			p.LinkDropRate, err = strconv.ParseFloat(val, 64)
		case "linkdropat":
			err = p.addLink(&p.LinkDrops, val, true)
		case "disconnect":
			err = p.addLink(&p.Disconnects, val, true)
		case "partition":
			err = p.addLink(&p.Partitions, val, false)
		default:
			return nil, fmt.Errorf("fault: unknown plan key %q (known: seed, crash, crashat, wedgeat, drop, delay, dup, fetchfail, maxdelay, backoff, backoffmax, retries, linkdrop, linkdropat, disconnect, partition)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("fault: bad value for %s: %w", key, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// addTargeted parses a crashat/wedgeat value. stage:seq:kind sets the
// one-shot incarnation-0 target; incarnation:stage:seq:kind appends a
// storm entry pinned to that incarnation.
func (p *Plan) addTargeted(val string, wedge bool) error {
	if strings.Count(val, ":") == 3 {
		parts := strings.SplitN(val, ":", 2)
		inc, err := strconv.Atoi(parts[0])
		if err != nil {
			return fmt.Errorf("bad incarnation %q: %w", parts[0], err)
		}
		t, err := parseTaskRef(parts[1])
		if err != nil {
			return err
		}
		p.Storm = append(p.Storm, StormEvent{Incarnation: inc, Task: *t, Wedge: wedge})
		return nil
	}
	t, err := parseTaskRef(val)
	if err != nil {
		return err
	}
	if wedge {
		if p.WedgeTask != nil {
			return fmt.Errorf("duplicate wedgeat %q (pin storms to incarnations with inc:stage:seq:kind)", val)
		}
		p.WedgeTask = t
	} else {
		if p.CrashTask != nil {
			return fmt.Errorf("duplicate crashat %q (pin storms to incarnations with inc:stage:seq:kind)", val)
		}
		p.CrashTask = t
	}
	return nil
}

// addLink parses a transport fault value. With a stage (linkdropat,
// disconnect): stage:after or incarnation:stage:after. Without one
// (partition): after or incarnation:after.
func (p *Plan) addLink(into *[]LinkEvent, val string, hasStage bool) error {
	parts := strings.Split(val, ":")
	nums := make([]int, len(parts))
	for i, s := range parts {
		n, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("bad field %q: %w", s, err)
		}
		nums[i] = n
	}
	var ev LinkEvent
	switch {
	case hasStage && len(nums) == 2:
		ev = LinkEvent{Stage: nums[0], AfterFrames: nums[1]}
	case hasStage && len(nums) == 3:
		ev = LinkEvent{Incarnation: nums[0], Stage: nums[1], AfterFrames: nums[2]}
	case !hasStage && len(nums) == 1:
		ev = LinkEvent{AfterFrames: nums[0]}
	case !hasStage && len(nums) == 2:
		ev = LinkEvent{Incarnation: nums[0], AfterFrames: nums[1]}
	default:
		if hasStage {
			return fmt.Errorf("want stage:after or inc:stage:after, got %q", val)
		}
		return fmt.Errorf("want after or inc:after, got %q", val)
	}
	*into = append(*into, ev)
	return nil
}

func parseTaskRef(s string) (*TaskRef, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("want stage:seq:kind, got %q", s)
	}
	stage, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, err
	}
	seq, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, err
	}
	var kind int8
	switch parts[2] {
	case "F", "f":
		kind = KindForward
	case "B", "b":
		kind = KindBackward
	default:
		return nil, fmt.Errorf("kind %q is not F or B", parts[2])
	}
	return &TaskRef{Stage: stage, Seq: seq, Kind: kind}, nil
}

// String renders the plan back in ParsePlan's spec form (defaulted
// fields omitted), so CLIs can echo the effective schedule.
func (p Plan) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	add("seed", strconv.FormatUint(p.Seed, 10))
	rate := func(k string, v float64) {
		if v > 0 {
			add(k, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	rate("crash", p.CrashRate)
	if p.CrashTask != nil {
		add("crashat", p.CrashTask.String())
	}
	if p.WedgeTask != nil {
		add("wedgeat", p.WedgeTask.String())
	}
	for _, ev := range p.Storm {
		k := "crashat"
		if ev.Wedge {
			k = "wedgeat"
		}
		add(k, ev.String())
	}
	rate("drop", p.DropRate)
	rate("delay", p.DelayRate)
	rate("dup", p.DupRate)
	rate("fetchfail", p.FetchFailRate)
	rate("linkdrop", p.LinkDropRate)
	for _, ev := range p.LinkDrops {
		add("linkdropat", ev.String())
	}
	for _, ev := range p.Disconnects {
		add("disconnect", ev.String())
	}
	for _, ev := range p.Partitions {
		add("partition", fmt.Sprintf("%d:%d", ev.Incarnation, ev.AfterFrames))
	}
	return strings.Join(parts, ",")
}

// CrashError reports an injected stage-goroutine crash. The engine
// returns it from RunConcurrent with the partial Result; callers
// (Runner, CLI, tests) detect it with errors.As, bump the checkpoint
// incarnation, and resume.
type CrashError struct {
	Stage       int
	Seq         int // global sequence ID of the task at whose boundary the stage died
	Kind        int8
	Incarnation int
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("fault: injected crash on stage %d at task %s (incarnation %d)",
		e.Stage, TaskRef{Stage: e.Stage, Seq: e.Seq, Kind: e.Kind}, e.Incarnation)
}

// Action is a message-transport verdict.
type Action int

const (
	Deliver   Action = iota
	Drop             // this attempt is lost; retry after backoff
	Delay            // deliver after Verdict.Wait
	Duplicate        // deliver twice (receivers dedup)
)

// Verdict is the injector's decision for one delivery attempt.
type Verdict struct {
	Action Action
	Wait   time.Duration // Delay only
}

// Injector draws fault decisions for one run. It is stateless after
// construction (every decision is a pure function of its site), so it is
// safe for concurrent use by all stage goroutines.
type Injector struct {
	plan        Plan
	incarnation int
}

// NewInjector validates the plan and binds it to a restart incarnation
// (0 for a fresh run; resumed runs pass the checkpoint's).
func NewInjector(p Plan, incarnation int) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if incarnation < 0 {
		return nil, fmt.Errorf("fault: negative incarnation %d", incarnation)
	}
	return &Injector{plan: p.withDefaults(), incarnation: incarnation}, nil
}

// Incarnation returns the restart epoch this injector rolls under.
func (in *Injector) Incarnation() int { return in.incarnation }

// MaxRetries returns the bounded-retry limit for dropped messages.
func (in *Injector) MaxRetries() int { return in.plan.MaxRetries }

// roll returns a uniform [0,1) draw keyed by the decision site.
func (in *Injector) roll(label string) float64 {
	return rng.Labeled(in.plan.Seed, label).Float64()
}

// CrashAt decides whether the stage crashes at the (stage, seq, kind)
// task boundary. seq is the global sequence ID.
func (in *Injector) CrashAt(stage, seq int, kind int8) bool {
	if t := in.plan.CrashTask; t != nil && in.incarnation == 0 &&
		t.Stage == stage && t.Seq == seq && t.Kind == kind {
		return true
	}
	if in.stormAt(stage, seq, kind, false) {
		return true
	}
	if in.plan.CrashRate <= 0 {
		return false
	}
	return in.roll(fmt.Sprintf("crash/%d/%d/%d/%d", in.incarnation, stage, seq, kind)) < in.plan.CrashRate
}

// stormAt reports whether a storm entry targets this incarnation's
// (stage, seq, kind) boundary with the given wedge disposition.
func (in *Injector) stormAt(stage, seq int, kind int8, wedge bool) bool {
	for _, ev := range in.plan.Storm {
		if ev.Wedge == wedge && ev.Incarnation == in.incarnation &&
			ev.Task == (TaskRef{Stage: stage, Seq: seq, Kind: kind}) {
			return true
		}
	}
	return false
}

// WedgeAt decides whether the stage hangs at the (stage, seq, kind)
// task boundary until cancelled. Fires in incarnation 0 only, so runs
// resumed after a watchdog-cut checkpoint are not re-wedged.
func (in *Injector) WedgeAt(stage, seq int, kind int8) bool {
	if t := in.plan.WedgeTask; t != nil && in.incarnation == 0 &&
		t.Stage == stage && t.Seq == seq && t.Kind == kind {
		return true
	}
	return in.stormAt(stage, seq, kind, true)
}

// Message decides the fate of one delivery attempt of a cross-stage
// transfer (kind: forward activation or backward gradient) sent by
// fromStage for global sequence seq. Duplicates fire only on attempt 0,
// bounding deliveries per message at two — the receivers' channel-sizing
// invariant.
func (in *Injector) Message(kind int8, fromStage, seq, attempt int) Verdict {
	p := in.plan
	if p.DropRate == 0 && p.DelayRate == 0 && p.DupRate == 0 {
		return Verdict{Action: Deliver}
	}
	r := rng.Labeled(p.Seed, fmt.Sprintf("msg/%d/%d/%d/%d/%d", in.incarnation, kind, fromStage, seq, attempt))
	u := r.Float64()
	switch {
	case u < p.DropRate:
		return Verdict{Action: Drop}
	case u < p.DropRate+p.DelayRate:
		return Verdict{Action: Delay, Wait: time.Duration(r.Float64() * float64(p.MaxDelay))}
	case u < p.DropRate+p.DelayRate+p.DupRate && attempt == 0:
		return Verdict{Action: Duplicate}
	}
	return Verdict{Action: Deliver}
}

// FetchFails decides whether the stage's prefetch copy for global
// sequence seq fails (surfaced by the engine as a dropped prefetch).
func (in *Injector) FetchFails(stage, seq int) bool {
	if in.plan.FetchFailRate <= 0 {
		return false
	}
	return in.roll(fmt.Sprintf("fetch/%d/%d/%d", in.incarnation, stage, seq)) < in.plan.FetchFailRate
}

// FrameDrop decides whether a link discards its seqno-th data frame at
// the sender (the retransmit timer recovers it). Combines the targeted
// linkdropat entries with the rate-based draw, keyed so any given frame
// is dropped at most once per incarnation — delivery always terminates.
func (in *Injector) FrameDrop(stage int, seqno uint64) bool {
	for _, ev := range in.plan.LinkDrops {
		if ev.Incarnation == in.incarnation && ev.Stage == stage && uint64(ev.AfterFrames) == seqno {
			return true
		}
	}
	if in.plan.LinkDropRate <= 0 {
		return false
	}
	return in.roll(fmt.Sprintf("linkdrop/%d/%d/%d", in.incarnation, stage, seqno)) < in.plan.LinkDropRate
}

// LinkCut decides whether a stage's link severs itself once it has sent
// `sent` data frames: a targeted disconnect of this link, or a
// partition (every link cuts at its own matching count). The link's
// reconnect loop heals either; the distinction is observability.
func (in *Injector) LinkCut(stage int, sent uint64) bool {
	for _, ev := range in.plan.Disconnects {
		if ev.Incarnation == in.incarnation && ev.Stage == stage && uint64(ev.AfterFrames) == sent {
			return true
		}
	}
	for _, ev := range in.plan.Partitions {
		if ev.Incarnation == in.incarnation && uint64(ev.AfterFrames) == sent {
			return true
		}
	}
	return false
}

// Backoff returns the exponential retry delay after the given dropped
// attempt: BackoffBase·2^attempt, capped at BackoffMax — the shared
// backoff.Policy schedule.
func (in *Injector) Backoff(attempt int) time.Duration {
	return backoff.Policy{Base: in.plan.BackoffBase, Max: in.plan.BackoffMax}.Delay(attempt)
}
