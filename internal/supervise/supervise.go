// Package supervise is the supervision plane: an in-process supervisor
// that wraps a job's incarnations — each runs the uncommitted suffix
// from the committed cursor, in one process or on a fleet — and drives
// a health state machine
//
//	running → degraded → recovering → … → done | failed
//
// published to telemetry as OpHealth transitions. Where PR 4 made
// crashes survivable-by-operator (exit 3, rerun with -resume), this
// plane makes them a scheduling event: an injected or real
// *fault.CrashError is caught in-process and the run resumes from the
// latest crash-consistent checkpoint under a retry budget with
// exponential backoff; a watchdog (watchdog.go) polls the executor's
// health probe and converts a genuine stall — frontier and task
// counters flat for longer than the threshold — into a diagnosed,
// resumable incarnation failure; and repeated crashes attributed to one
// stage trigger elastic degraded-mode recovery, resuming the remaining
// suffix at half the pipeline depth. Elasticity is legal under CSP:
// Definition 1 orders parameter accesses by subnet sequence, not stage
// count, so the canonical per-layer trace — and the training result —
// is invariant under re-partitioning the suffix across fewer stages.
//
// Give-up is explicit and diagnosable: exhausting the restart budget,
// or a crash loop (no frontier advance across CrashLoopWindow
// consecutive incarnations), returns a *GiveUpError carrying the full
// incident timeline.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"naspipe/internal/backoff"
	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/telemetry"
)

// State is the supervisor's health state. The numeric values are the
// wire encoding of telemetry.HealthArg payloads — keep them in sync
// with that doc comment.
type State int

const (
	Running    State = iota // an incarnation is executing
	Degraded                // an incarnation failed recoverably; incident recorded
	Recovering              // backing off / re-partitioning before the next incarnation
	Done                    // stream complete
	Failed                  // gave up, or hit a non-recoverable error
)

var stateNames = [...]string{"running", "degraded", "recovering", "done", "failed"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Transition is one recorded state-machine edge.
type Transition struct {
	From, To    State
	Incarnation int // supervisor attempt index (0 = the first)
	Reason      string
	At          time.Time // wall time the edge was taken
}

// Incident is one recoverable incarnation failure: which attempt, the
// attributed stage (-1 unknown), the error, the watchdog diagnosis when
// it fired, the committed cursor before and after the incarnation, and
// the pipeline depth it ran at.
type Incident struct {
	Incarnation  int
	Stage        int
	Err          error
	Stall        *StallError // non-nil when the watchdog cancelled the incarnation
	CursorBefore int
	CursorAfter  int
	GPUs         int
}

func (i Incident) String() string {
	kind := "crash"
	if i.Stall != nil {
		kind = "stall"
	}
	return fmt.Sprintf("incarnation %d (D=%d): %s on stage %d, cursor %d→%d: %v",
		i.Incarnation, i.GPUs, kind, i.Stage, i.CursorBefore, i.CursorAfter, i.Err)
}

// Report is the supervisor's account of a whole supervised run.
type Report struct {
	Transitions   []Transition
	Incidents     []Incident
	Restarts      int
	WatchdogFires int
	FinalState    State
	FinalGPUs     int
	ElasticSteps  []int // pipeline depth after each elastic halving, in order
}

// Recovery is the wall time from the first failure (the first edge into
// Degraded) to completion (the edge into Done); 0 when nothing failed or
// the run did not complete.
func (r *Report) Recovery() time.Duration {
	var first time.Time
	for _, tr := range r.Transitions {
		switch {
		case tr.To == Degraded && first.IsZero():
			first = tr.At
		case tr.To == Done && !first.IsZero():
			return tr.At.Sub(first)
		}
	}
	return 0
}

// Timeline renders the incident history, the "full fault timeline" a
// give-up attaches.
func (r *Report) Timeline() string {
	if len(r.Incidents) == 0 {
		return "  (no incidents)"
	}
	var b strings.Builder
	for _, in := range r.Incidents {
		fmt.Fprintf(&b, "  %s\n", in)
	}
	return strings.TrimRight(b.String(), "\n")
}

// GiveUpError is the supervisor's terminal failure: the retry budget is
// exhausted or the run is crash-looping without progress. It carries
// the report so callers (and the error text itself) have the full
// incident timeline.
type GiveUpError struct {
	Reason string
	Report *Report
}

func (e *GiveUpError) Error() string {
	return fmt.Sprintf("supervise: giving up after %d restarts: %s\nincident timeline:\n%s",
		e.Report.Restarts, e.Reason, e.Report.Timeline())
}

// WatchdogConfig tunes stall detection; see watchdog.go.
type WatchdogConfig struct {
	// Disabled turns the watchdog off entirely (no goroutine started).
	Disabled bool
	// Poll is the probe polling period. 0 = 2ms.
	Poll time.Duration
	// StallAfter is how long both progress signals (committed frontier,
	// completed-task count) must stay flat before the watchdog declares a
	// stall and cancels the incarnation. 0 = 2s — three orders of
	// magnitude above the longest wait a healthy run makes between task
	// completions (a dropped message's retry backoff caps at 2ms), so
	// jitter, cache thrash, and backoff storms never trip it while a
	// wedged stage (which completes nothing, ever) always does.
	StallAfter time.Duration
}

func (w WatchdogConfig) withDefaults() WatchdogConfig {
	if w.Poll <= 0 {
		w.Poll = 2 * time.Millisecond
	}
	if w.StallAfter <= 0 {
		w.StallAfter = 2 * time.Second
	}
	return w
}

// Config tunes the supervisor. The zero value is usable: 16 restarts,
// 5ms–250ms backoff, crash-loop window 3, elasticity off, watchdog on
// with default thresholds.
type Config struct {
	// MaxRestarts bounds resume attempts across the whole run. 0 = 16.
	MaxRestarts int
	// BackoffBase doubles per consecutive restart, capped at BackoffMax.
	// 0 = 5ms base, 250ms cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// CrashLoopWindow gives up after this many consecutive incarnations
	// with no committed-cursor advance. 0 = 3.
	CrashLoopWindow int
	// ElasticAfter enables degraded-mode recovery: after this many
	// consecutive incidents attributed to the same stage, the next
	// incarnation resumes at half the pipeline depth, down to one
	// stage. 0 disables elasticity.
	ElasticAfter int

	Watchdog WatchdogConfig

	// Telemetry, when non-nil, receives every state transition as an
	// OpHealth event (Subnet = attempt index, Arg = HealthArg(from, to)).
	Telemetry *telemetry.Bus
	// Log, when non-nil, receives one line per supervisor decision
	// (transition, backoff, elastic step) — the CLIs pass log.Printf.
	Log func(format string, args ...any)

	// Observer, when non-nil, receives every state-machine edge as it is
	// recorded — the service plane's hook for turning transitions into
	// metrics (restart counters, health-edge counters) without polling
	// the Report. Called synchronously from the supervisor goroutine;
	// keep it cheap and never block.
	Observer func(Transition)
	// OnIncident, when non-nil, receives every recoverable incident
	// (crash or diagnosed stall) as it is appended to the Report. Same
	// calling discipline as Observer.
	OnIncident func(Incident)
}

func (c Config) withDefaults() Config {
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 16
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.CrashLoopWindow <= 0 {
		c.CrashLoopWindow = 3
	}
	c.Watchdog = c.Watchdog.withDefaults()
	return c
}

// Defaults returns the zero config with every default filled in, so
// CLIs can surface the effective values as flag defaults.
func Defaults() Config { return Config{}.withDefaults() }

// Incarnation runs one attempt at the given pipeline depth, publishing
// health into the probe. The supervisor owns the probe and the context;
// the job's recovery loop wires them into the executor's Config and
// starts the attempt from the committed cursor.
type Incarnation func(ctx context.Context, gpus int, probe *engine.RunProbe) (engine.Result, error)

// Job is the work under supervision.
type Job struct {
	// Run executes every attempt.
	Run Incarnation
	// Cursor reads the committed global cursor after an incident — the
	// crash-loop detector's progress signal.
	Cursor func() int
	// GPUs is the initial pipeline depth; Total the stream length (both
	// for reporting).
	GPUs  int
	Total int
}

// Run supervises the job to completion. It returns the final
// incarnation's Result, the full Report (never nil), and:
//
//   - nil when the stream completed (FinalState Done);
//   - the parent context's error when externally interrupted — the
//     checkpoint is valid, the run is resumable, and FinalState stays
//     at the interruption point rather than Failed;
//   - a *GiveUpError on budget exhaustion or crash loop;
//   - the underlying error for non-recoverable failures (FinalState
//     Failed).
func Run(ctx context.Context, cfg Config, job Job) (engine.Result, *Report, error) {
	cfg = cfg.withDefaults()
	if job.Run == nil || job.Cursor == nil {
		return engine.Result{}, &Report{FinalState: Failed}, fmt.Errorf("supervise: job needs Run and Cursor")
	}
	sup := &supervisor{cfg: cfg, job: job, rep: &Report{FinalGPUs: job.GPUs}}
	res, err := sup.loop(ctx)
	return res, sup.rep, err
}

type supervisor struct {
	cfg   Config
	job   Job
	rep   *Report
	state State
}

func (sv *supervisor) logf(format string, args ...any) {
	if sv.cfg.Log != nil {
		sv.cfg.Log(format, args...)
	}
}

// transition moves the state machine, records the edge, and publishes
// it to telemetry.
func (sv *supervisor) transition(to State, inc int, reason string) {
	from := sv.state
	sv.state = to
	tr := Transition{From: from, To: to, Incarnation: inc, Reason: reason, At: time.Now()}
	sv.rep.Transitions = append(sv.rep.Transitions, tr)
	sv.rep.FinalState = to
	if sv.cfg.Telemetry != nil {
		sv.cfg.Telemetry.Emit(telemetry.Event{
			Op: telemetry.OpHealth, Phase: telemetry.PhaseInstant,
			Stage: -1, Worker: telemetry.WorkerStage,
			Subnet: int32(inc), Kind: telemetry.KindNone,
			Arg: telemetry.HealthArg(int32(from), int32(to)),
		})
	}
	sv.logf("supervise: %s → %s (incarnation %d): %s", from, to, inc, reason)
	if sv.cfg.Observer != nil {
		sv.cfg.Observer(tr)
	}
}

func (sv *supervisor) loop(ctx context.Context) (engine.Result, error) {
	var (
		gpus         = sv.job.GPUs
		probe        = &engine.RunProbe{}
		inc          = 0
		lastCursor   = 0
		noAdvance    = 0
		sameStage    = -1
		sameStageRun = 0
	)
	for {
		// Each incarnation gets its own cancellable context so the
		// watchdog can kill exactly one attempt; the cause distinguishes
		// a watchdog stall from an external interruption.
		runCtx, cancel := context.WithCancelCause(ctx)
		stop := startWatchdog(runCtx, cancel, sv.cfg.Watchdog, probe, inc)
		res, err := sv.job.Run(runCtx, gpus, probe)
		cancel(nil)
		<-stop

		if err == nil {
			sv.rep.FinalGPUs = gpus
			sv.transition(Done, inc, fmt.Sprintf("stream complete (%d subnets, D=%d)", sv.job.Total, gpus))
			return res, nil
		}

		// Classify the failure: watchdog stall and injected/real crashes
		// are recoverable incidents; an external interruption returns
		// resumable; anything else is terminal.
		var (
			stall *StallError
			crash *fault.CrashError
			stage = -1
		)
		switch cause := context.Cause(runCtx); {
		case errors.As(cause, &stall):
			sv.rep.WatchdogFires++
			stage = stall.BlockedStage()
			err = stall
		case errors.As(err, &crash):
			stage = crash.Stage
		case ctx.Err() != nil:
			// Interrupted from outside (signal, deadline). The checkpoint
			// plane already bumped the incarnation at the cut; report the
			// run as resumable without entering Failed.
			sv.logf("supervise: interrupted at incarnation %d: %v", inc, ctx.Err())
			return res, err
		default:
			sv.transition(Failed, inc, fmt.Sprintf("non-recoverable: %v", err))
			return res, err
		}

		cursor := sv.job.Cursor()
		incident := Incident{
			Incarnation: inc, Stage: stage, Err: err, Stall: stall,
			CursorBefore: lastCursor, CursorAfter: cursor, GPUs: gpus,
		}
		sv.rep.Incidents = append(sv.rep.Incidents, incident)
		if sv.cfg.OnIncident != nil {
			sv.cfg.OnIncident(incident)
		}
		sv.transition(Degraded, inc, incident.String())

		if sv.rep.Restarts++; sv.rep.Restarts > sv.cfg.MaxRestarts {
			gerr := &GiveUpError{Reason: fmt.Sprintf("restart budget %d exhausted", sv.cfg.MaxRestarts), Report: sv.rep}
			sv.transition(Failed, inc, gerr.Reason)
			return res, gerr
		}
		if cursor > lastCursor {
			noAdvance = 0
		} else if noAdvance++; noAdvance >= sv.cfg.CrashLoopWindow {
			gerr := &GiveUpError{
				Reason: fmt.Sprintf("crash loop: no frontier advance across %d consecutive incarnations (cursor stuck at %d/%d)",
					noAdvance, cursor, sv.job.Total),
				Report: sv.rep,
			}
			sv.transition(Failed, inc, gerr.Reason)
			return res, gerr
		}
		lastCursor = cursor

		// Elastic degraded-mode recovery: repeated incidents on one stage
		// point at a depth-correlated failure; halve the pipeline and
		// re-partition the suffix. CSP ordering is per subnet sequence,
		// so the result stays bitwise identical (Definition 1).
		if stage >= 0 && stage == sameStage {
			sameStageRun++
		} else {
			sameStage, sameStageRun = stage, 1
		}
		if sv.cfg.ElasticAfter > 0 && sameStageRun >= sv.cfg.ElasticAfter && gpus > 1 {
			gpus /= 2
			sv.rep.ElasticSteps = append(sv.rep.ElasticSteps, gpus)
			sameStage, sameStageRun = -1, 0
			sv.logf("supervise: %d consecutive incidents on stage %d: elastic degrade to D=%d", sv.cfg.ElasticAfter, stage, gpus)
		}
		sv.rep.FinalGPUs = gpus

		sv.transition(Recovering, inc, fmt.Sprintf("resume %d/%d from cursor %d at D=%d", sv.rep.Restarts, sv.cfg.MaxRestarts, cursor, gpus))
		if err := sv.backoff(ctx, sv.rep.Restarts); err != nil {
			return res, err
		}
		inc++
		sv.transition(Running, inc, fmt.Sprintf("incarnation %d starting", inc))
	}
}

// backoff sleeps BackoffBase·2^(restart-1) capped at BackoffMax,
// returning early with the context error on interruption. The schedule
// is the shared backoff.Policy — the same rule transport reconnects and
// dropped-message retries follow.
func (sv *supervisor) backoff(ctx context.Context, restart int) error {
	return backoff.Policy{Base: sv.cfg.BackoffBase, Max: sv.cfg.BackoffMax}.Sleep(ctx, restart-1)
}
