// The watchdog: stall detection on the executor's health probe.
//
// The executor's two progress signals — the committed stage-0 frontier
// and the total completed-task count — are monotone and move only on
// real task completions; parks, queue churn, retries, and cache stalls
// update per-stage health but neither counter. The watchdog therefore
// distinguishes slow from stalled by one rule: if both signals stay
// flat for StallAfter, nothing can be running — every in-flight task
// would have completed (injected delays and retry backoffs are capped
// far below StallAfter) — so the pipeline is wedged, deadlocked, or
// dead. The executor reports an in-process lost wake-up itself; a wedged
// stage and a fleet worker's remote peers are what only the watchdog
// can see. On firing it snapshots the per-stage health
// table into a structured diagnosis and cancels the incarnation with a
// *StallError cause, which the supervisor turns into a recoverable,
// checkpointed incident.
package supervise

import (
	"context"
	"fmt"
	"strings"
	"time"

	"naspipe/internal/engine"
)

// StallDiagnosis is what the watchdog saw when it fired: the stuck
// progress signals, how long they were flat, and every stage's last
// published health (blocked head, owning subnet, cache residency, last
// task age).
type StallDiagnosis struct {
	Frontier int   // committed global cursor at firing time
	Tasks    int64 // completed-task count at firing time
	Quiet    time.Duration
	Stages   []engine.StageHealth
}

// StallError is the watchdog's verdict, installed as the incarnation
// context's cancel cause.
type StallError struct {
	Incarnation int
	Diag        StallDiagnosis
}

// BlockedStage attributes the stall: a wedged stage if any, else the
// blocked stage (head waiting on an unfinished writer) with the oldest
// last-completed task, else the stage idle longest. -1 if no health
// was ever published.
func (e *StallError) BlockedStage() int {
	best, bestNs := -1, int64(0)
	blocked := false
	for _, h := range e.Diag.Stages {
		if h.Wedged {
			return h.Stage
		}
		isBlocked := h.BlockedHead >= 0 && h.OwnerSubnet >= 0
		switch {
		case best < 0,
			isBlocked && !blocked,
			isBlocked == blocked && h.LastTaskNs < bestNs:
			best, bestNs, blocked = h.Stage, h.LastTaskNs, isBlocked
		}
	}
	return best
}

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "supervise: watchdog: no progress for %v at incarnation %d (frontier %d, %d tasks done)",
		e.Diag.Quiet.Round(time.Millisecond), e.Incarnation, e.Diag.Frontier, e.Diag.Tasks)
	now := time.Now().UnixNano()
	for _, h := range e.Diag.Stages {
		b.WriteString("\n  ")
		b.WriteString(h.Line(now))
	}
	if s := e.BlockedStage(); s >= 0 {
		fmt.Fprintf(&b, "\n  diagnosis: stage %d is the blocked stage", s)
	}
	return b.String()
}

// startWatchdog launches the stall detector for one incarnation unless
// disabled. It returns a channel closed when the watchdog goroutine has
// exited; the supervisor waits on it after cancelling the incarnation
// so no goroutine outlives the attempt.
func startWatchdog(ctx context.Context, cancel context.CancelCauseFunc, cfg WatchdogConfig, probe *engine.RunProbe, incarnation int) <-chan struct{} {
	stop := make(chan struct{})
	if cfg.Disabled {
		close(stop)
		return stop
	}
	go func() {
		defer close(stop)
		lastF, lastT := probe.Progress()
		lastChange := time.Now()
		tick := time.NewTicker(cfg.Poll)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			f, t := probe.Progress()
			if f != lastF || t != lastT {
				lastF, lastT = f, t
				lastChange = time.Now()
				continue
			}
			if quiet := time.Since(lastChange); quiet >= cfg.StallAfter {
				cancel(&StallError{
					Incarnation: incarnation,
					Diag: StallDiagnosis{
						Frontier: f, Tasks: t, Quiet: quiet,
						Stages: probe.Snapshot(),
					},
				})
				return
			}
		}
	}()
	return stop
}
