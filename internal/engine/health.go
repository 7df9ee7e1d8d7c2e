// The concurrent plane's health surface: a mutex-guarded probe the
// executor publishes live per-stage state into, and the enriched stall
// error built from the same state. The probe is how the supervision
// plane (internal/supervise) watches a run without the engine importing
// it — supervise depends on engine, never the reverse.
package engine

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"naspipe/internal/csp"
)

// StageHealth is one stage's scheduler state as last published by its
// goroutine (csp.StageHealth, the record a fleet worker's heartbeat
// carries too).
type StageHealth = csp.StageHealth

// RunProbe receives live health state from the concurrent executor. One
// probe may be reused across incarnations — RunConcurrent re-attaches
// (resetting the per-stage table) at start, while the frontier and task
// counters stay monotone across attaches so a watchdog polling
// Progress never sees progress move backwards over a resume.
//
// Both planes publish through the same two methods: a stage goroutine
// after every task and park, the fleet coordinator once per worker
// heartbeat. All methods are safe for concurrent use: publishers and
// the polling supervision plane share one mutex.
type RunProbe struct {
	mu       sync.Mutex
	frontier int   // committed stage-0 backward frontier, global
	tasks    int64 // completed tasks across all stages and incarnations
	stages   []StageHealth
}

// Attach (re)binds the probe to a starting run of d stages at the given
// sequence base. RunConcurrent calls it before any stage goroutine
// starts, the fleet coordinator when it launches an incarnation.
func (p *RunProbe) Attach(d, base int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stages = make([]StageHealth, d)
	for k := range p.stages {
		p.stages[k] = StageHealth{Stage: k, BlockedHead: -1, OwnerSubnet: -1}
	}
	if base > p.frontier {
		p.frontier = base
	}
}

// Publish records one stage's health. The tasks the stage completed
// since its previous row — how far FwdDone+BwdDone grew, never less
// than zero — move the monotone progress counter, and a row that grew
// is stamped LastTaskNs by the probe's clock, so ages in a fleet's
// dump never mix the workers' clocks with the coordinator's. A stage
// goroutine publishes after each task (a growth of exactly one) and
// at each park (none); a worker heartbeat carries every task since the
// last beat. A row for a stage outside the attached table (a stale
// goroutine of a wider incarnation) is dropped.
func (p *RunProbe) Publish(h StageHealth) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h.Stage < 0 || h.Stage >= len(p.stages) {
		return
	}
	prev := &p.stages[h.Stage]
	h.LastTaskNs = prev.LastTaskNs
	if d := h.FwdDone + h.BwdDone - prev.FwdDone - prev.BwdDone; d > 0 {
		p.tasks += int64(d)
		h.LastTaskNs = time.Now().UnixNano()
	}
	*prev = h
}

// AdvanceFrontier records the committed stage-0 backward frontier
// (global cursor: subnets below it are fully retired); a stale commit
// never moves it back.
func (p *RunProbe) AdvanceFrontier(f int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f > p.frontier {
		p.frontier = f
	}
}

// Progress returns the two monotone progress signals a watchdog
// distinguishes slow-from-stalled by: the committed frontier and the
// total completed-task count. Parks and queue churn update stage
// health but move neither — only real task completions do.
func (p *RunProbe) Progress() (frontier int, tasks int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frontier, p.tasks
}

// Snapshot copies the per-stage health table as last published.
func (p *RunProbe) Snapshot() []StageHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]StageHealth, len(p.stages))
	copy(out, p.stages)
	return out
}

// StallError reports a lost wake-up: every stage of a single-process run
// parked with no message in flight before the stream completed (the
// idle-set check in RunConcurrent). It carries each stage's final
// scheduler state: which head is blocked, which subnet's unfinished
// WRITE owns the block, and what is still pending where.
type StallError struct {
	Completed int
	Total     int
	Stages    []StageHealth
}

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: concurrent run stalled at %d/%d subnets", e.Completed, e.Total)
	now := time.Now().UnixNano()
	for _, h := range e.Stages {
		b.WriteString("\n  ")
		b.WriteString(h.Line(now))
	}
	return b.String()
}
