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
)

// StageHealth is one stage's scheduler state as last published by its
// goroutine: task counters, queue depths, the blocked queue head and the
// subnet whose unfinished WRITE blocks it (the paper's precedence
// owner), cache residency, and the wall-clock stamp of the stage's last
// completed task. Sequence IDs are global (SeqBase included); -1 means
// none.
type StageHealth struct {
	Stage       int
	FwdDone     int
	BwdDone     int
	QueueLen    int // L_q: forwards whose input arrived but did not run yet
	BwdQueueLen int // backwards ready to run

	BlockedHead int // global seq at the head of the forward queue (-1: empty)
	OwnerSubnet int // global seq of the unfinished writer blocking the head (-1: unblocked)

	CacheResidentBytes int64 // bytes resident in the stage cache (0 when disabled)
	LastTaskNs         int64 // wall-clock ns of the last completed task (0: none yet)
	Wedged             bool  // stage goroutine is hung at a task boundary (fault plane)
}

// RunProbe receives live health state from the concurrent executor. One
// probe may be reused across incarnations — RunConcurrent re-attaches
// (resetting the per-stage table) at start, while the frontier and task
// counters stay monotone across attaches so a watchdog polling
// Progress never sees progress move backwards over a resume.
//
// All methods are safe for concurrent use: stage goroutines publish
// under the mutex, the supervision plane polls under the same mutex.
type RunProbe struct {
	mu       sync.Mutex
	frontier int   // committed stage-0 backward frontier, global
	tasks    int64 // completed tasks across all stages and incarnations
	stages   []StageHealth
}

// attach (re)binds the probe to a starting run of d stages at the given
// sequence base. Called by RunConcurrent before any stage goroutine
// starts.
func (p *RunProbe) attach(d, base int) {
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

// publish records one stage's current health; taskDone additionally
// bumps the monotone progress counter.
func (p *RunProbe) publish(h StageHealth, taskDone bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h.Stage >= 0 && h.Stage < len(p.stages) {
		p.stages[h.Stage] = h
	}
	if taskDone {
		p.tasks++
	}
}

// advanceFrontier records the committed stage-0 backward frontier
// (global cursor: subnets below it are fully retired).
func (p *RunProbe) advanceFrontier(f int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f > p.frontier {
		p.frontier = f
	}
}

// Attach (re)binds the probe to a starting run of d stages at the
// given sequence base, exactly as RunConcurrent does internally. The
// distributed coordinator calls it when a remote incarnation launches,
// so the same supervision plane can watch a fleet it does not run
// in-process.
func (p *RunProbe) Attach(d, base int) { p.attach(d, base) }

// Publish records one stage's health as reported over the wire;
// taskDone bumps the monotone progress counter. The coordinator feeds
// worker heartbeats through this.
func (p *RunProbe) Publish(h StageHealth, taskDone bool) { p.publish(h, taskDone) }

// AdvanceFrontier records a remotely-reported committed stage-0
// backward frontier.
func (p *RunProbe) AdvanceFrontier(f int) { p.advanceFrontier(f) }

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
	for _, h := range e.Stages {
		fmt.Fprintf(&b, "\n  stage %d: fwd %d bwd %d, queued %d fwd / %d bwd",
			h.Stage, h.FwdDone, h.BwdDone, h.QueueLen, h.BwdQueueLen)
		if h.BlockedHead >= 0 {
			fmt.Fprintf(&b, ", head subnet %d", h.BlockedHead)
			if h.OwnerSubnet >= 0 {
				fmt.Fprintf(&b, " blocked by subnet %d", h.OwnerSubnet)
			}
		}
		if h.Wedged {
			b.WriteString(", WEDGED")
		}
	}
	return b.String()
}
