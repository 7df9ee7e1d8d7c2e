package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"naspipe"
	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/supervise"
	"naspipe/internal/telemetry"
	"naspipe/internal/trace"
	"naspipe/internal/transport"
)

// CoordConfig parameterizes a coordinator. Spec, RunID, and Launcher
// are required; everything else defaults.
type CoordConfig struct {
	// Spec is the job: the same versioned JobSpec the service API and
	// CLIs speak. It must select the concurrent executor. The spec's
	// Checkpoint path, Train plane, Supervise block, and Verify flag
	// all apply — the coordinator is the durable half of the fleet.
	Spec naspipe.JobSpec
	// RunID names the run; worker Hellos must match it.
	RunID string
	// Addr is the listen address ("" = 127.0.0.1:0).
	Addr string
	// Launcher starts the stage workers each incarnation.
	Launcher Launcher

	// DeadAfter declares a worker dead when its heartbeats stop for
	// this long (0 = 2s). Transient link cuts heal in milliseconds via
	// reconnect, so anything that trips this is a real death.
	DeadAfter time.Duration
	// Resume starts from the spec's checkpoint file instead of fresh.
	Resume bool

	Tel *telemetry.Bus
	Log func(format string, args ...any)
}

func (c CoordConfig) withDefaults() CoordConfig {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 2 * time.Second
	}
	return c
}

// Coordinator owns one distributed run: the durable cursor, the fleet
// lifecycle, and the global verification.
type Coordinator struct {
	cfg      CoordConfig
	spec     naspipe.JobSpec
	job      *naspipe.Job
	specJSON []byte

	mu          sync.Mutex
	cursor      int
	incarnation int
	rec         *fault.FileRecorder // nil without a checkpoint path
}

// NewCoordinator validates the configuration and builds a coordinator.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.RunID == "" {
		return nil, fmt.Errorf("distrib: coordinator needs a RunID")
	}
	if cfg.Launcher == nil {
		return nil, fmt.Errorf("distrib: coordinator needs a Launcher")
	}
	job, err := naspipe.LowerJob(cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	if cfg.Spec.Executor != "concurrent" {
		return nil, fmt.Errorf("distrib: the distributed plane runs the concurrent executor; spec says %q", cfg.Spec.Executor)
	}
	// Workers lower the spec they are sent. Tracing is not optional on
	// this plane: the merge verification replays every worker's trace.
	wire, on := cfg.Spec, true
	wire.Trace = &on
	specJSON, err := json.Marshal(wire)
	if err != nil {
		return nil, fmt.Errorf("distrib: encoding spec: %w", err)
	}
	return &Coordinator{cfg: cfg, spec: cfg.Spec, job: job, specJSON: specJSON}, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log(format, args...)
	}
}

func (c *Coordinator) state() (cursor, incarnation int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cursor, c.incarnation
}

// record applies a stage-0 consistency cut: the in-memory cursor
// always advances (re-admission after a kill needs it even without a
// checkpoint file), and the file recorder commits it when configured.
func (c *Coordinator) record(cut fault.Cut) error {
	c.mu.Lock()
	if cut.Cursor > c.cursor {
		c.cursor = cut.Cursor
	}
	rec := c.rec
	c.mu.Unlock()
	if rec != nil {
		return rec.Snapshot(cut)
	}
	return nil
}

// bump rolls the incarnation after an incident so the relaunched fleet
// draws a fresh fault schedule.
func (c *Coordinator) bump() error {
	c.mu.Lock()
	c.incarnation++
	rec := c.rec
	c.mu.Unlock()
	if rec != nil {
		return rec.Bump()
	}
	return nil
}

// Run executes the job to completion under supervision: launch fleet,
// collect, and on any worker death relaunch from the committed cursor
// until the stream finishes or the restart budget runs out. The
// returned Result covers the final incarnation's suffix (BaseSeq tells
// where it started); with spec.Verify it has passed Job.Verify, the
// check RunJob runs, and carries the checksum. Every return path
// flushes the recorder (latest committed cut on disk, no writer).
func (c *Coordinator) Run(ctx context.Context) (res naspipe.Result, rep *supervise.Report, err error) {
	// Resuming, the job's recorder applies the guard RunJob's resume applies before
	// any worker launches: a foreign checkpoint must not reach the fleet.
	rec, err := c.job.OpenCheckpoint(c.cfg.Resume)
	if err != nil {
		return naspipe.Result{}, &supervise.Report{}, fmt.Errorf("distrib: %w", err)
	}
	if rec != nil {
		ck := rec.Committed()
		c.rec, c.cursor, c.incarnation = rec, ck.Cursor, ck.Incarnation
		defer func() {
			if ferr := rec.Flush(); ferr != nil && err == nil {
				err = fmt.Errorf("distrib: flushing the checkpoint: %w", ferr)
			}
			res.CheckpointStats = rec.Stats()
		}()
	}

	scfg, ok := c.spec.SuperviseConfig()
	if !ok {
		scfg = supervise.Defaults()
	}
	scfg.Telemetry = c.cfg.Tel
	scfg.Log = c.cfg.Log
	inc := func(ctx context.Context, gpus int, probe *engine.RunProbe) (engine.Result, error) {
		return c.incarnate(ctx, gpus, probe)
	}
	job := supervise.Job{
		Run: inc, Resume: inc,
		Cursor: func() (int, error) { cur, _ := c.state(); return cur, nil },
		GPUs:   c.spec.GPUs, Total: c.spec.Subnets,
	}
	res, rep, err = supervise.Run(ctx, scfg, job)
	if err != nil {
		return res, rep, err
	}
	if res, err = c.job.Verify(res); err != nil || !c.spec.Verify {
		return res, rep, err
	}
	c.logf("coordinator: resume verified: weights %016x match the sequential reference", res.Checksum)
	return res, rep, nil
}

// workerExit is a process-watcher report: the stage whose process
// ended, and how.
type workerExit struct {
	stage int
	err   error
}

// fleetState is one incarnation's mutable bookkeeping, shared between
// the control pumps, the accept loop, and the main select loop.
type fleetState struct {
	mu        sync.Mutex
	beats     []time.Time
	lastTasks []int64
	done      []*transport.Done
	remaining int

	allDone chan struct{}
	deaths  chan workerExit
	failed  chan *transport.Failed
}

func newFleetState(gpus int) *fleetState {
	st := &fleetState{
		beats:     make([]time.Time, gpus),
		lastTasks: make([]int64, gpus),
		done:      make([]*transport.Done, gpus),
		remaining: gpus,
		allDone:   make(chan struct{}),
		deaths:    make(chan workerExit, gpus),
		failed:    make(chan *transport.Failed, gpus),
	}
	now := time.Now()
	for k := range st.beats {
		st.beats[k] = now
	}
	return st
}

func (st *fleetState) beat(stage int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if stage >= 0 && stage < len(st.beats) {
		st.beats[stage] = time.Now()
	}
}

// taskDelta returns how many tasks the stage completed since its last
// heartbeat (to feed the probe's monotone counter).
func (st *fleetState) taskDelta(stage int, tasks int64) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if stage < 0 || stage >= len(st.lastTasks) {
		return 0
	}
	d := tasks - st.lastTasks[stage]
	if d < 0 {
		d = 0
	}
	st.lastTasks[stage] = tasks
	return d
}

func (st *fleetState) setDone(stage int, d *transport.Done) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if stage < 0 || stage >= len(st.done) || st.done[stage] != nil {
		return
	}
	st.done[stage] = d
	if st.remaining--; st.remaining == 0 {
		close(st.allDone)
	}
}

func (st *fleetState) isDone(stage int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return stage >= 0 && stage < len(st.done) && st.done[stage] != nil
}

// deadStage returns the first stage whose heartbeat is older than the
// deadline and has not finished, or -1.
func (st *fleetState) deadStage(deadAfter time.Duration) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	for k, b := range st.beats {
		if st.done[k] == nil && now.Sub(b) > deadAfter {
			return k
		}
	}
	return -1
}

// incarnate runs one fleet incarnation: listen, launch one worker per
// stage, hand out the peer table, serve the control traffic, and
// either collect every Done (success) or convert the first death into
// a *fault.CrashError after tearing the fleet down (the supervision
// plane resumes from the committed cursor).
func (c *Coordinator) incarnate(parent context.Context, gpus int, probe *engine.RunProbe) (engine.Result, error) {
	cursor, incNo := c.state()
	total := c.spec.Subnets
	start := time.Now()
	res := engine.Result{
		Policy: "NASPipe", Space: c.spec.Space, D: gpus, // the workers' CSP admission
		BaseSeq: cursor,
	}
	if cursor >= total {
		// The previous incarnation's crash landed after the final
		// commit; nothing left to run.
		res.Completed = 0
		return res, nil
	}
	probe.Attach(gpus, cursor)

	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return res, fmt.Errorf("distrib: listen %s: %w", c.cfg.Addr, err)
	}
	defer ln.Close()

	// Control links only: engine traffic flows on the workers' mesh,
	// where the job's transport faults fire.
	links := make([]*transport.Link, gpus)
	for k := range links {
		links[k] = transport.NewLink(transport.LinkConfig{
			Local: transport.Coordinator, Peer: k, Tel: c.cfg.Tel,
		})
	}
	defer func() {
		for _, l := range links {
			l.Close()
		}
	}()

	st := newFleetState(gpus)
	go c.acceptLoop(ln, links, gpus, cursor, incNo, st)
	var pumps sync.WaitGroup
	for k := range links {
		pumps.Add(1)
		go func(k int) {
			defer pumps.Done()
			c.pump(ctx, k, links, probe, st)
		}(k)
	}

	procs := make([]Process, gpus)
	// teardown is the one way an incarnation ends short of success: kill
	// the fleet, stop the pumps, and roll the incarnation so the relaunch
	// (or a later resume) draws a fresh fault schedule — in particular an
	// incarnation-pinned crash or wedge cannot refire. It returns cause.
	teardown := func(why string, cause error) (engine.Result, error) {
		c.logf("coordinator: incarnation %d: %s; tearing fleet down", incNo, why)
		c.killFleet(procs, links, why)
		cancel()
		pumps.Wait()
		if berr := c.bump(); berr != nil {
			return res, fmt.Errorf("distrib: recording incarnation %d's end: %w (it ended with: %v)", incNo, berr, cause)
		}
		return res, cause
	}
	// died charges a worker death to the committed cursor; the
	// supervision plane resumes from there.
	died := func(stage int, why string) (engine.Result, error) {
		cur, _ := c.state()
		return teardown(fmt.Sprintf("stage %d died (%s)", stage, why),
			&fault.CrashError{Stage: stage, Seq: cur, Incarnation: incNo})
	}
	addr := ln.Addr().String()
	for k := range procs {
		p, lerr := c.cfg.Launcher.Start(ctx, WorkerSpec{
			Addr: addr, RunID: c.cfg.RunID, Stage: k, Incarnation: incNo,
		})
		if lerr != nil {
			return teardown("launch failed", fmt.Errorf("distrib: %w", lerr))
		}
		procs[k] = p
		go func(k int, p Process) {
			werr := p.Wait()
			select {
			case st.deaths <- workerExit{stage: k, err: werr}:
			case <-ctx.Done():
			}
		}(k, p)
	}
	c.logf("coordinator: incarnation %d: fleet of %d launched (cursor %d/%d) on %s", incNo, gpus, cursor, total, addr)

	deadTick := time.NewTicker(c.cfg.DeadAfter / 4)
	defer deadTick.Stop()
	for {
		select {
		case <-parent.Done():
			return teardown("interrupted", parent.Err())
		case <-st.allDone:
			c.broadcast(links, "complete")
			c.reapFleet(procs)
			cancel()
			pumps.Wait()
			return c.finish(res, gpus, cursor, st, start)
		case f := <-st.failed:
			if f.Kind == "crash" {
				return teardown(fmt.Sprintf("stage %d reported crash at seq %d", f.Stage, f.Seq),
					&fault.CrashError{Stage: f.Stage, Seq: f.Seq, Kind: 0, Incarnation: f.Incarnation})
			}
			// A non-crash worker failure (spec rejected, transport
			// poisoned) is not survivable by relaunch.
			return teardown("worker failed", fmt.Errorf("distrib: stage %d failed: %s", f.Stage, f.Msg))
		case we := <-st.deaths:
			if st.isDone(we.stage) {
				continue // clean exit after Done — expected
			}
			return died(we.stage, fmt.Sprintf("process exited: %v", we.err))
		case <-deadTick.C:
			if k := st.deadStage(c.cfg.DeadAfter); k >= 0 {
				return died(k, fmt.Sprintf("no heartbeat for %v", c.cfg.DeadAfter))
			}
		}
	}
}

// finish assembles the incarnation's Result from the fleet's Done
// reports: stage 0's completion count is authoritative, and the
// workers' observed traces merge topologically into the global
// observation the verification plane replays.
func (c *Coordinator) finish(res engine.Result, gpus, cursor int, st *fleetState, start time.Time) (engine.Result, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	parts := make([]*trace.Trace, 0, gpus)
	for k, d := range st.done {
		if d == nil {
			return res, fmt.Errorf("distrib: stage %d never reported done", k)
		}
		if k == 0 {
			res.Completed = d.Completed
		}
		parts = append(parts, &trace.Trace{Events: d.Trace})
	}
	res.ObservedTrace = engine.MergeStageTraces(gpus, cursor, parts)
	res.TotalMs = float64(time.Since(start)) / float64(time.Millisecond)
	if res.TotalMs > 0 {
		res.SubnetsPerHour = float64(res.Completed) / (res.TotalMs / 3.6e6)
	}
	// The final cut normally lands before Done on the ordered link,
	// but an unthrottled recorder is not guaranteed — commit the
	// authoritative count.
	final := cursor + res.Completed
	if final > c.cursorLocked() {
		c.mu.Lock()
		if final > c.cursor {
			c.cursor = final
		}
		c.mu.Unlock()
	}
	c.logf("coordinator: stream complete: %d subnets (cursor %d), %d trace events merged",
		res.Completed, final, len(res.ObservedTrace.Events))
	return res, nil
}

func (c *Coordinator) cursorLocked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cursor
}

// killFleet aborts and kills every worker. Abort is best-effort (the
// dead one cannot hear it); Kill is not.
func (c *Coordinator) killFleet(procs []Process, links []*transport.Link, why string) {
	c.broadcast(links, why)
	for _, p := range procs {
		if p != nil {
			p.Kill()
		}
	}
}

// reapFleet waits briefly for clean worker exits after a release
// broadcast, then kills stragglers.
func (c *Coordinator) reapFleet(procs []Process) {
	deadline := time.After(2 * time.Second)
	done := make(chan struct{})
	go func() {
		for _, p := range procs {
			if p != nil {
				p.Wait()
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-deadline:
		for _, p := range procs {
			if p != nil {
				p.Kill()
			}
		}
	}
}

// broadcast sends an Abort to every connected worker.
func (c *Coordinator) broadcast(links []*transport.Link, reason string) {
	payload := transport.Abort{Reason: reason}.Encode()
	for k, l := range links {
		_ = l.Send(transport.Frame{
			Type: transport.FrameAbort, From: transport.Coordinator, To: k,
			Payload: payload,
		})
	}
}

// acceptLoop owns the listener: every inbound connection introduces
// itself with a Hello, and the conn is attached to its stage's link.
// Reconnects after a cut re-enter here — same handshake, same link,
// and the link's reliability plane retransmits whatever the dead conn
// lost. Stale incarnations (a zombie surviving a fleet kill) are
// refused. Each Hello carries the address its worker accepts peer data
// links on; once every stage has said hello, each worker is assigned its
// stage with the whole address table, so the fleet can join its mesh.
func (c *Coordinator) acceptLoop(ln net.Listener, links []*transport.Link,
	gpus, cursor, incNo int, st *fleetState) {
	var mu sync.Mutex
	peers := make([]string, gpus)
	assigned := false
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed with the incarnation
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			f, err := transport.ReadFrame(conn)
			if err != nil || f.Type != transport.FrameHello {
				conn.Close()
				return
			}
			h, err := transport.DecodeHello(f.Payload)
			if err != nil || h.RunID != c.cfg.RunID || h.Stage < 0 || h.Stage >= gpus || h.Addr == "" {
				conn.Close()
				return
			}
			if h.Incarnation != incNo {
				// A zombie from before the fleet restart: refuse it.
				transport.WriteFrame(conn, transport.Frame{
					Type: transport.FrameAbort, From: transport.Coordinator, To: h.Stage,
					Payload: transport.Abort{Reason: fmt.Sprintf("stale incarnation %d (current %d)", h.Incarnation, incNo)}.Encode(),
				})
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{})
			// (Re)issue the assignment once the table is whole: to the
			// whole fleet when this Hello completes it, to this stage
			// alone on a reconnect. A worker acts on the first one it
			// sees and ignores the rest.
			var to []int
			mu.Lock()
			links[h.Stage].Attach(conn)
			st.beat(h.Stage)
			if peers[h.Stage] == "" {
				peers[h.Stage] = h.Addr
			}
			switch {
			case assigned:
				to = []int{h.Stage}
			case !slices.Contains(peers, ""):
				assigned = true
				for k := range links {
					to = append(to, k)
				}
			}
			mu.Unlock()
			for _, k := range to {
				_ = links[k].Send(transport.Frame{
					Type: transport.FrameAssign, From: transport.Coordinator, To: k,
					Payload: transport.Assign{
						Stage: k, D: gpus, Cursor: cursor,
						Incarnation: incNo, Spec: c.specJSON, Peers: peers,
					}.Encode(),
				})
			}
		}(conn)
	}
}

// pump serves one stage's control traffic: cuts feed the checkpoint
// recorder, heartbeats the fleet state and the health probe, Done and
// Failed the main loop.
func (c *Coordinator) pump(ctx context.Context, k int, links []*transport.Link,
	probe *engine.RunProbe, st *fleetState) {
	for {
		select {
		case <-ctx.Done():
			return
		case f, ok := <-links[k].In():
			if !ok {
				return
			}
			switch f.Type {
			case transport.FrameCut:
				cut, err := transport.DecodeCut(f.Payload)
				if err == nil {
					if rerr := c.record(cut); rerr != nil {
						c.logf("coordinator: checkpoint save failed: %v", rerr)
					}
				}
			case transport.FrameHeartbeat:
				h, err := transport.DecodeHeartbeat(f.Payload)
				if err != nil {
					continue
				}
				st.beat(h.Stage)
				probe.AdvanceFrontier(h.Frontier)
				health := engine.StageHealth{Stage: h.Stage, BlockedHead: -1, OwnerSubnet: -1}
				delta := st.taskDelta(h.Stage, h.Tasks)
				if delta == 0 {
					probe.Publish(health, false)
				}
				for ; delta > 0; delta-- {
					probe.Publish(health, true)
				}
			case transport.FrameDone:
				d, err := transport.DecodeDone(f.Payload)
				if err == nil {
					st.setDone(k, &d)
				}
			case transport.FrameFailed:
				fl, err := transport.DecodeFailed(f.Payload)
				if err == nil {
					select {
					case st.failed <- &fl:
					default:
					}
				}
			}
		}
	}
}

// ErrNotDistributed marks spec shapes the plane cannot run.
var ErrNotDistributed = errors.New("distrib: spec does not describe a distributed run")
