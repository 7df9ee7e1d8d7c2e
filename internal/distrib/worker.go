package distrib

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"naspipe"
	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/telemetry"
	"naspipe/internal/transport"
)

// WorkerConfig parameterizes one stage worker. Addr/RunID/Stage/
// Incarnation come from the launcher (flags, for the real binary);
// everything else has serviceable defaults.
type WorkerConfig struct {
	Addr        string
	RunID       string
	Stage       int
	Incarnation int

	// DialTimeout bounds each connection attempt (0 = 2s); the dial
	// itself retries under the shared backoff policy until ctx ends.
	DialTimeout time.Duration
	// AssignTimeout bounds the wait for the coordinator's assignment
	// after connecting (0 = 10s).
	AssignTimeout time.Duration
	// Linger bounds the wait for the coordinator's release after the
	// worker reports Done or Failed (0 = 10s) — long enough for the
	// reliable-delivery plane to drain, short enough that an orphaned
	// worker still exits.
	Linger time.Duration
	// HeartbeatEvery is the liveness beacon period (0 = 50ms).
	HeartbeatEvery time.Duration

	Tel *telemetry.Bus
	Log func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.AssignTimeout <= 0 {
		c.AssignTimeout = 10 * time.Second
	}
	if c.Linger <= 0 {
		c.Linger = 10 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 50 * time.Millisecond
	}
	return c
}

func (c WorkerConfig) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// errAborted is the cause a coordinator Abort cancels the run with.
type abortError struct{ reason string }

func (e *abortError) Error() string { return "distrib: aborted by coordinator: " + e.reason }

// Aborted reports whether err is a coordinator-issued abort — the
// expected way a worker dies during fleet teardown. The stage binary
// maps it to the resumable exit code: the coordinator is relaunching
// the fleet, not giving up.
func Aborted(err error) bool {
	var a *abortError
	return errors.As(err, &a)
}

// starTransport adapts the worker's single coordinator link to the
// engine's Transport interface. Sends frame straight onto the link
// (the coordinator routes by destination stage); receives are demuxed
// into per-stage queues by the worker's control loop.
type starTransport struct {
	link *transport.Link
	qs   map[int]chan transport.Msg
}

func (t *starTransport) Send(m transport.Msg) error { return t.link.Send(m.Frame()) }

func (t *starTransport) Recv(stage int) <-chan transport.Msg { return t.qs[stage] }

// Close is a no-op: the worker owns the link's lifecycle.
func (t *starTransport) Close() error { return nil }

// cutSender forwards stage-0 consistency cuts to the coordinator's
// checkpoint recorder as reliable FrameCut messages; cuts and the
// final Done frame share one ordered sequence, so the coordinator
// always has the last cut before it sees the result.
type cutSender struct {
	link  *transport.Link
	stage int
}

func (s cutSender) Snapshot(c fault.Cut) error {
	return s.link.Send(transport.Frame{
		Type: transport.FrameCut, From: s.stage, To: transport.Coordinator,
		Payload: transport.EncodeCut(c),
	})
}

// RunWorker joins the run at wc.Addr, executes the assigned stage, and
// reports the outcome. It returns nil after a clean finish, the
// engine's error otherwise. A cancelled ctx is deliberately silent —
// no Failed frame, no farewell — because that is what real death looks
// like; the coordinator must notice on its own.
func RunWorker(ctx context.Context, wc WorkerConfig) error {
	wc = wc.withDefaults()
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// Every fresh connection introduces itself before carrying
	// anything else, so reconnects re-identify automatically and the
	// coordinator can attach the socket to the right link.
	hello := transport.Hello{RunID: wc.RunID, Stage: wc.Stage, Incarnation: wc.Incarnation}.Encode()
	link := transport.NewLink(transport.LinkConfig{
		Local: wc.Stage, Peer: transport.Coordinator,
		Redial: func(ctx context.Context) (net.Conn, error) {
			d := net.Dialer{Timeout: wc.DialTimeout}
			conn, err := d.DialContext(ctx, "tcp", wc.Addr)
			if err != nil {
				return nil, err
			}
			if err := transport.WriteFrame(conn, transport.Frame{
				Type: transport.FrameHello, From: wc.Stage, To: transport.Coordinator,
				Payload: hello,
			}); err != nil {
				conn.Close()
				return nil, err
			}
			return conn, nil
		},
		Tel: wc.Tel,
	})
	defer link.Close()
	if err := link.Connect(ctx); err != nil {
		return fmt.Errorf("distrib: worker %d connecting to %s: %w", wc.Stage, wc.Addr, err)
	}
	wc.logf("worker %d: connected to %s (incarnation %d)", wc.Stage, wc.Addr, wc.Incarnation)

	// Wait for the assignment; data frames racing ahead of it (another
	// stage started first) are buffered and replayed into the demux.
	assign, pending, err := awaitAssign(ctx, wc, link)
	if err != nil {
		return err
	}
	cfg, err := workerEngineConfig(wc, assign)
	if err != nil {
		return err
	}
	n := cfg.NumSubnets
	wc.logf("worker %d: assigned D=%d cursor=%d (%d subnets to run)", wc.Stage, assign.D, assign.Cursor, n)

	st := &starTransport{link: link, qs: map[int]chan transport.Msg{
		wc.Stage: make(chan transport.Msg, engine.DistQueueCap(assign.D, n)),
	}}
	cfg.Dist = &engine.DistConfig{Transport: st, Stages: []int{wc.Stage}}
	probe := &engine.RunProbe{}
	cfg.Probe = probe
	if wc.Stage == 0 {
		cfg.Checkpoint = cutSender{link: link, stage: 0}
	}

	release := make(chan struct{}, 1)
	go demux(ctx, cancel, link, st, pending, release)
	go heartbeatLoop(ctx, wc, link, probe)

	res, err := engine.RunConcurrent(ctx, cfg)
	if err == nil {
		done := transport.Done{Stage: wc.Stage, Completed: res.Completed}
		if res.ObservedTrace != nil {
			done.Trace = res.ObservedTrace.Events
		}
		if serr := link.Send(transport.Frame{
			Type: transport.FrameDone, From: wc.Stage, To: transport.Coordinator,
			Payload: done.Encode(),
		}); serr != nil {
			return fmt.Errorf("distrib: worker %d reporting done: %w", wc.Stage, serr)
		}
		wc.logf("worker %d: done (%d completed), waiting for release", wc.Stage, res.Completed)
		linger(ctx, wc, release)
		return nil
	}
	if ctx.Err() != nil {
		// Killed or aborted: die the way a killed process does — if the
		// coordinator aborted us it already knows, and if we were
		// killed, silence is the test.
		return context.Cause(ctx)
	}
	failed := transport.Failed{Stage: wc.Stage, Seq: -1, Incarnation: wc.Incarnation, Kind: "error", Msg: err.Error()}
	var crash *fault.CrashError
	if errors.As(err, &crash) {
		failed.Stage, failed.Seq = crash.Stage, crash.Seq
		failed.Incarnation, failed.Kind = crash.Incarnation, "crash"
	}
	if serr := link.Send(transport.Frame{
		Type: transport.FrameFailed, From: wc.Stage, To: transport.Coordinator,
		Payload: failed.Encode(),
	}); serr == nil {
		linger(ctx, wc, release)
	}
	return err
}

// awaitAssign reads frames until the coordinator's assignment arrives,
// buffering any engine traffic that raced ahead of it.
func awaitAssign(ctx context.Context, wc WorkerConfig, link *transport.Link) (transport.Assign, []transport.Frame, error) {
	var pending []transport.Frame
	deadline := time.NewTimer(wc.AssignTimeout)
	defer deadline.Stop()
	for {
		select {
		case <-ctx.Done():
			return transport.Assign{}, nil, context.Cause(ctx)
		case <-deadline.C:
			return transport.Assign{}, nil, fmt.Errorf("distrib: worker %d: no assignment within %v", wc.Stage, wc.AssignTimeout)
		case f, ok := <-link.In():
			if !ok {
				return transport.Assign{}, nil, fmt.Errorf("distrib: worker %d: link closed before assignment", wc.Stage)
			}
			switch f.Type {
			case transport.FrameAssign:
				a, err := transport.DecodeAssign(f.Payload)
				if err != nil {
					return transport.Assign{}, nil, fmt.Errorf("distrib: worker %d: bad assignment: %w", wc.Stage, err)
				}
				return a, pending, nil
			case transport.FrameAbort:
				a, _ := transport.DecodeAbort(f.Payload)
				return transport.Assign{}, nil, &abortError{reason: a.Reason}
			default:
				pending = append(pending, f)
			}
		}
	}
}

// workerEngineConfig turns an assignment into the engine configuration
// for this worker's slice of the run: the engine config of the job the
// assigned spec lowers to, and the resume suffix renumbered from the
// committed cursor (Config.ResumeAt, as in RunJob's resume), so fault
// schedules, traces, and checkpoint cuts all stay globally addressed.
func workerEngineConfig(wc WorkerConfig, a transport.Assign) (engine.Config, error) {
	var spec naspipe.JobSpec
	if err := json.Unmarshal(a.Spec, &spec); err != nil {
		return engine.Config{}, fmt.Errorf("distrib: worker %d: assignment spec: %w", wc.Stage, err)
	}
	job, err := naspipe.LowerJob(spec)
	if err != nil {
		return engine.Config{}, fmt.Errorf("distrib: worker %d: assignment spec: %w", wc.Stage, err)
	}
	cfg := job.EngineConfig()
	if a.D > 0 && a.D != cfg.Spec.GPUs {
		// Elastic resume at a different depth: re-partition the suffix.
		cfg.Spec = naspipe.DefaultCluster(a.D)
	}
	if a.Stage != wc.Stage {
		return engine.Config{}, fmt.Errorf("distrib: worker %d assigned stage %d — launcher and coordinator disagree", wc.Stage, a.Stage)
	}
	if wc.Stage < 0 || wc.Stage >= cfg.Spec.GPUs {
		return engine.Config{}, fmt.Errorf("distrib: worker stage %d outside the %d-stage pipeline", wc.Stage, cfg.Spec.GPUs)
	}
	full := cfg.ResolveSubnets()
	if a.Cursor < 0 || a.Cursor > len(full) {
		return engine.Config{}, fmt.Errorf("distrib: worker %d: cursor %d out of range [0, %d]", wc.Stage, a.Cursor, len(full))
	}
	return cfg.ResumeAt(full, a.Cursor, a.Incarnation), nil
}

// demux is the worker's inbound frame loop: engine traffic into the
// stage queue, Abort into run cancellation, release into the linger
// channel. It is the sole reader of link.In() once the run starts.
func demux(ctx context.Context, cancel context.CancelCauseFunc, link *transport.Link,
	st *starTransport, pending []transport.Frame, release chan struct{}) {
	handle := func(f transport.Frame) {
		switch f.Type {
		case transport.FrameFwd, transport.FrameBwd, transport.FrameNote, transport.FrameFetch:
			m, err := transport.MsgFromFrame(f)
			if err != nil {
				cancel(fmt.Errorf("distrib: corrupt %s frame: %w", f.Type, err))
				return
			}
			q := st.qs[f.To]
			if q == nil {
				return // not ours; a confused relay, drop
			}
			select {
			case q <- m:
			case <-ctx.Done():
			}
		case transport.FrameAbort:
			a, _ := transport.DecodeAbort(f.Payload)
			select {
			case release <- struct{}{}:
			default:
			}
			cancel(&abortError{reason: a.Reason})
		}
	}
	for _, f := range pending {
		handle(f)
	}
	for {
		select {
		case <-ctx.Done():
			return
		case f, ok := <-link.In():
			if !ok {
				return
			}
			handle(f)
		}
	}
}

// heartbeatLoop publishes the worker's liveness and progress on a
// timer. Heartbeats are unsequenced: losing a few is fine, and they
// must not perturb the deterministic sequenced-frame counts the fault
// plane keys on.
func heartbeatLoop(ctx context.Context, wc WorkerConfig, link *transport.Link, probe *engine.RunProbe) {
	t := time.NewTicker(wc.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			frontier, tasks := probe.Progress()
			_ = link.Send(transport.Frame{
				Type: transport.FrameHeartbeat, From: wc.Stage, To: transport.Coordinator,
				Payload: transport.Heartbeat{Stage: wc.Stage, Frontier: frontier, Tasks: tasks}.Encode(),
			})
		}
	}
}

// linger waits for the coordinator's release (or gives up) so the
// reliable-delivery plane can drain the final frames before the
// process exits.
func linger(ctx context.Context, wc WorkerConfig, release chan struct{}) {
	select {
	case <-release:
	case <-ctx.Done():
	case <-time.After(wc.Linger):
		wc.logf("worker %d: no release within %v, exiting", wc.Stage, wc.Linger)
	}
}
