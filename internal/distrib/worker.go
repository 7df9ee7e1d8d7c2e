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

// meshTransport is the worker's engine Transport: one fault-tolerant
// Link to every peer stage, so each message crosses one TCP hop. Sends
// go straight onto the destination's link; the peer links' receive
// pumps feed the one stage queue the engine drains.
type meshTransport struct {
	links []*transport.Link // by peer stage; nil at this worker's own
	in    chan transport.Msg
}

func (t *meshTransport) Send(m transport.Msg) error {
	if m.To < 0 || m.To >= len(t.links) || t.links[m.To] == nil {
		return fmt.Errorf("distrib: no data link from stage %d to stage %d", m.From, m.To)
	}
	return t.links[m.To].Send(m.Frame())
}

func (t *meshTransport) Recv(int) <-chan transport.Msg { return t.in }

// Close closes every peer link. The engine never calls it; the worker
// does, on its way out.
func (t *meshTransport) Close() error {
	for _, l := range t.links {
		if l != nil {
			l.Close()
		}
	}
	return nil
}

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

	// Peers reach this worker's data links on the interface it reaches
	// the coordinator by; the listener opens beside the first coordinator
	// connection and its address rides every Hello.
	var peers net.Listener
	defer func() {
		if peers != nil {
			peers.Close()
		}
	}()
	// Every fresh connection introduces itself before carrying
	// anything else, so reconnects re-identify automatically and the
	// coordinator can attach the socket to the right link.
	link := transport.NewLink(transport.LinkConfig{
		Local: wc.Stage, Peer: transport.Coordinator,
		Redial: func(ctx context.Context) (net.Conn, error) {
			d := net.Dialer{Timeout: wc.DialTimeout}
			conn, err := d.DialContext(ctx, "tcp", wc.Addr)
			if err != nil {
				return nil, err
			}
			if peers == nil {
				host, _, _ := net.SplitHostPort(conn.LocalAddr().String())
				if peers, err = net.Listen("tcp", net.JoinHostPort(host, "0")); err != nil {
					conn.Close()
					return nil, err
				}
			}
			hello := transport.Hello{RunID: wc.RunID, Stage: wc.Stage, Incarnation: wc.Incarnation,
				Addr: peers.Addr().String()}
			if err := writeHello(conn, hello, transport.Coordinator); err != nil {
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
	// Beacons start with the connection: the assignment waits for the
	// whole fleet's Hellos, and the death deadline runs meanwhile.
	probe := &engine.RunProbe{}
	go heartbeatLoop(ctx, wc, link, probe)

	assign, err := awaitAssign(ctx, wc, link)
	if err != nil {
		return err
	}
	cfg, err := workerEngineConfig(wc, assign)
	if err != nil {
		return err
	}
	n := cfg.NumSubnets
	wc.logf("worker %d: assigned D=%d cursor=%d (%d subnets to run)", wc.Stage, assign.D, assign.Cursor, n)
	release := make(chan struct{}, 1)
	go demux(ctx, cancel, link, release)

	mesh, err := joinMesh(ctx, cancel, wc, assign, peers, cfg.Faults, engine.DistQueueCap(assign.D, n))
	defer mesh.Close()
	if err != nil {
		return err
	}
	cfg.Dist = &engine.DistConfig{Transport: mesh, Stages: []int{wc.Stage}}
	cfg.Probe = probe
	if wc.Stage == 0 {
		cfg.Checkpoint = cutSender{link: link, stage: 0}
	}

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

// writeHello introduces a fresh connection to the coordinator or a peer.
func writeHello(conn net.Conn, h transport.Hello, to int) error {
	return transport.WriteFrame(conn, transport.Frame{
		Type: transport.FrameHello, From: h.Stage, To: to, Payload: h.Encode(),
	})
}

// awaitAssign reads the control link until the coordinator's
// assignment arrives.
func awaitAssign(ctx context.Context, wc WorkerConfig, link *transport.Link) (transport.Assign, error) {
	deadline := time.NewTimer(wc.AssignTimeout)
	defer deadline.Stop()
	for {
		select {
		case <-ctx.Done():
			return transport.Assign{}, context.Cause(ctx)
		case <-deadline.C:
			return transport.Assign{}, fmt.Errorf("distrib: worker %d: no assignment within %v", wc.Stage, wc.AssignTimeout)
		case f, ok := <-link.In():
			if !ok {
				return transport.Assign{}, fmt.Errorf("distrib: worker %d: link closed before assignment", wc.Stage)
			}
			switch f.Type {
			case transport.FrameAssign:
				a, err := transport.DecodeAssign(f.Payload)
				if err != nil {
					return transport.Assign{}, fmt.Errorf("distrib: worker %d: bad assignment: %w", wc.Stage, err)
				}
				return a, nil
			case transport.FrameAbort:
				a, _ := transport.DecodeAbort(f.Payload)
				return transport.Assign{}, &abortError{reason: a.Reason}
			}
		}
	}
}

// joinMesh opens this worker's data links, one per peer stage: it dials
// every lower stage at the address the assignment lists and accepts
// every higher one on its own listener, each side presenting a Hello
// that the other fences on run ID and incarnation, as the coordinator
// fences its own. The job's transport faults (linkdrop, linkdropat,
// disconnect, partition) fire on the sending end of each link, the
// link's peer standing for the key's stage. joinMesh returns once every
// link is up, with a receive pump per link feeding the stage queue; the
// listener keeps accepting for the life of the worker, which is how a
// cut link redialled by its peer heals. The returned transport is the
// caller's to Close, even on error.
func joinMesh(ctx context.Context, cancel context.CancelCauseFunc, wc WorkerConfig, a transport.Assign,
	peers net.Listener, plan *fault.Plan, queueCap int) (*meshTransport, error) {
	mesh := &meshTransport{links: make([]*transport.Link, a.D), in: make(chan transport.Msg, queueCap)}
	if len(a.Peers) != a.D {
		return mesh, fmt.Errorf("distrib: worker %d: assignment lists %d peer addresses for %d stages", wc.Stage, len(a.Peers), a.D)
	}
	var inj *fault.Injector
	if plan.TransportEnabled() {
		var err error
		if inj, err = fault.NewInjector(*plan, a.Incarnation); err != nil {
			return mesh, err
		}
	}
	hello := transport.Hello{RunID: wc.RunID, Stage: wc.Stage, Incarnation: wc.Incarnation}
	for j := range mesh.links {
		if j == wc.Stage {
			continue
		}
		lc := transport.LinkConfig{Local: wc.Stage, Peer: j, Injector: inj, Tel: wc.Tel}
		if j < wc.Stage {
			addr, to := a.Peers[j], j
			lc.Redial = func(ctx context.Context) (net.Conn, error) {
				d := net.Dialer{Timeout: wc.DialTimeout}
				conn, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					return nil, err
				}
				if err := writeHello(conn, hello, to); err != nil {
					conn.Close()
					return nil, err
				}
				return conn, nil
			}
		}
		mesh.links[j] = transport.NewLink(lc)
	}

	up := make(chan int, a.D) // each peer stage once, on its link's first connection
	go acceptPeers(wc, peers, mesh.links, up)
	for j, l := range mesh.links {
		if l != nil && j < wc.Stage {
			go func(j int, l *transport.Link) {
				if l.Connect(ctx) == nil {
					up <- j
				}
			}(j, l)
		}
	}
	deadline := time.NewTimer(wc.AssignTimeout)
	defer deadline.Stop()
	for joined := 0; joined < a.D-1; joined++ {
		select {
		case <-up:
		case <-ctx.Done():
			return mesh, context.Cause(ctx)
		case <-deadline.C:
			return mesh, fmt.Errorf("distrib: worker %d: %d of %d peer links up within %v", wc.Stage, joined, a.D-1, wc.AssignTimeout)
		}
	}
	for _, l := range mesh.links {
		if l != nil {
			go pumpPeer(ctx, cancel, l, mesh.in)
		}
	}
	return mesh, nil
}

// acceptPeers attaches every connection a higher peer stage dials to
// that stage's link, once its Hello passes the fence, until the
// listener closes with the worker. A Hello from another run or
// incarnation, or from a stage that does not dial this one, is refused.
func acceptPeers(wc WorkerConfig, ln net.Listener, links []*transport.Link, up chan<- int) {
	seen := make([]bool, len(links))
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := transport.ReadFrame(conn)
		if err != nil || f.Type != transport.FrameHello {
			conn.Close()
			continue
		}
		h, err := transport.DecodeHello(f.Payload)
		if err != nil || h.RunID != wc.RunID || h.Incarnation != wc.Incarnation ||
			h.Stage <= wc.Stage || h.Stage >= len(links) {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Time{})
		links[h.Stage].Attach(conn)
		if !seen[h.Stage] {
			seen[h.Stage] = true
			up <- h.Stage
		}
	}
}

// pumpPeer is one peer link's receive loop: each engine frame decoded
// into the stage queue, in the link's order, until the link closes.
func pumpPeer(ctx context.Context, cancel context.CancelCauseFunc, l *transport.Link, in chan<- transport.Msg) {
	for f := range l.In() {
		switch f.Type {
		case transport.FrameFwd, transport.FrameBwd, transport.FrameNote, transport.FrameFetch:
			m, err := transport.MsgFromFrame(f)
			if err != nil {
				cancel(fmt.Errorf("distrib: corrupt %s frame: %w", f.Type, err))
				return
			}
			select {
			case in <- m:
			case <-ctx.Done():
				return
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

// demux is the worker's control loop: an Abort from the coordinator
// cancels the run and releases the linger. It is the sole reader of the
// coordinator link's In() once the run starts.
func demux(ctx context.Context, cancel context.CancelCauseFunc, link *transport.Link, release chan struct{}) {
	for {
		select {
		case <-ctx.Done():
			return
		case f, ok := <-link.In():
			if !ok {
				return
			}
			if f.Type == transport.FrameAbort {
				a, _ := transport.DecodeAbort(f.Payload)
				select {
				case release <- struct{}{}:
				default:
				}
				cancel(&abortError{reason: a.Reason})
			}
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
