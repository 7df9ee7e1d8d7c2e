package main

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"naspipe"
	"naspipe/internal/csp"
	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/prefetch"
	"naspipe/internal/supernet"
	"naspipe/internal/tensor"
	"naspipe/internal/trace"
	"naspipe/internal/train"
	"naspipe/internal/transport"
)

// Standalone probes: timed calls straight into one layer's public
// functions, on inputs taken from the workload's own streams. Each
// workload runs the probes of the layers it exercises; the rest of its
// per-layer metrics read 0.

// probeDur is how long one probe's timing loop runs at least.
const probeDur = 40 * time.Millisecond

// probeSupernet times stream sampling and world construction, and
// returns the world.
func probeSupernet(pm metrics, p *pipe) (*engine.World, error) {
	cfg := p.cfgs[0]
	ns := timeLoop(1, probeDur, func() { supernet.Sample(p.space, cfg.Seed, cfg.NumSubnets) })
	pm.set("supernet.sample_us_per_subnet", "us", ns/float64(cfg.NumSubnets)/1e3)
	return probeWorld(pm, cfg, engine.PartitionBalanced)
}

func probeWorld(pm metrics, cfg engine.Config, mode engine.PartitionMode) (*engine.World, error) {
	w, err := engine.NewWorld(cfg, mode)
	if err != nil {
		return nil, err
	}
	ns := timeLoop(1, probeDur, func() { _, _ = engine.NewWorld(cfg, mode) })
	pm.set("engine.new_world_us_per_subnet", "us", ns/float64(len(w.Subnets))/1e3)
	return w, nil
}

// probeCSP drives one stage-0 scheduler through the whole stream the
// way a stage goroutine does — register, admit from a window, retire
// the oldest admitted subnet whenever every queued forward is blocked —
// with no goroutines, channels or clock in the way.
func probeCSP(pm metrics, w *engine.World) {
	n := len(w.Subnets)
	infos := make([]csp.SubnetInfo, n)
	for i := range infos {
		infos[i] = csp.SubnetInfo{Seq: i, AllLayers: w.AllLayerIDs(i), StageLayers: w.StageLayerIDs(i, 0)}
	}
	const window = 12 // the engine's default in-flight limit at D=4
	ns := timeLoop(1, probeDur, func() {
		s := csp.New(0)
		for _, info := range infos {
			// Seqs are distinct, the only thing AddSubnet rejects.
			_ = s.AddSubnet(info)
		}
		next := 0
		var queue, running []int
		for finished := 0; finished < n; {
			for len(queue) < window && next < n {
				queue = append(queue, next)
				next++
			}
			if qi, seq := s.Schedule(queue); qi >= 0 {
				queue = append(queue[:qi], queue[qi+1:]...)
				running = append(running, seq)
				continue
			}
			seq := running[0]
			running = running[1:]
			s.MarkWritten(seq, infos[seq].AllLayers)
			s.MarkFinished(seq)
			finished++
		}
	})
	pm.set("csp.admit_ns_per_subnet", "ns", ns/float64(n))
}

// probeTrace times the trace layer's verification and reconstruction
// calls on one real observed trace.
func probeTrace(pm metrics, cfg engine.Config) error {
	cfg.RecordTrace = true
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	res, err := engine.RunConcurrent(ctx, cfg)
	if err != nil {
		return err
	}
	w, err := engine.NewWorld(cfg, engine.PartitionBalanced)
	if err != nil {
		return err
	}
	events := float64(res.Trace.Len())
	pm.set("trace.per_layer_equal_ns_per_event", "ns",
		timeLoop(1, probeDur, func() { res.ObservedTrace.PerLayerEqual(res.Trace) })/events)
	pm.set("trace.canonical_ns_per_event", "ns",
		timeLoop(1, probeDur, func() { engine.CanonicalTrace(w) })/events)
	parts := make([]*trace.Trace, depth)
	for k := range parts {
		parts[k] = engine.FilterTrace(res.ObservedTrace, []int{k})
	}
	pm.set("engine.merge_stage_traces_us_per_event", "us",
		timeLoop(1, probeDur, func() { engine.MergeStageTraces(depth, 0, parts) })/events/1e3)
	return nil
}

// probeTrain times the numeric plane at both model dimensions the
// workloads use; the tensor kernels only where they dominate (dim 64).
func probeTrain(pm metrics, p *pipe, kernels bool) {
	subs := p.cfgs[0].Subnets
	for _, dim := range []int{8, 64} {
		tc := p.tc
		tc.Dim = dim
		net := supernet.BuildNumeric(p.space, dim, tc.Seed)
		i := 0
		ns := timeLoop(8, probeDur, func() {
			train.StepOn(tc, net, subs[i%len(subs)])
			i++
		})
		pm.set(fmt.Sprintf("train.step_us_dim%d", dim), "us", ns/1e3)
	}
	ns := timeLoop(1, probeDur, func() { train.Sequential(p.tc, subs) })
	pm.set("train.sequential_us_per_subnet", "us", ns/float64(len(subs))/1e3)
	if !kernels {
		return
	}
	const dim = 64
	m := tensor.NewMatrix(dim, dim)
	x, y := make(tensor.Vector, dim), make(tensor.Vector, dim)
	for i := range x {
		x[i] = float32(i%7) * 0.25
		m.Set(i, i, 0.5)
	}
	pm.set("tensor.matvec_ns_dim64", "ns", timeLoop(256, probeDur, func() { tensor.MatVec(y, m, x) }))
	pm.set("tensor.outer_accum_ns_dim64", "ns", timeLoop(256, probeDur, func() { tensor.OuterAccum(m, x, y, 1e-6) }))
	const kib = dim * dim * 4 / 1024
	pm.set("tensor.checksum_ns_per_kib", "ns", timeLoop(64, probeDur, func() { m.Checksum() })/kib)
}

// probePrefetch times the cache's compute-path bracket on resident
// layers: the cost every task pays even when every access hits.
func probePrefetch(pm metrics, p *pipe) {
	ids := p.cfgs[0].Subnets[0].LayerIDs(p.space)
	bytes := func(supernet.LayerID) int64 { return 1 << 20 }
	c := prefetch.New(-1, 15760e3, 0)
	pm.set("prefetch.acquire_release_ns", "ns", timeLoop(256, probeDur, func() {
		c.Acquire(ids, bytes)
		c.Release(ids)
	}))
}

// linkPair is two Links joined over one loopback TCP connection.
type linkPair struct {
	dial, accept *transport.Link
	ln           net.Listener
}

func newLinkPair() (*linkPair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lp := &linkPair{
		ln:     ln,
		accept: transport.NewLink(transport.LinkConfig{Local: 1, Peer: 0}),
		dial: transport.NewLink(transport.LinkConfig{Local: 0, Peer: 1,
			Redial: func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "tcp", ln.Addr().String())
			}}),
	}
	accepted := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			lp.accept.Attach(conn)
		}
		accepted <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = lp.dial.Connect(ctx)
	if err != nil {
		ln.Close() // unblocks Accept
	}
	if aerr := <-accepted; err == nil {
		err = aerr
	}
	if err != nil {
		lp.close()
		return nil, err
	}
	return lp, nil
}

func (lp *linkPair) close() {
	lp.dial.Close()
	lp.accept.Close()
	lp.ln.Close()
}

func probeTransport(pm metrics, seed uint64, small bool) error {
	msg := transport.Msg{Type: transport.FrameBwd, From: 1, To: 0, Seq: 1234,
		Carried: []csp.PendingBackward{{}, {}}}
	var buf []byte
	pm.set("transport.frame_encode_ns", "ns", timeLoop(1024, probeDur, func() {
		buf = transport.AppendFrame(buf[:0], msg.Frame())
	}))
	var perr error
	pm.set("transport.frame_parse_ns", "ns", timeLoop(1024, probeDur, func() {
		f, _, err := transport.ParseFrame(buf)
		if err == nil {
			_, err = transport.MsgFromFrame(f)
		}
		if err != nil {
			perr = err
		}
	}))
	if perr != nil {
		return fmt.Errorf("frame round trip: %w", perr)
	}

	ct := transport.NewChanTransport(2, 16)
	hop := transport.Msg{Type: transport.FrameFwd, From: 0, To: 1, Seq: 1}
	pm.set("transport.chan_hop_ns", "ns", timeLoop(1024, probeDur, func() {
		// Send only fails after Close.
		_ = ct.Send(hop)
		<-ct.Recv(1)
	}))
	ct.Close()

	if err := probeChanRun(pm, seed, small); err != nil {
		return err
	}
	return probeLink(pm, small)
}

// probeChanRun runs one stream through the executor on local channels
// and through ChanTransport, alternating, and reports what the
// indirection costs.
func probeChanRun(pm metrics, seed uint64, small bool) error {
	space := supernet.NLPc3.Scaled(8, 3)
	n := pick(small, 32, 256)
	cfg := engine.Config{Space: space, Spec: naspipe.DefaultCluster(depth), Seed: seed,
		NumSubnets: n, Subnets: supernet.Sample(space, seed, n), RecordTrace: true}
	stages := make([]int, depth)
	for k := range stages {
		stages[k] = k
	}
	var local, viaChan []float64
	for i := 0; i < pick(small, 2, 9); i++ {
		for _, dist := range []bool{false, true} {
			c := cfg
			var ct *transport.ChanTransport
			if dist {
				ct = transport.NewChanTransport(depth, engine.DistQueueCap(depth, n))
				c.Dist = &engine.DistConfig{Transport: ct, Stages: stages}
			}
			start := time.Now()
			_, err := engine.RunConcurrent(context.Background(), c)
			el := ms(time.Since(start))
			if dist {
				ct.Close()
				viaChan = append(viaChan, el)
			} else {
				local = append(local, el)
			}
			if err != nil {
				return fmt.Errorf("chan-transport run: %w", err)
			}
		}
	}
	pm.set("transport.chan_run_overhead_pct", "%", (median(viaChan)/median(local)-1)*100)
	return nil
}

// probeLink measures one reliable Link over loopback TCP: the round
// trip of a sequenced frame, and how many frames per second it carries
// one way, in bursts of 64, with acks flowing back.
func probeLink(pm metrics, small bool) error {
	lp, err := newLinkPair()
	if err != nil {
		return err
	}
	defer lp.close()
	// The accept side echoes forwards; in-order delivery makes one echo
	// prove every earlier frame arrived.
	go func() {
		for f := range lp.accept.In() {
			if f.Type == transport.FrameFwd {
				_ = lp.accept.Send(f) // fails only once closed, ending the range
			}
		}
	}()
	ping := transport.Msg{Type: transport.FrameFwd, From: 0, To: 1, Seq: 1}.Frame()
	roundTrip := func() error {
		if err := lp.dial.Send(ping); err != nil {
			return err
		}
		select {
		case <-lp.dial.In():
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("link echo timed out")
		}
	}
	var rtt []float64
	for i := 0; i < pick(small, 20, 400); i++ {
		start := time.Now()
		if err := roundTrip(); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(start).Nanoseconds())/1e3)
	}
	pm.set("transport.link_rtt_us_p50", "us", median(rtt))

	// One-way throughput, in bursts each closed by an echo. A Link writes
	// acks and go-back-N retransmits from its reader goroutine, under its
	// mutex: once both socket buffers are full the two readers block in
	// Write on each other for good. An unbounded flood of 20 000 frames
	// did that once in some hundred runs, when a stall fired the 40 ms
	// backstop and every duplicate frame's ack resent the whole window.
	// A burst bounds the window: even that cascade is 64 x 64 frames,
	// whose acks fit the smallest loopback receive buffer.
	const burst = 64
	bursts := pick(small, 8, 320)
	note := transport.Msg{Type: transport.FrameNote, From: 0, To: 1, Seq: 1,
		IDs: []supernet.LayerID{1, 2, 3}}.Frame()
	start := time.Now()
	for b := 0; b < bursts; b++ {
		for i := 0; i < burst; i++ {
			if err := lp.dial.Send(note); err != nil {
				return err
			}
		}
		if err := roundTrip(); err != nil {
			return err
		}
	}
	pm.set("transport.link_frames_per_s", "1/s", float64(bursts*(burst+1))/time.Since(start).Seconds())
	return nil
}

// probeDistrib separates a fleet job's fixed cost (launch, handshake,
// verification, teardown) from its per-subnet cost: it times 16-subnet
// jobs and sets them against the traced pass's full-size job time
// already in pm. At smoke size the workload's own jobs are that small,
// so they are the fixed-cost sample.
func probeDistrib(pm metrics, in *instance, seed uint64, n int) error {
	const tiny = 16
	if n <= tiny {
		pm.set("distrib.job_fixed_ms", "ms", pm["engine.run_ms_p50"].Value)
		return nil
	}
	var fixed []float64
	for i := 0; i < 2; i++ {
		start := time.Now()
		if _, err := runFleet(in, fleetSpec(seed, tiny), fmt.Sprintf("bench-fixed-%d", i), nil); err != nil {
			return err
		}
		fixed = append(fixed, ms(time.Since(start)))
	}
	pm.set("distrib.job_fixed_ms", "ms", median(fixed))
	pm.set("distrib.marginal_us_per_subnet", "us",
		(pm["engine.run_ms_p50"].Value-median(fixed))*1e3/float64(n-tiny))
	return nil
}

// probeFault times the checkpoint format and file, and what running
// under the checkpoint plane (no faults) costs over a plain run.
func probeFault(pm metrics, p *pipe, dir string) error {
	cfg := p.cfgs[0]
	n := cfg.NumSubnets
	ck := fault.Checkpoint{Space: p.space.Name, Seed: cfg.Seed, GPUs: depth, NumSubnets: n,
		Cursor: n / 2, WeightChecksum: p.refs[0], Finished: []int{n/2 + 1, n/2 + 3}}
	pm.set("fault.checkpoint_encode_ns", "ns", timeLoop(256, probeDur, func() { ck.Encode() }))
	path := filepath.Join(dir, "probe.ckpt")
	var serr error
	ns := timeLoop(4, probeDur, func() {
		if err := ck.Save(path); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	pm.set("fault.checkpoint_save_us", "us", ns/1e3)

	runner, err := naspipe.NewRunner(
		naspipe.WithExecutor(naspipe.ExecutorConcurrent),
		naspipe.WithTrace(true),
		naspipe.WithCheckpoint(filepath.Join(dir, "overhead.ckpt")),
		naspipe.WithCheckpointTraining(p.tc),
	)
	if err != nil {
		return err
	}
	var plain, checkpointed []float64
	for i := 0; i < 7; i++ {
		start := time.Now()
		if _, err := engine.RunConcurrent(context.Background(), cfg); err != nil {
			return err
		}
		plain = append(plain, ms(time.Since(start)))
		start = time.Now()
		if _, err := runner.Run(context.Background(), cfg); err != nil {
			return err
		}
		checkpointed = append(checkpointed, ms(time.Since(start)))
	}
	pm.set("fault.checkpointed_run_overhead_pct", "%", (median(checkpointed)/median(plain)-1)*100)
	return nil
}
