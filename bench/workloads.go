package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"naspipe"
	"naspipe/internal/cluster"
	"naspipe/internal/distrib"
	"naspipe/internal/engine"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
	"naspipe/internal/supervise"
	"naspipe/internal/telemetry"
	"naspipe/internal/train"
)

const (
	// streams is how many pre-generated input streams an op cycles
	// over (seeds seed..seed+7), so one run averages over several
	// dependency structures instead of measuring one draw.
	streams = 8
	// depth is the pipeline depth of every concurrent workload,
	// independent of the host's core count.
	depth = 4
	// opTimeout turns a hung op into a failed op.
	opTimeout = 2 * time.Minute
)

// workload is one named load shape. setup builds its inputs from the
// seed (streams, reference checksums, temp files) and returns the
// instance whose op the runner then drives in a closed loop.
type workload struct {
	name  string
	why   string
	setup func(seed uint64, small bool, dir string) (*instance, error)
}

// instance is a set-up workload.
type instance struct {
	subnets int // subnets whose result one op checks
	op      func(o *opRun) error
	// knownLeaks is how many goroutines the program is known to leave
	// behind for the calls made through this instance so far; only
	// leaks beyond it fail the workload (see fleet.run).
	knownLeaks int
	// probes makes the standalone timed calls into the layers this
	// workload exercises and writes their per-layer metrics.
	probes func(pm metrics) error
}

var workloads = []workload{
	{"pipe-local", "scheduling-bound: 0.95 dependency rate, dim 8; engine+csp+trace are ~85% of the op, numeric ~10%", setupPipeLocal},
	{"pipe-numeric", "compute-bound mirror of pipe-local: 0.46 dependency rate, dim 64; train/tensor/layers are ~90% of the op", setupPipeNumeric},
	{"pipe-cache", "prefetch cache hit-dominated (factor 3, predictor on) with real copy delays, so late copies cost wall time", setupPipeCache},
	{"pipe-thrash", "same cache miss/evict/drop-dominated (factor 1.5, no predictor), so a change helping hits and hurting misses shows", setupPipeThrash},
	{"fleet-tcp", "transport+distrib carry every frame over loopback TCP through the star; only here codec, Link, relay, launch/teardown matter", setupFleetTCP},
	{"ckpt-crash", "three pinned crashes per run: fault.FileRecorder, train.Checkpointer and supervise dominate; engine runs under cuts and resumes", setupCkptCrash},
	{"sim-sweep", "four policies on the simulated plane: DES+sched+memctx back every table; bypasses goroutines, transport and numeric", setupSimSweep},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pipe is the shared shape of the four pipe-* workloads: RunConcurrent
// on a pre-sampled stream, then a numeric replay of the observed trace
// checked against the setup-time sequential reference.
type pipe struct {
	space supernet.Space
	tc    train.Config
	cfgs  [streams]engine.Config
	refs  [streams]uint64
}

func newPipe(space supernet.Space, seed uint64, n, dim, batch int, mem engine.MemPlaneConfig) *pipe {
	p := &pipe{
		space: space,
		tc:    train.Config{Space: space, Dim: dim, Seed: seed, BatchSize: batch, LR: 0.05},
	}
	for i := range p.cfgs {
		subs := supernet.Sample(space, seed+uint64(i), n)
		p.cfgs[i] = engine.Config{
			Space: space, Spec: cluster.Default(depth), Seed: seed + uint64(i),
			NumSubnets: n, Subnets: subs, RecordTrace: true, ConcurrentMem: mem,
		}
		p.refs[i] = train.Sequential(p.tc, subs).Checksum
	}
	return p
}

func (p *pipe) op(o *opRun) error {
	cfg := p.cfgs[o.stream]
	cfg.Telemetry = o.newBus(cfg.NumSubnets)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var res engine.Result
	err := o.call(spanEngine, func() (err error) {
		res, err = engine.RunConcurrent(ctx, cfg)
		return err
	})
	if err != nil {
		return err
	}
	o.countResult(res)
	var got uint64
	err = o.call(spanReplay, func() error {
		rep, err := train.Replay(p.tc, cfg.Subnets, res.ObservedTrace)
		got = rep.Checksum
		return err
	})
	if err != nil {
		return err
	}
	if got != p.refs[o.stream] {
		return fmt.Errorf("replayed checksum %016x, sequential reference %016x", got, p.refs[o.stream])
	}
	return nil
}

func (p *pipe) instance(probes func(pm metrics) error) *instance {
	return &instance{subnets: p.cfgs[0].NumSubnets, op: p.op, probes: probes}
}

func pick(small bool, smallN, n int) int {
	if small {
		return smallN
	}
	return n
}

func setupPipeLocal(seed uint64, small bool, _ string) (*instance, error) {
	p := newPipe(supernet.NLPc3.Scaled(8, 3), seed, pick(small, 32, 256), 8, 2, engine.MemPlaneConfig{})
	return p.instance(func(pm metrics) error {
		w, err := probeSupernet(pm, p)
		if err != nil {
			return err
		}
		probeCSP(pm, w)
		probeTrain(pm, p, false)
		return probeTrace(pm, p.cfgs[0])
	}), nil
}

func setupPipeNumeric(seed uint64, small bool, _ string) (*instance, error) {
	p := newPipe(supernet.NLPc3.Scaled(8, 12), seed, pick(small, 16, 96), 64, 4, engine.MemPlaneConfig{})
	return p.instance(func(pm metrics) error {
		probeTrain(pm, p, true)
		_, err := probeSupernet(pm, p)
		return err
	}), nil
}

// cacheFetchScale plays modeled copies at 5 % of real time. At 1 % the
// cache's waits are tens of microseconds, below what a Go sleep can
// deliver once every P is idle (it rounds up to the netpoller's 1 ms), so
// op time measured sleep overshoot, not copies, and moved by 12-22 %
// between runs of one binary on one seed.
const cacheFetchScale = 0.05

func setupPipeCache(seed uint64, small bool, _ string) (*instance, error) {
	mem := engine.MemPlaneConfig{CacheFactor: 3, Predictor: true, FetchMsScale: cacheFetchScale}
	p := newPipe(supernet.NLPc3.Scaled(8, 3), seed, pick(small, 32, 64), 8, 2, mem)
	return p.instance(func(pm metrics) error {
		probePrefetch(pm, p)
		_, err := probeSupernet(pm, p)
		return err
	}), nil
}

func setupPipeThrash(seed uint64, small bool, _ string) (*instance, error) {
	mem := engine.MemPlaneConfig{CacheFactor: 1.5, FetchMsScale: cacheFetchScale}
	p := newPipe(supernet.NLPc3.Scaled(8, 3), seed, pick(small, 32, 64), 8, 2, mem)
	return p.instance(func(pm metrics) error {
		probePrefetch(pm, p)
		_, err := probeSupernet(pm, p)
		return err
	}), nil
}

// fleet is fleet-tcp: a coordinator plus four in-process stage workers
// over real loopback TCP links.
type fleet struct {
	tcs   [streams]train.Config // the train seed follows the spec's
	specs [streams]naspipe.JobSpec
	subs  [streams][]supernet.Subnet
	refs  [streams]uint64
}

func fleetSpec(seed uint64, n int) naspipe.JobSpec {
	return naspipe.JobSpec{
		Space: "NLP.c3", ScaleBlocks: 8, ScaleChoices: 3,
		Executor: "concurrent", GPUs: depth, Subnets: n, Seed: seed,
		Train:  &naspipe.TrainSpec{Dim: 8, BatchSize: 2, LR: 0.05},
		Verify: true,
	}
}

// runFleet runs one job to completion and returns its merged result.
//
// Every job leaves one goroutine behind at this benchmark's parent
// commit: Coordinator.reapFleet's waiter blocks in inprocProcess.Wait
// on a result the launch-time death watcher already consumed (which is
// also why reapFleet always runs into its 2 s deadline). The leak is
// reported in process.goroutines_leaked and allowed for, one per job,
// so the ledger starts green and any further leak still fails.
func runFleet(in *instance, spec naspipe.JobSpec, runID string, bus *telemetry.Bus) (naspipe.Result, error) {
	in.knownLeaks++
	co, err := distrib.NewCoordinator(distrib.CoordConfig{
		Spec: spec, RunID: runID, Tel: bus,
		Launcher: &distrib.InProcLauncher{Tel: bus},
	})
	if err != nil {
		return naspipe.Result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	res, rep, err := co.Run(ctx)
	if err != nil {
		return res, err
	}
	if rep.Restarts != 0 || res.Completed != spec.Subnets {
		return res, fmt.Errorf("fleet completed %d/%d subnets with %d restarts, want all with 0", res.Completed, spec.Subnets, rep.Restarts)
	}
	return res, nil
}

func setupFleetTCP(seed uint64, small bool, _ string) (*instance, error) {
	n := pick(small, 16, 2048)
	f := &fleet{}
	for i := range f.specs {
		f.specs[i] = fleetSpec(seed+uint64(i), n)
		cfg, err := f.specs[i].Config()
		if err != nil {
			return nil, err
		}
		f.tcs[i], _ = f.specs[i].TrainConfig()
		f.subs[i] = cfg.ResolveSubnets()
		f.refs[i] = train.Sequential(f.tcs[i], f.subs[i]).Checksum
	}
	in := &instance{subnets: n}
	in.op = func(o *opRun) error {
		bus := o.newBus(n)
		var res naspipe.Result
		err := o.call(spanEngine, func() (err error) {
			res, err = runFleet(in, f.specs[o.stream], fmt.Sprintf("bench-%d", o.id), bus)
			return err
		})
		if err != nil {
			return err
		}
		var got uint64
		err = o.call(spanReplay, func() error {
			rep, err := train.Replay(f.tcs[o.stream], f.subs[o.stream], res.ObservedTrace)
			got = rep.Checksum
			return err
		})
		if err != nil {
			return err
		}
		if got != f.refs[o.stream] {
			return fmt.Errorf("fleet checksum %016x, sequential reference %016x", got, f.refs[o.stream])
		}
		return nil
	}
	in.probes = func(pm metrics) error {
		if err := probeTransport(pm, seed, small); err != nil {
			return err
		}
		cfg, err := f.specs[0].Config()
		if err != nil {
			return err
		}
		cfg.Subnets = f.subs[0]
		if err := probeTrace(pm, cfg); err != nil {
			return err
		}
		return probeDistrib(pm, in, seed, n)
	}
	return in, nil
}

func setupCkptCrash(seed uint64, small bool, dir string) (*instance, error) {
	n := pick(small, 32, 128)
	p := newPipe(supernet.NLPc3.Scaled(8, 3), seed, n, 8, 2, engine.MemPlaneConfig{})
	// A storm entry fires only in its own incarnation, so the restart
	// count is exactly three on every run.
	plan, err := naspipe.ParseFaultPlan(fmt.Sprintf("seed=%d,crashat=0:1:%d:F,crashat=1:2:%d:F,crashat=2:1:%d:F",
		seed, n/4, n/2, 3*n/4))
	if err != nil {
		return nil, err
	}
	runner, err := naspipe.NewRunner(
		naspipe.WithExecutor(naspipe.ExecutorConcurrent),
		naspipe.WithTrace(true),
		naspipe.WithFaults(plan),
		naspipe.WithCheckpoint(filepath.Join(dir, "run.ckpt")),
		naspipe.WithCheckpointTraining(p.tc),
	)
	if err != nil {
		return nil, err
	}
	op := func(o *opRun) error {
		cfg := p.cfgs[o.stream]
		cfg.Telemetry = o.newBus(n)
		sc := naspipe.DefaultSuperviseConfig()
		sc.BackoffBase, sc.BackoffMax = 100*time.Microsecond, time.Millisecond
		sc.Telemetry = cfg.Telemetry
		var degradedAt time.Time
		sc.Observer = func(t supervise.Transition) {
			switch {
			case t.To == supervise.Degraded:
				degradedAt = time.Now()
			case t.To == supervise.Running && !degradedAt.IsZero():
				o.pass.c.recoveryMs = append(o.pass.c.recoveryMs, ms(time.Since(degradedAt)))
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		var res naspipe.Result
		var rep *naspipe.SuperviseReport
		err := o.call(spanEngine, func() (err error) {
			res, rep, err = runner.RunSupervised(ctx, cfg, sc)
			return err
		})
		if err != nil {
			return err
		}
		o.countResult(res)
		o.pass.c.restarts += float64(rep.Restarts)
		if rep.Restarts != 3 {
			return fmt.Errorf("%d restarts, want 3", rep.Restarts)
		}
		var got uint64
		err = o.call(spanReplay, func() (err error) {
			got, err = naspipe.VerifyAgainstSequential(p.tc, cfg, res)
			return err
		})
		if err != nil {
			return err
		}
		if got != p.refs[o.stream] {
			return fmt.Errorf("recovered checksum %016x, sequential reference %016x", got, p.refs[o.stream])
		}
		return nil
	}
	return &instance{subnets: n, op: op, probes: func(pm metrics) error {
		return probeFault(pm, p, dir)
	}}, nil
}

var simPolicies = []string{"naspipe", "gpipe", "pipedream", "vpipe"}

// simColumns are the model outputs that must repeat exactly.
type simColumns struct {
	totalMs, bubble, samplesPerS float64
	completed                    int
}

func setupSimSweep(seed uint64, small bool, _ string) (*instance, error) {
	n := pick(small, 16, 160)
	var cfgs [streams]engine.Config
	for i := range cfgs {
		cfgs[i] = engine.Config{
			Space: supernet.NLPc1, Spec: cluster.Default(8), Seed: seed + uint64(i),
			NumSubnets: n, Subnets: supernet.Sample(supernet.NLPc1, seed+uint64(i), n),
		}
	}
	var first [streams]map[string]simColumns
	op := func(o *opRun) error {
		cols := make(map[string]simColumns, len(simPolicies))
		for _, name := range simPolicies {
			pol, err := sched.New(name)
			if err != nil {
				return err
			}
			cfg := cfgs[o.stream]
			cfg.Telemetry = o.newBus(n)
			var res engine.Result
			err = o.call(spanSim+name, func() (err error) {
				res, err = engine.Run(cfg, pol)
				return err
			})
			if err != nil {
				return err
			}
			if res.Failed || res.Deadlock {
				return fmt.Errorf("%s: failed=%v (%s) deadlock=%v", name, res.Failed, res.FailReason, res.Deadlock)
			}
			cols[name] = simColumns{res.TotalMs, res.BubbleRatio, res.SamplesPerSec, res.Completed}
		}
		if first[o.stream] == nil {
			first[o.stream] = cols
		}
		for _, name := range simPolicies {
			if cols[name] != first[o.stream][name] {
				return fmt.Errorf("%s model columns %+v differ from the stream's first run %+v", name, cols[name], first[o.stream][name])
			}
		}
		return nil
	}
	return &instance{subnets: n * len(simPolicies), op: op, probes: func(pm metrics) error {
		// Stream 0's model columns, which the warm-up op filled: they do
		// not depend on which streams the traced pass reached.
		for _, name := range simPolicies {
			pm.set("sim.bubble_ratio."+name, "share", first[0][name].bubble)
			pm.set("sim.samples_per_s."+name, "1/s", first[0][name].samplesPerS)
		}
		w, err := probeWorld(pm, cfgs[0], engine.PartitionStatic)
		if err != nil {
			return err
		}
		probeCSP(pm, w)
		return nil
	}}, nil
}
