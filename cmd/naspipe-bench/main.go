// Command naspipe-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	naspipe-bench -exp table2            # one experiment
//	naspipe-bench -exp table2,figure5    # several
//	naspipe-bench -exp all               # the whole evaluation (§5)
//	naspipe-bench -exp all -quick        # reduced sizes for a fast pass
//	naspipe-bench -exp all -parallel 4   # fan experiments over 4 workers
//	naspipe-bench -concurrent            # smoke the goroutine-per-stage plane
//
// The smoke's run flags are the shared set from internal/clicfg, parsed
// into the canonical naspipe.JobSpec — the same knobs, names, and
// validation as naspipe-train and the naspiped service API. The default
// smoke workload is NLP.c3 re-geometried to 8 blocks × 3 choices, 48
// subnets (override with -space/-scale-blocks/-scale-choices/-subnets).
//
// The concurrent smoke doubles as the telemetry showcase:
//
//	naspipe-bench -concurrent -trace-out trace.json   # Chrome/Perfetto trace
//	naspipe-bench -concurrent -events-out run.jsonl   # replayable event log
//	naspipe-bench -concurrent -debug-addr :6060       # pprof + live counters
//	naspipe-bench -concurrent -progress 200ms         # periodic counter lines
//	naspipe-bench -concurrent -overhead               # telemetry cost gate
//
// The concurrent smoke also drives the fault-injection plane and the
// crash-consistent checkpoint/resume path:
//
//	naspipe-bench -concurrent -faults "seed=7,drop=0.1,delay=0.05"
//	naspipe-bench -concurrent -faults "crashat=2:9:F" -checkpoint run.ckpt
//	naspipe-bench -concurrent -checkpoint run.ckpt -resume
//
// An injected crash exits with code 3 after persisting the checkpoint
// (when -checkpoint is set), so a shell loop can resume until clean; a
// resumed run that completes verifies its suffix trace composes with
// the committed prefix to the uninterrupted sequential result, bitwise.
// With -supervise the supervision plane does the resume loop in-process
// (crashes and watchdog-diagnosed stalls auto-resume from the latest
// checkpoint) and the completed run is verified the same way:
//
//	naspipe-bench -concurrent -faults "seed=7,crash=0.02" -checkpoint run.ckpt -supervise
//
// Exit codes are the naspipe.ExitCode contract: 0 complete+verified,
// 1 run/verification failure (including supervisor give-up), 2 usage,
// 3 resumable (injected crash without -supervise, or SIGINT/SIGTERM
// with a valid checkpoint).
//
// The -parallel fan-out changes wall-clock time only: reports are
// assembled in canonical experiment order and are byte-identical to a
// serial run. Ctrl-C cancels cooperatively — the partial report printed
// so far is flushed before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"naspipe"
	"naspipe/internal/clicfg"
	"naspipe/internal/metrics"
	"naspipe/internal/telemetry"
)

func main() {
	os.Exit(int(run()))
}

func run() naspipe.ExitCode {
	f := clicfg.Register(flag.CommandLine, clicfg.Defaults{Space: "NLP.c3", GPUs: 8})
	var (
		exps       = flag.String("exp", "all", "comma-separated experiment names, or 'all' (known: "+strings.Join(naspipe.ExperimentNames(), ", ")+")")
		quick      = flag.Bool("quick", false, "reduced sizes for a fast smoke pass")
		par        = flag.Int("parallel", 0, "experiment fan-out workers (0 = GOMAXPROCS, 1 = serial)")
		concurrent = flag.Bool("concurrent", false, "run a goroutine-per-stage CSP smoke instead of experiments")
		overhead   = flag.Bool("overhead", false, "with -concurrent: measure telemetry overhead (off vs on) and fail above 5%")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel between tasks; a checkpointed run exits
	// resumable (3) with its committed frontier already on disk.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if f.DebugAddr != "" {
		// The bus is swapped in by whichever mode runs; serve immediately so
		// pprof is reachable even during long experiment sweeps.
		addr, shutdown, err := telemetry.ServeDebug(f.DebugAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
			return naspipe.ExitUsage
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/ (pprof, vars, telemetry)\n", addr)
	}

	if f.Resume && f.Checkpoint == "" {
		fmt.Fprintln(os.Stderr, "naspipe-bench: -resume requires -checkpoint")
		return naspipe.ExitUsage
	}
	if f.ConcurrentRequested() && !*concurrent {
		fmt.Fprintln(os.Stderr, "naspipe-bench: -faults/-checkpoint/-resume/-supervise require -concurrent")
		return naspipe.ExitUsage
	}
	if *concurrent {
		if *overhead {
			return overheadGate(ctx, f)
		}
		return concurrentSmoke(ctx, f)
	}

	o := naspipe.DefaultExperimentOptions()
	if *quick {
		o = naspipe.QuickExperimentOptions()
	}
	o.Seed = f.Seed
	o.GPUs = f.GPUs
	o.Parallelism = *par
	if f.Subnets > 0 {
		o.Subnets = f.Subnets
	}

	if *exps == "all" {
		t0 := time.Now()
		out, err := naspipe.AllExperimentsContext(ctx, o)
		fmt.Print(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "all: %v\n", err)
			return naspipe.ExitFailure
		}
		fmt.Printf("[all %d experiments completed in %v]\n", len(naspipe.ExperimentNames()), time.Since(t0).Round(time.Millisecond))
		return naspipe.ExitOK
	}

	exit := naspipe.ExitOK
	for _, name := range strings.Split(*exps, ",") {
		name = strings.TrimSpace(name)
		t0 := time.Now()
		out, err := naspipe.ExperimentContext(ctx, name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			exit = naspipe.ExitFailure
			continue
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}
	return exit
}

// smokeSpec assembles the concurrent smoke's JobSpec from the shared
// flags: the canonical workload is NLP.c3 scaled to 8×3 with 48 subnets
// unless overridden, with the numeric training plane attached whenever
// a checkpoint is kept (prefix checksums + resume verification).
func smokeSpec(f *clicfg.Flags, trace bool) naspipe.JobSpec {
	spec := f.Spec(naspipe.ExecutorConcurrent.String())
	if spec.ScaleBlocks == 0 && spec.ScaleChoices == 0 {
		spec.ScaleBlocks, spec.ScaleChoices = 8, 3
	}
	if spec.Subnets == 0 {
		spec.Subnets = 48
	}
	spec.Trace = &trace
	if spec.Checkpoint != "" {
		spec.Train = &naspipe.TrainSpec{Dim: 8, BatchSize: 2, LR: 0.05}
	}
	return spec
}

// runSpec builds the runner for spec and executes it, optionally
// publishing to bus, resuming when the flags say so.
func runSpec(ctx context.Context, f *clicfg.Flags, spec naspipe.JobSpec, bus *telemetry.Bus) (naspipe.Result, error) {
	opts, cfg, err := naspipe.FromSpec(spec)
	if err != nil {
		return naspipe.Result{}, err
	}
	if bus != nil {
		opts = append(opts, naspipe.WithTelemetry(bus))
	}
	r, err := naspipe.NewRunner(opts...)
	if err != nil {
		return naspipe.Result{}, err
	}
	if f.Resume {
		return r.Resume(ctx, cfg)
	}
	return r.Run(ctx, cfg)
}

// runSupervisedSpec executes the smoke workload under the supervision
// plane: crashes and watchdog-diagnosed stalls auto-resume in-process
// from the checkpoint, and health transitions land on the same
// telemetry bus as the engine events.
func runSupervisedSpec(ctx context.Context, f *clicfg.Flags, spec naspipe.JobSpec, bus *telemetry.Bus) (naspipe.Result, *naspipe.SuperviseReport, error) {
	opts, cfg, err := naspipe.FromSpec(spec)
	if err != nil {
		return naspipe.Result{}, nil, err
	}
	if bus != nil {
		opts = append(opts, naspipe.WithTelemetry(bus))
	}
	r, err := naspipe.NewRunner(opts...)
	if err != nil {
		return naspipe.Result{}, nil, err
	}
	sc, _ := spec.SuperviseConfig()
	sc.Telemetry = bus
	sc.Log = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if f.Resume {
		return r.ResumeSupervised(ctx, cfg, sc)
	}
	return r.RunSupervised(ctx, cfg, sc)
}

// concurrentSmoke exercises the goroutine-per-stage execution plane once
// and prints its verification verdict, contention profile, and — with the
// cache enabled — the memory-context profile. With the predictor on, a
// hit rate at or below zero is a regression and fails the smoke.
func concurrentSmoke(ctx context.Context, f *clicfg.Flags) naspipe.ExitCode {
	spec := smokeSpec(f, true)
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return naspipe.ExitUsage
	}
	var bus *telemetry.Bus
	if f.TraceOut != "" || f.EventsOut != "" || f.DebugAddr != "" || f.Progress > 0 {
		bus = telemetry.NewBus(0)
		if f.DebugAddr != "" {
			telemetry.PublishBus(bus)
		}
	}
	stopProgress := telemetry.StartProgress(os.Stderr, bus, f.Progress)

	t0 := time.Now()
	var (
		res naspipe.Result
		rep *naspipe.SuperviseReport
		err error
	)
	if spec.Supervise != nil {
		res, rep, err = runSupervisedSpec(ctx, f, spec, bus)
	} else {
		res, err = runSpec(ctx, f, spec, bus)
	}
	stopProgress()
	if err != nil {
		var crash *naspipe.CrashError
		var giveUp *naspipe.GiveUpError
		switch {
		case errors.As(err, &giveUp):
			fmt.Fprintf(os.Stderr, "concurrent: supervisor gave up: %v\n", err)
			if bus != nil {
				exportTelemetry(bus, f.TraceOut, f.EventsOut)
			}
			return naspipe.ExitFailure
		case errors.As(err, &crash):
			fmt.Fprintf(os.Stderr, "concurrent: injected crash: %v\n", err)
			if spec.Checkpoint != "" {
				printBenchCheckpoint(spec.Checkpoint, "rerun with -resume")
			}
			if bus != nil {
				// The fault timeline up to the crash is the artifact that
				// matters; export it even though the run died.
				exportTelemetry(bus, f.TraceOut, f.EventsOut)
			}
			return naspipe.ExitResumable
		case ctx.Err() != nil:
			fmt.Fprintf(os.Stderr, "concurrent: interrupted: %v\n", err)
			if spec.Checkpoint != "" {
				printBenchCheckpoint(spec.Checkpoint, "rerun with -resume (or -supervise -resume)")
				if bus != nil {
					exportTelemetry(bus, f.TraceOut, f.EventsOut)
				}
				return naspipe.ExitResumable
			}
			return naspipe.ExitFailure
		default:
			fmt.Fprintf(os.Stderr, "concurrent: %v\n", err)
			return naspipe.ExitFailure
		}
	}
	fmt.Printf("concurrent CSP plane: %d subnets, %d stages, %v wall clock\n",
		res.Completed, res.D, time.Since(t0).Round(time.Microsecond))
	if rep != nil {
		fmt.Printf("supervised run: %d restarts, %d watchdog fires, final state %s, final D=%d\n",
			rep.Restarts, rep.WatchdogFires, rep.FinalState, rep.FinalGPUs)
		if len(rep.ElasticSteps) > 0 {
			fmt.Printf("elastic depth steps: %v\n", rep.ElasticSteps)
		}
	}
	if res.ObservedTrace != nil {
		fmt.Printf("per-layer access order verified against the sequential reference (%d observed events)\n",
			len(res.ObservedTrace.Events))
	}
	if f.Resume || spec.Supervise != nil {
		tc, ok := spec.TrainConfig()
		cfg, cerr := spec.Config()
		if !ok || cerr != nil {
			fmt.Fprintln(os.Stderr, "resume verification: no training plane attached (set -checkpoint)")
			return naspipe.ExitFailure
		}
		if _, verr := naspipe.VerifyAgainstSequential(tc, cfg, res); verr != nil {
			fmt.Fprintf(os.Stderr, "resume verification: %v\n", verr)
			return naspipe.ExitFailure
		}
		fmt.Printf("resume verified: prefix [0,%d) + replayed suffix == uninterrupted sequential weights, bitwise\n", res.BaseSeq)
	}
	fmt.Print(metrics.ContentionTable(res.Contention))
	if res.CacheStats != nil {
		fmt.Print(metrics.CacheTable(res.CacheStats))
		fmt.Printf("cache hit rate %s (budget %s of %s supernet, predictor %v)\n",
			metrics.Percent(res.CacheHitRate), metrics.Gigabytes(res.CachedParamBytes),
			metrics.Gigabytes(res.CPUMemBytes), spec.Predictor)
		if spec.Predictor && res.CacheHitRate <= 0 {
			fmt.Fprintf(os.Stderr, "concurrent: predictor enabled but cache hit rate is %v\n", res.CacheHitRate)
			return naspipe.ExitFailure
		}
	}
	if spec.Checkpoint != "" {
		// Where a recovery's time went has an fsync share: only the
		// synchronous saves were on anyone's critical path.
		fmt.Printf("checkpoint plane: %v\n", res.CheckpointStats)
	}
	if bus != nil {
		fmt.Println("telemetry: " + bus.Snapshot().String())
		if code := exportTelemetry(bus, f.TraceOut, f.EventsOut); code != 0 {
			return naspipe.ExitCode(code)
		}
	}
	return naspipe.ExitOK
}

// printBenchCheckpoint reports the on-disk checkpoint a resumable exit
// leaves behind, with the flag hint for continuing the run.
func printBenchCheckpoint(path, hint string) {
	ck, err := naspipe.LoadCheckpoint(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkpoint: %s unreadable: %v\n", path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "checkpoint: %s at cursor %d/%d, incarnation %d — %s\n",
		path, ck.Cursor, ck.NumSubnets, ck.Incarnation, hint)
}

// exportTelemetry writes the captured stream to the requested files; the
// Chrome trace is validated after writing so a malformed export fails the
// command instead of failing later in the browser.
func exportTelemetry(bus *telemetry.Bus, traceOut, eventsOut string) int {
	if dropped := bus.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "telemetry: ring dropped %d events; exports are truncated (raise the bus capacity)\n", dropped)
	}
	lines, err := telemetry.ExportFiles(bus, traceOut, eventsOut)
	for _, l := range lines {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// The overhead gate times (off, on) pairs in blocks of overheadPairs and
// judges the median of the pairs' on/off ratios. It stops at the first
// block after which that median is inside the gate and fails only if it
// is still outside after overheadBlocks: on a shared host one ≈ 50 ms run
// differs from the next by ±10 %, so nine pairs read a true ≈ 2.5 % as
// over 5 % about one time in eight, and thirty-six about never.
const (
	overheadPairs  = 9
	overheadBlocks = 4
)

// overheadGate times the smoke config with telemetry disabled and
// enabled and fails if the enabled run is more than 5% slower. The gate
// config adds modeled kernel timings (TimingJitter): against the bare
// smoke run — whose "compute" is a single scheduler yield, i.e.
// zero-length tasks — any fixed per-event cost is unboundedly large in
// relative terms, which measures the degenerate baseline rather than the
// telemetry. Each task really sleeps its jittered duration: the engine
// waits through clock.Sleep, where on Go timers every ≤ 50 µs wait took a
// netpoller millisecond and the same telemetry cost read six times
// smaller. The arms alternate (off, on, off, on, …) and are compared pair
// by pair, so a slow phase of the host slows both alike instead of
// covering one arm whole. Each run starts from a collected heap, as a
// testing.B benchmark does: the on arm's fresh ring is 5 MB, and the GC
// cycle that allocation sets off otherwise runs inside the timed run —
// ≈ 1.5 ms of harness, not of telemetry, since a process allocates its
// bus once.
func overheadGate(ctx context.Context, f *clicfg.Flags) naspipe.ExitCode {
	spec := smokeSpec(f, false)
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return naspipe.ExitUsage
	}
	timeRun := func(bus *telemetry.Bus) (time.Duration, error) {
		opts, cfg, err := naspipe.FromSpec(spec)
		if err != nil {
			return 0, err
		}
		cfg.TimingJitter = 1.0
		cfg.JitterSeed = spec.Seed
		if bus != nil {
			opts = append(opts, naspipe.WithTelemetry(bus))
		}
		r, err := naspipe.NewRunner(opts...)
		if err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := time.Now()
		_, err = r.Run(ctx, cfg)
		return time.Since(t0), err
	}
	var ratios []float64
	pct := 0.0
	for block := 0; block < overheadBlocks; block++ {
		for i := 0; i < overheadPairs; i++ {
			off, err := timeRun(nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "overhead (telemetry off): %v\n", err)
				return naspipe.ExitFailure
			}
			on, err := timeRun(telemetry.NewBus(0))
			if err != nil {
				fmt.Fprintf(os.Stderr, "overhead (telemetry on): %v\n", err)
				return naspipe.ExitFailure
			}
			ratios = append(ratios, float64(on)/float64(off))
		}
		sort.Float64s(ratios)
		pct = 100 * (ratios[len(ratios)/2] - 1)
		if pct <= 5 {
			break
		}
	}
	fmt.Printf("telemetry overhead: %+.1f%% (median on/off of %d alternating pairs, gate 5%%)\n", pct, len(ratios))
	if pct > 5 {
		fmt.Fprintf(os.Stderr, "overhead: telemetry costs %.1f%% on the smoke config (gate: 5%%)\n", pct)
		return naspipe.ExitFailure
	}
	return naspipe.ExitOK
}
