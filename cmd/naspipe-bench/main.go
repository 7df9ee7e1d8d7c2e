// Command naspipe-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	naspipe-bench -exp table2            # one experiment
//	naspipe-bench -exp table2,figure5    # several
//	naspipe-bench -exp artifact-compare  # artifact Experiment 1: bitwise, 1 vs 4 GPUs
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
//	naspipe-bench -concurrent -debug-addr :6060       # pprof + the bus counters on /metrics
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
// An injected crash with -checkpoint exits with code 3 after persisting
// the checkpoint, so a shell loop can resume until clean (without one it
// exits 1: there is nothing to resume from); a resumed run that
// completes verifies its suffix trace composes with the committed prefix
// to the uninterrupted sequential result, bitwise. With -supervise the
// supervision plane does the resume loop in-process (crashes and
// watchdog-diagnosed stalls auto-resume from the latest checkpoint) and
// the completed run is verified the same way:
//
//	naspipe-bench -concurrent -faults "seed=7,crash=0.02" -checkpoint run.ckpt -supervise
//
// Exit codes are the naspipe.ExitCode contract, decided by
// naspipe.ExitCodeOf: 0 complete+verified, 1 run/verification failure
// (including supervisor give-up and a crash without -checkpoint),
// 2 usage, 3 resumable (injected crash without -supervise, or
// SIGINT/SIGTERM, with a valid checkpoint).
//
// The -parallel fan-out changes wall-clock time only: reports are
// assembled in canonical experiment order and are byte-identical to a
// serial run. Ctrl-C cancels cooperatively — the partial report printed
// so far is flushed before exit.
package main

import (
	"context"
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
	"naspipe/internal/engine"
	"naspipe/internal/experiments"
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

	if f.ConcurrentRequested() && !*concurrent {
		fmt.Fprintln(os.Stderr, "naspipe-bench: -faults/-checkpoint/-resume/-supervise require -concurrent")
		return naspipe.ExitUsage
	}
	if *concurrent && !*overhead {
		return concurrentSmoke(f)
	}

	// SIGINT/SIGTERM cancel between experiments and runs; the partial
	// report printed so far stays on stdout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Serve pprof even during long experiment sweeps.
	stopDebug, err := f.ServeDebug(os.Stderr, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
		return naspipe.ExitUsage
	}
	defer stopDebug()
	if *concurrent {
		return overheadGate(ctx, f)
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

// concurrentSmoke exercises the goroutine-per-stage execution plane once
// through clicfg's run-and-report path (naspipe.RunJob: under -supervise,
// crashes and watchdog-diagnosed stalls auto-resume in-process and
// health transitions land on the same telemetry bus as the engine
// events) and prints its verification verdict, contention profile, and —
// with the cache enabled — the memory-context profile. With the
// predictor on, a hit rate at or below zero is a regression and fails
// the smoke.
func concurrentSmoke(f *clicfg.Flags) naspipe.ExitCode {
	spec := smokeSpec(f, true)
	// A resumed or supervised run is held to the sequential reference by
	// RunJob (both need -checkpoint, which attaches the training plane).
	spec.Verify = f.Resume || spec.Supervise != nil
	t0 := time.Now()
	return f.Run(context.Background(), os.Stdout, os.Stderr, clicfg.Job{Name: "concurrent", Spec: spec,
		Report: func(res naspipe.Result, _ *naspipe.SuperviseReport) error {
			fmt.Printf("concurrent CSP plane: %d subnets, %d stages, %v wall clock\n",
				res.Completed, res.D, time.Since(t0).Round(time.Microsecond))
			if res.ObservedTrace != nil {
				fmt.Printf("per-layer access order verified against the sequential reference (%d observed events)\n",
					len(res.ObservedTrace.Events))
			}
			fmt.Print(experiments.ContentionTable(res.Contention))
			if res.CacheStats == nil {
				return nil
			}
			fmt.Print(experiments.CacheTable(res.CacheStats))
			fmt.Printf("cache hit rate %s (budget %s of %s supernet, predictor %v)\n",
				experiments.Percent(res.CacheHitRate), experiments.Gigabytes(res.CachedParamBytes),
				experiments.Gigabytes(res.CPUMemBytes), spec.Predictor)
			if spec.Predictor && res.CacheHitRate <= 0 {
				return fmt.Errorf("predictor enabled but cache hit rate is %v", res.CacheHitRate)
			}
			return nil
		}})
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
// bus once. The spec is lowered once, and every run goes straight to
// engine.RunConcurrent: all a job does for a concurrent spec that keeps
// no checkpoint.
func overheadGate(ctx context.Context, f *clicfg.Flags) naspipe.ExitCode {
	spec := smokeSpec(f, false)
	if spec.Checkpoint != "" {
		fmt.Fprintln(os.Stderr, "overhead: the gate times the uncheckpointed smoke config; drop -checkpoint")
		return naspipe.ExitUsage
	}
	job, err := naspipe.LowerJob(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return naspipe.ExitUsage
	}
	timeRun := func(bus *telemetry.Bus) (time.Duration, error) {
		cfg := job.EngineConfig()
		cfg.TimingJitter = 1.0
		cfg.JitterSeed = spec.Seed
		cfg.Telemetry = bus
		runtime.GC()
		t0 := time.Now()
		_, err := engine.RunConcurrent(ctx, cfg)
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
