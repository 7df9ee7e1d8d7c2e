// Command naspipe-train runs one pipeline supernet-training simulation
// and reports its metrics: throughput, bubble ratio, GPU utilization,
// cache hit rate, and memory footprints.
//
// Usage:
//
//	naspipe-train -space NLP.c1 -policy naspipe -gpus 8 -subnets 240
//	naspipe-train -space NLP.c1 -policy gpipe   # compare a baseline
//	naspipe-train -trace-out run.json           # Chrome trace (simulated time)
//	naspipe-train -debug-addr :6060             # pprof + live counters
//
// Every run flag is the shared set from internal/clicfg, parsed into
// the canonical naspipe.JobSpec — the same knobs, names, and validation
// as naspipe-bench and the naspiped service API.
//
// Fault injection and crash-consistent checkpoint/resume run on the
// concurrent (goroutine-per-stage) plane, selected automatically when
// any of these flags is given:
//
//	naspipe-train -faults "seed=7,drop=0.1" -checkpoint run.ckpt
//	naspipe-train -checkpoint run.ckpt -resume      # continue after a crash
//	naspipe-train -faults "seed=7,crash=0.02" -checkpoint run.ckpt -supervise
//
// With -supervise the supervision plane catches crashes and
// watchdog-diagnosed stalls in-process and resumes from the latest
// checkpoint — no operator intervention, no process restarts; -elastic N
// additionally halves the pipeline depth after N consecutive incidents
// on one stage. SIGINT/SIGTERM interrupt gracefully: the committed
// frontier is already checkpointed, so the process exits resumable.
//
// Exit codes are the naspipe.ExitCode contract CI and operators rely on:
//
//	0 — run complete (and verified where applicable)
//	1 — run or verification failure, including supervisor give-up
//	2 — usage error
//	3 — resumable interruption: injected crash without -supervise, or
//	    SIGINT/SIGTERM with a valid checkpoint; rerun with -resume
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"naspipe"
	"naspipe/internal/clicfg"
	"naspipe/internal/telemetry"
)

func main() {
	os.Exit(int(run()))
}

func run() naspipe.ExitCode {
	f := clicfg.Register(flag.CommandLine, clicfg.Defaults{Space: "NLP.c1", GPUs: 8, Subnets: 240, Window: 48})
	saveTr := flag.String("save-trace", "", "write the parameter-access trace record to this file for naspipe-replay")
	flag.Parse()

	if f.ConcurrentRequested() {
		return concurrentFaultRun(f)
	}
	spec := f.Spec(naspipe.ExecutorSimulated.String())
	if *saveTr != "" {
		t := true
		spec.Trace = &t
	}
	cfg, err := spec.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return naspipe.ExitUsage
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return naspipe.ExitUsage
	}
	var bus *naspipe.TelemetryBus
	if f.TraceOut != "" || f.EventsOut != "" || f.DebugAddr != "" || f.Progress > 0 {
		bus = naspipe.NewTelemetryBus(0)
		cfg.Telemetry = bus
	}
	if f.DebugAddr != "" {
		addr, shutdown, err := telemetry.ServeDebug(f.DebugAddr, bus)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return naspipe.ExitUsage
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/ (pprof, vars, telemetry)\n", addr)
	}
	stopProgress := telemetry.StartProgress(os.Stderr, bus, f.Progress)
	res, err := naspipe.RunPolicy(cfg, spec.Policy)
	stopProgress()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return naspipe.ExitUsage
	}
	if res.Failed {
		fmt.Printf("%s cannot run %s on %d GPUs: %s\n", res.Policy, cfg.Space.Name, spec.GPUs, res.FailReason)
		return naspipe.ExitFailure
	}

	fmt.Printf("system:            %s (%s on %d GPUs, reproducible=%v)\n",
		res.Policy, cfg.Space.Name, spec.GPUs, mustPolicyReproducible(spec.Policy))
	fmt.Printf("subnets trained:   %d in %.1f simulated seconds\n", res.Completed, res.TotalMs/1000)
	fmt.Printf("pipeline batch:    %d samples\n", res.Batch)
	fmt.Printf("throughput:        %.0f samples/s (%.0f subnets/hour)\n", res.SamplesPerSec, res.SubnetsPerHour)
	fmt.Printf("bubble ratio:      %.2f\n", res.BubbleRatio)
	fmt.Printf("total GPU ALU:     %.2fx of one GPU\n", res.ALUTotal)
	fmt.Printf("avg subnet exec:   %.2f s (bubble eliminated)\n", res.ExecMsAvg/1000)
	if res.CacheHitRate >= 0 {
		fmt.Printf("cache hit rate:    %.1f%%\n", 100*res.CacheHitRate)
		fmt.Printf("CPU (pinned) mem:  %.1f GB for the supernet stash\n", float64(res.CPUMemBytes)/(1<<30))
	} else {
		fmt.Printf("cache hit rate:    n/a (whole context resident in GPU)\n")
	}
	fmt.Printf("GPU memory:        %.1fx of one GPU across the cluster\n", res.GPUMemX)
	if res.MirrorBytes > 0 {
		fmt.Printf("mirror pushes:     %.1f GB of parameter updates\n", float64(res.MirrorBytes)/(1<<30))
	}
	if *saveTr != "" {
		rec := naspipe.NewTraceRecord(cfg.Space, spec.Policy, spec.GPUs, spec.Seed, res.Completed, res.Trace)
		out, err := os.Create(*saveTr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return naspipe.ExitUsage
		}
		defer out.Close()
		if err := rec.Save(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return naspipe.ExitUsage
		}
		fmt.Printf("trace record:      %s (%d access events; replay with naspipe-replay -trace %s)\n",
			*saveTr, res.Trace.Len(), *saveTr)
	}
	if bus != nil {
		fmt.Printf("telemetry:         %s\n", bus.Snapshot().String())
		lines, err := telemetry.ExportFiles(bus, f.TraceOut, f.EventsOut)
		for _, l := range lines {
			fmt.Println(l)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return naspipe.ExitFailure
		}
	}
	return naspipe.ExitOK
}

// concurrentFaultRun routes a fault-injected, checkpointed, or
// supervised run to the concurrent (goroutine-per-stage) plane — the
// simulated clock has no goroutines to crash. Returns the process exit
// code per the contract in the package comment.
func concurrentFaultRun(f *clicfg.Flags) naspipe.ExitCode {
	if f.Resume && f.Checkpoint == "" {
		fmt.Fprintln(os.Stderr, "naspipe-train: -resume requires -checkpoint")
		return naspipe.ExitUsage
	}
	spec := f.Spec(naspipe.ExecutorConcurrent.String())
	t := true
	spec.Trace = &t
	opts, cfg, err := naspipe.FromSpec(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return naspipe.ExitUsage
	}
	var bus *naspipe.TelemetryBus
	if f.EventsOut != "" {
		bus = naspipe.NewTelemetryBus(0)
		opts = append(opts, naspipe.WithTelemetry(bus))
	}
	r, err := naspipe.NewRunner(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return naspipe.ExitUsage
	}
	// SIGINT/SIGTERM cancel the run between tasks; the committed frontier
	// is already checkpointed (and the incarnation bumped), so the
	// process exits resumable (3) instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	code := naspipe.ExitOK
	if spec.Supervise != nil {
		code = supervisedRun(ctx, r, cfg, spec, f, bus)
	} else {
		code = plainRun(ctx, r, cfg, spec, f)
	}
	if bus != nil {
		lines, eerr := telemetry.ExportFiles(bus, "", f.EventsOut)
		for _, l := range lines {
			fmt.Println(l)
		}
		if eerr != nil {
			fmt.Fprintln(os.Stderr, eerr)
			if code == naspipe.ExitOK {
				code = naspipe.ExitFailure
			}
		}
	}
	return code
}

// plainRun is the unsupervised path: one incarnation, operator resumes.
func plainRun(ctx context.Context, r *naspipe.Runner, cfg naspipe.Config, spec naspipe.JobSpec, f *clicfg.Flags) naspipe.ExitCode {
	run := r.Run
	if f.Resume {
		run = r.Resume
	}
	res, err := run(ctx, cfg)
	if err != nil {
		var crash *naspipe.CrashError
		switch {
		case errors.As(err, &crash):
			fmt.Fprintf(os.Stderr, "injected crash: %v\n", err)
			printCheckpoint(os.Stderr, spec.Checkpoint, "rerun with -resume")
			return naspipe.ExitResumable
		case ctx.Err() != nil:
			fmt.Fprintf(os.Stderr, "interrupted: %v\n", err)
			if spec.Checkpoint != "" {
				printCheckpoint(os.Stderr, spec.Checkpoint, "rerun with -resume")
				return naspipe.ExitResumable
			}
			return naspipe.ExitFailure
		default:
			fmt.Fprintln(os.Stderr, err)
			return naspipe.ExitFailure
		}
	}
	printRunResult(spec, cfg, res)
	return naspipe.ExitOK
}

// supervisedRun wraps the incarnations in the supervision plane:
// crashes and watchdog stalls auto-resume in-process.
func supervisedRun(ctx context.Context, r *naspipe.Runner, cfg naspipe.Config, spec naspipe.JobSpec, f *clicfg.Flags, bus *naspipe.TelemetryBus) naspipe.ExitCode {
	sc, _ := spec.SuperviseConfig()
	sc.Telemetry = bus
	sc.Log = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

	run := r.RunSupervised
	if f.Resume {
		run = r.ResumeSupervised
	}
	res, rep, err := run(ctx, cfg, sc)
	if err != nil {
		var giveUp *naspipe.GiveUpError
		switch {
		case ctx.Err() != nil && !errors.As(err, &giveUp):
			fmt.Fprintf(os.Stderr, "interrupted: %v\n", err)
			printCheckpoint(os.Stderr, spec.Checkpoint, "rerun with -resume (or -supervise -resume)")
			return naspipe.ExitResumable
		case errors.As(err, &giveUp):
			fmt.Fprintln(os.Stderr, giveUp)
			return naspipe.ExitFailure
		default:
			fmt.Fprintln(os.Stderr, err)
			return naspipe.ExitFailure
		}
	}
	fmt.Printf("supervised run:    %s, %d restarts, %d watchdog fires, final D=%d\n",
		rep.FinalState, rep.Restarts, rep.WatchdogFires, rep.FinalGPUs)
	if len(rep.ElasticSteps) > 0 {
		fmt.Printf("elastic steps:     depth %v after repeated same-stage incidents\n", rep.ElasticSteps)
	}
	printRunResult(spec, cfg, res)
	return naspipe.ExitOK
}

func printRunResult(spec naspipe.JobSpec, cfg naspipe.Config, res naspipe.Result) {
	fmt.Printf("concurrent CSP plane: %s on %d GPUs, %d subnets completed", cfg.Space.Name, spec.GPUs, res.Completed)
	if res.BaseSeq > 0 {
		fmt.Printf(" (resumed at cursor %d)", res.BaseSeq)
	}
	fmt.Println()
	if res.ObservedTrace != nil {
		fmt.Printf("per-layer access order verified against the sequential reference (%d observed events)\n",
			len(res.ObservedTrace.Events))
	}
	if spec.Checkpoint != "" {
		printCheckpoint(os.Stdout, spec.Checkpoint, "")
		fmt.Printf("checkpoint plane:  %v\n", res.CheckpointStats)
	}
}

// printCheckpoint echoes the checkpoint file's cursor/incarnation state
// with an optional operator hint.
func printCheckpoint(w *os.File, path, hint string) {
	if path == "" {
		return
	}
	ck, err := naspipe.LoadCheckpoint(path)
	if err != nil {
		fmt.Fprintf(w, "checkpoint:        %s unreadable: %v\n", path, err)
		return
	}
	line := fmt.Sprintf("checkpoint:        %s (cursor %d/%d, incarnation %d)", path, ck.Cursor, ck.NumSubnets, ck.Incarnation)
	if hint != "" {
		line += " — " + hint
	}
	fmt.Fprintln(w, line)
}

func mustPolicyReproducible(name string) bool {
	p, err := naspipe.NewPolicy(name)
	if err != nil {
		return false
	}
	return p.Traits().Reproducible
}
