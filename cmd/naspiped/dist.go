// The dist subcommand turns naspiped into the coordinator of a
// multi-process fleet: it listens on a TCP star, launches one
// naspipe-stage process per pipeline stage, relays their engine
// traffic, collects stage-0 consistency cuts into the checkpoint, and
// relaunches the whole fleet from the committed cursor when any worker
// dies — including by kill -9.
//
//	naspiped dist -gpus 4 -subnets 24 -checkpoint fleet.ckpt -log-dir logs
//	kill -9 <a naspipe-stage pid>   # the fleet resumes on its own
//
// On completion with -verify (the default), the merged fleet trace is
// replayed against the sequential reference and the bitwise weight
// checksum printed — the same guarantee as the single-process plane.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"naspipe"
	"naspipe/internal/clicfg"
	"naspipe/internal/distrib"
	"naspipe/internal/telemetry"
)

func distMain(args []string) naspipe.ExitCode {
	fs := flag.NewFlagSet("naspiped dist", flag.ExitOnError)
	f := clicfg.Register(fs, clicfg.Defaults{Space: "NLP.c1", GPUs: 4, Subnets: 24})
	var (
		specPath   = fs.String("spec", "", "load the JobSpec from this JSON file instead of the run flags")
		runID      = fs.String("run", "", "run ID workers must present (default dist-<pid>)")
		listen     = fs.String("listen", "127.0.0.1:0", "TCP address the coordinator listens on for stage workers")
		workerBin  = fs.String("worker-bin", "", "path to the naspipe-stage binary (default: next to this executable)")
		logDir     = fs.String("log-dir", "", "capture each worker's output to stage-<k>.inc<i>.log in this directory")
		deadAfter  = fs.Duration("dead-after", 2*time.Second, "declare a worker dead after this long without heartbeats")
		verify     = fs.Bool("verify", true, "replay the merged fleet trace against the sequential reference")
		trainDim   = fs.Int("train-dim", 8, "numeric plane: model dimension for checkpoints and verification")
		trainBatch = fs.Int("train-batch", 2, "numeric plane: items per subnet step")
		trainLR    = fs.Float64("train-lr", 0.05, "numeric plane: SGD learning rate")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "naspiped dist: unexpected arguments %v\n", fs.Args())
		return naspipe.ExitUsage
	}
	if f.Resume && f.Checkpoint == "" && *specPath == "" {
		fmt.Fprintln(os.Stderr, "naspiped dist: -resume requires -checkpoint")
		return naspipe.ExitUsage
	}

	spec, code := distSpec(f, *specPath, *verify, *trainDim, *trainBatch, *trainLR)
	if code != naspipe.ExitOK {
		return code
	}
	bin, err := resolveWorkerBin(*workerBin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "naspiped dist:", err)
		return naspipe.ExitUsage
	}
	if *logDir != "" {
		if err := os.MkdirAll(*logDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "naspiped dist:", err)
			return naspipe.ExitUsage
		}
	}
	id := *runID
	if id == "" {
		id = fmt.Sprintf("dist-%d", os.Getpid())
	}

	// The coordinator's telemetry bus sees its side of every link (the
	// star topology relays all engine traffic through it), so the JSONL
	// log carries the full transport story: sends, drops, cuts,
	// reconnects and go-back-N retransmits, per peer stage.
	var bus *naspipe.TelemetryBus
	if f.TraceOut != "" || f.EventsOut != "" || f.Progress > 0 {
		bus = naspipe.NewTelemetryBus(0)
	}
	stopProgress := telemetry.StartProgress(os.Stderr, bus, f.Progress)
	defer stopProgress()

	co, err := distrib.NewCoordinator(distrib.CoordConfig{
		Spec: spec, RunID: id, Addr: *listen,
		Launcher:  &distrib.ExecLauncher{Bin: bin, LogDir: *logDir},
		DeadAfter: *deadAfter,
		Resume:    f.Resume,
		Tel:       bus,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "naspiped dist:", err)
		return naspipe.ExitUsage
	}

	// SIGINT/SIGTERM abort the fleet and exit resumable: the committed
	// cursor is already checkpointed, so a rerun with -resume picks up
	// exactly where the cuts left off.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, rep, err := co.Run(ctx)
	if err != nil {
		var giveUp *naspipe.GiveUpError
		var crash *naspipe.CrashError
		switch {
		case ctx.Err() != nil && !errors.As(err, &giveUp):
			fmt.Fprintf(os.Stderr, "naspiped dist: interrupted: %v\n", err)
			if spec.Checkpoint != "" {
				fmt.Fprintf(os.Stderr, "naspiped dist: rerun with -resume to continue from %s\n", spec.Checkpoint)
				return naspipe.ExitResumable
			}
			return naspipe.ExitFailure
		case errors.As(err, &crash):
			fmt.Fprintf(os.Stderr, "naspiped dist: %v\n", err)
			if spec.Checkpoint != "" {
				fmt.Fprintf(os.Stderr, "naspiped dist: rerun with -resume to continue from %s\n", spec.Checkpoint)
				return naspipe.ExitResumable
			}
			return naspipe.ExitFailure
		default:
			fmt.Fprintln(os.Stderr, "naspiped dist:", err)
			return naspipe.ExitFailure
		}
	}
	fmt.Printf("distributed fleet: %s on %d stage processes, %d subnets completed",
		spec.Space, spec.GPUs, res.Completed)
	if res.BaseSeq > 0 {
		fmt.Printf(" (resumed at cursor %d)", res.BaseSeq)
	}
	fmt.Println()
	fmt.Printf("fleet supervision: %s, %d restarts, final D=%d\n",
		rep.FinalState, rep.Restarts, rep.FinalGPUs)
	if spec.Checkpoint != "" {
		fmt.Printf("checkpoint plane:  %v\n", res.CheckpointStats)
	}
	if bus != nil {
		fmt.Printf("telemetry:         %s\n", bus.Snapshot().String())
		lines, err := telemetry.ExportFiles(bus, f.TraceOut, f.EventsOut)
		for _, l := range lines {
			fmt.Println(l)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "naspiped dist:", err)
			return naspipe.ExitFailure
		}
	}
	return naspipe.ExitOK
}

// distSpec assembles the fleet's JobSpec from a file or the shared run
// flags, normalized onto the concurrent executor with the numeric
// plane attached (checkpoint checksums and verification need it).
func distSpec(f *clicfg.Flags, path string, verify bool, dim, batch int, lr float64) (naspipe.JobSpec, naspipe.ExitCode) {
	var spec naspipe.JobSpec
	if path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "naspiped dist:", err)
			return spec, naspipe.ExitUsage
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			fmt.Fprintf(os.Stderr, "naspiped dist: %s: %v\n", path, err)
			return spec, naspipe.ExitUsage
		}
		if spec.Executor == "" {
			spec.Executor = naspipe.ExecutorConcurrent.String()
		}
	} else {
		spec = f.Spec(naspipe.ExecutorConcurrent.String())
		spec.Verify = verify
	}
	if spec.Train == nil {
		spec.Train = &naspipe.TrainSpec{Dim: dim, BatchSize: batch, LR: lr}
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "naspiped dist:", err)
		return spec, naspipe.ExitUsage
	}
	return spec, naspipe.ExitOK
}

// resolveWorkerBin finds the naspipe-stage binary: an explicit path,
// next to this executable, or on PATH.
func resolveWorkerBin(explicit string) (string, error) {
	if explicit != "" {
		if _, err := os.Stat(explicit); err != nil {
			return "", fmt.Errorf("worker binary: %w", err)
		}
		return explicit, nil
	}
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "naspipe-stage")
		if _, err := os.Stat(cand); err == nil {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("naspipe-stage"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("cannot find naspipe-stage (build it next to naspiped or pass -worker-bin)")
}
