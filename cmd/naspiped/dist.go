// The dist subcommand turns naspiped into the coordinator of a
// multi-process fleet: it listens for its workers, launches one
// `naspiped stage` process per pipeline stage (its own executable, or
// -worker-bin), hands them each other's addresses so engine traffic
// flows stage to stage, collects stage-0 consistency cuts into the
// checkpoint, and relaunches the whole fleet from the committed cursor
// when any worker dies — including by kill -9.
//
//	naspiped dist -gpus 4 -subnets 24 -checkpoint fleet.ckpt -log-dir logs
//	kill -9 <a naspiped stage pid>   # the fleet resumes on its own
//
// On completion with -verify (the default), the merged fleet trace is
// replayed against the sequential reference and the bitwise weight
// checksum printed — the same guarantee as the single-process plane.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"naspipe"
	"naspipe/internal/clicfg"
	"naspipe/internal/distrib"
)

func distMain(args []string) naspipe.ExitCode {
	fs := flag.NewFlagSet("naspiped dist", flag.ExitOnError)
	f := clicfg.Register(fs, clicfg.Defaults{Space: "NLP.c1", GPUs: 4, Subnets: 24})
	var (
		specPath   = fs.String("spec", "", "load the JobSpec from this JSON file instead of the run flags")
		runID      = fs.String("run", "", "run ID workers must present (default dist-<pid>)")
		listen     = fs.String("listen", "127.0.0.1:0", "TCP address the coordinator listens on for stage workers")
		workerBin  = fs.String("worker-bin", "", "naspiped binary whose stage subcommand runs the workers (default: this executable)")
		logDir     = fs.String("log-dir", "", "capture each worker's output to stage-<k>.inc<i>.log in this directory")
		deadAfter  = fs.Duration("dead-after", 2*time.Second, "declare a worker dead after this long without heartbeats")
		verify     = fs.Bool("verify", true, "replay the merged fleet trace against the sequential reference")
		trainDim   = fs.Int("train-dim", 8, "numeric plane: model dimension for checkpoints and verification")
		trainBatch = fs.Int("train-batch", 2, "numeric plane: items per subnet step")
		trainLR    = fs.Float64("train-lr", 0.05, "numeric plane: SGD learning rate")
	)
	if err := f.Parse(args); err != nil {
		fmt.Fprintln(os.Stderr, "naspiped dist:", err)
		return naspipe.ExitUsage
	}
	if f.TraceOut != "" {
		// The coordinator's bus carries link and health instants only; the
		// task spans a Chrome trace is made of live in the stage processes.
		fmt.Fprintln(os.Stderr, "naspiped dist: -trace-out needs the stage processes' task spans; use -events-out for the coordinator's link and health timeline")
		return naspipe.ExitUsage
	}
	spec, code := distSpec(f, *specPath, *verify, *trainDim, *trainBatch, *trainLR)
	if code != naspipe.ExitOK {
		return code
	}
	bin, err := *workerBin, error(nil)
	if bin == "" {
		bin, err = os.Executable()
	} else {
		_, err = os.Stat(bin)
	}
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

	// The coordinator's telemetry bus sees its side of its control links
	// only: engine traffic moves on the workers' own links, whose sends,
	// drops, cuts, reconnects and retransmits stay inside the worker
	// processes, so the JSONL log shows the control links. SIGINT/SIGTERM
	// abort the fleet and exit resumable: the committed cursor is already
	// checkpointed.
	return f.Run(context.Background(), os.Stdout, os.Stderr, clicfg.Job{Name: "naspiped dist", Spec: spec,
		Run: func(ctx context.Context, hooks naspipe.SuperviseConfig) (naspipe.Result, *naspipe.SuperviseReport, error) {
			co, err := distrib.NewCoordinator(distrib.CoordConfig{
				Spec: spec, RunID: id, Addr: *listen,
				Launcher:  &distrib.ExecLauncher{Bin: bin, Args: []string{"stage"}, LogDir: *logDir},
				DeadAfter: *deadAfter,
				Resume:    f.Resume,
				Tel:       hooks.Telemetry,
				Log:       hooks.Log,
			})
			if err != nil {
				return naspipe.Result{}, nil, err
			}
			return co.Run(ctx)
		},
		Report: func(res naspipe.Result, rep *naspipe.SuperviseReport) error {
			fmt.Printf("distributed fleet: %s on %d stage processes, %d subnets completed", spec.Space, spec.GPUs, res.Completed)
			if res.BaseSeq > 0 {
				fmt.Printf(" (resumed at cursor %d)", res.BaseSeq)
			}
			fmt.Printf("\nfleet supervision: %s, %d restarts, final D=%d\n", rep.FinalState, rep.Restarts, rep.FinalGPUs)
			return nil
		}})
}

// distSpec assembles the fleet's JobSpec from a file or the shared run
// flags, normalized onto the concurrent executor with the numeric
// plane attached (checkpoint checksums and verification need it);
// Flags.Run validates it.
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
	return spec, naspipe.ExitOK
}
