// Command naspipe-train runs one pipeline supernet-training job and
// reports its metrics: throughput, bubble ratio, GPU utilization, cache
// hit rate, and memory footprints.
//
// Usage:
//
//	naspipe-train -space NLP.c1 -policy naspipe -gpus 8 -subnets 240
//	naspipe-train -space NLP.c1 -policy gpipe   # compare a baseline
//	naspipe-train -trace-out run.json           # Chrome trace (simulated time)
//	naspipe-train -debug-addr :6060             # pprof + the bus counters on /metrics
//	naspipe-train search -generations 64        # CSP-train, then evolve
//
// Every run flag is the shared set from internal/clicfg, parsed into
// the canonical naspipe.JobSpec — the same knobs, names, and validation
// as naspipe-bench and the naspiped service API — and every run goes
// through clicfg's one run-and-report path, so -trace-out, -events-out,
// -debug-addr and -progress work on both planes.
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
// The search subcommand is the full NAS loop at numeric scale: it trains
// the supernet on the simulated plane under the run flags (default
// NLP.c1 scaled to 12 blocks × 8 choices, 300 subnets), replays the
// run's parameter-access trace on real weights, then runs the paper's
// default search strategy (regularized evolution) over them. Only
// -population, -generations and -save-net are its own flags.
//
// Exit codes are the naspipe.ExitCode contract CI and operators rely on,
// decided by naspipe.ExitCodeOf:
//
//	0 — run complete (and verified where applicable)
//	1 — run, replay, search or verification failure, including
//	    supervisor give-up, an injected crash without -checkpoint
//	    (nothing to resume) and an interrupted uncheckpointed run
//	2 — usage error
//	3 — resumable interruption with a valid -checkpoint: an injected
//	    crash without -supervise, or SIGINT/SIGTERM; rerun with -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"naspipe"
	"naspipe/internal/clicfg"
)

func main() {
	os.Exit(int(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) naspipe.ExitCode {
	if len(args) > 0 && args[0] == "search" {
		return search(ctx, args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("naspipe-train", flag.ExitOnError)
	fs.SetOutput(stderr)
	f := clicfg.Register(fs, clicfg.Defaults{Space: "NLP.c1", GPUs: 8, Subnets: 240, Window: 48})
	saveTr := fs.String("save-trace", "", "simulated plane: write the parameter-access trace record to this file for naspipe-replay")
	if err := f.Parse(args); err != nil {
		fmt.Fprintln(stderr, "naspipe-train:", err)
		return naspipe.ExitUsage
	}

	// The simulated clock has no goroutines to crash: fault, checkpoint
	// and supervision flags select the concurrent plane.
	concurrent := f.ConcurrentRequested()
	if concurrent && *saveTr != "" {
		fmt.Fprintln(stderr, "naspipe-train: -save-trace records the simulated plane; it does not combine with -faults/-checkpoint/-resume/-supervise")
		return naspipe.ExitUsage
	}
	executor := naspipe.ExecutorSimulated
	if concurrent {
		executor = naspipe.ExecutorConcurrent
	}
	spec := f.Spec(executor.String())
	if concurrent || *saveTr != "" {
		t := true
		spec.Trace = &t
	}
	return f.Run(ctx, stdout, stderr, clicfg.Job{Name: "naspipe-train", Spec: spec,
		Report: func(res naspipe.Result, _ *naspipe.SuperviseReport) error {
			cfg, _ := spec.Config() // validated by Run
			if concurrent {
				fmt.Fprintf(stdout, "concurrent CSP plane: %s on %d GPUs, %d subnets completed", cfg.Space.Name, spec.GPUs, res.Completed)
				if res.BaseSeq > 0 {
					fmt.Fprintf(stdout, " (resumed at cursor %d)", res.BaseSeq)
				}
				fmt.Fprintln(stdout)
				if res.ObservedTrace != nil {
					fmt.Fprintf(stdout, "per-layer access order verified against the sequential reference (%d observed events)\n",
						len(res.ObservedTrace.Events))
				}
				return nil
			}
			printMetrics(stdout, spec, cfg, res)
			if *saveTr == "" {
				return nil
			}
			return saveTrace(stdout, *saveTr, spec, cfg, res)
		}})
}

// printMetrics prints a simulated run's metrics block.
func printMetrics(w io.Writer, spec naspipe.JobSpec, cfg naspipe.Config, res naspipe.Result) {
	reproducible := false
	if p, err := naspipe.NewPolicy(spec.Policy); err == nil {
		reproducible = p.Traits().Reproducible
	}
	fmt.Fprintf(w, "system:            %s (%s on %d GPUs, reproducible=%v)\n", res.Policy, cfg.Space.Name, spec.GPUs, reproducible)
	fmt.Fprintf(w, "subnets trained:   %d in %.1f simulated seconds\n", res.Completed, res.TotalMs/1000)
	fmt.Fprintf(w, "pipeline batch:    %d samples\n", res.Batch)
	fmt.Fprintf(w, "throughput:        %.0f samples/s (%.0f subnets/hour)\n", res.SamplesPerSec, res.SubnetsPerHour)
	fmt.Fprintf(w, "bubble ratio:      %.2f\n", res.BubbleRatio)
	fmt.Fprintf(w, "total GPU ALU:     %.2fx of one GPU\n", res.ALUTotal)
	fmt.Fprintf(w, "avg subnet exec:   %.2f s (bubble eliminated)\n", res.ExecMsAvg/1000)
	if res.CacheHitRate >= 0 {
		fmt.Fprintf(w, "cache hit rate:    %.1f%%\n", 100*res.CacheHitRate)
		fmt.Fprintf(w, "CPU (pinned) mem:  %.1f GB for the supernet stash\n", float64(res.CPUMemBytes)/(1<<30))
	} else {
		fmt.Fprintf(w, "cache hit rate:    n/a (whole context resident in GPU)\n")
	}
	fmt.Fprintf(w, "GPU memory:        %.1fx of one GPU across the cluster\n", res.GPUMemX)
	if res.MirrorBytes > 0 {
		fmt.Fprintf(w, "mirror pushes:     %.1f GB of parameter updates\n", float64(res.MirrorBytes)/(1<<30))
	}
}

// saveTrace writes the run's trace record for naspipe-replay.
func saveTrace(w io.Writer, path string, spec naspipe.JobSpec, cfg naspipe.Config, res naspipe.Result) error {
	rec := naspipe.NewTraceRecord(cfg.Space, spec.Policy, spec.GPUs, spec.Seed, res.Completed, res.Trace)
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.Save(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace record:      %s (%d access events; replay with naspipe-replay -trace %s)\n", path, res.Trace.Len(), path)
	return nil
}

// search is `naspipe-train search`: one simulated CSP run under the run
// flags, its trace replayed on real weights, then evolution over them.
func search(ctx context.Context, args []string, stdout, stderr io.Writer) naspipe.ExitCode {
	fs := flag.NewFlagSet("naspipe-train search", flag.ExitOnError)
	fs.SetOutput(stderr)
	f := clicfg.Register(fs, clicfg.Defaults{Space: "NLP.c1", ScaleBlocks: 12, ScaleChoices: 8, GPUs: 8, Subnets: 300})
	var (
		pop     = fs.Int("population", 16, "evolution population")
		gens    = fs.Int("generations", 48, "evolution generations")
		saveNet = fs.String("save-net", "", "write the trained supernet checkpoint to this file")
	)
	if err := f.Parse(args); err != nil {
		fmt.Fprintln(stderr, "naspipe-train search:", err)
		return naspipe.ExitUsage
	}
	if f.ConcurrentRequested() {
		fmt.Fprintln(stderr, "naspipe-train search: trains on the simulated plane; -faults/-checkpoint/-resume/-supervise do not apply")
		return naspipe.ExitUsage
	}
	spec := f.Spec(naspipe.ExecutorSimulated.String())
	t := true
	spec.Trace = &t
	spec.Train = &naspipe.TrainSpec{Dim: 12, BatchSize: 4, LR: 0.05}
	return f.Run(ctx, stdout, stderr, clicfg.Job{Name: "naspipe-train search", Spec: spec,
		Report: func(res naspipe.Result, _ *naspipe.SuperviseReport) error {
			cfg, _ := spec.Config() // validated by Run
			tc, _ := spec.TrainConfig()
			num, err := naspipe.TrainReplay(tc, cfg.ResolveSubnets(), res.Trace)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trained: final weights checksum %016x (%s, %d subnets, simulated %.1fs on %d GPUs, %.0f subnets/hour)\n",
				num.Checksum, cfg.Space.Name, res.Completed, res.TotalMs/1000, spec.GPUs, res.SubnetsPerHour)
			if *saveNet != "" {
				if err := saveSupernet(*saveNet, num.Net); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "supernet checkpoint saved to %s\n", *saveNet)
			}
			sc := naspipe.DefaultSearch(spec.Seed)
			sc.Population, sc.Generations = *pop, *gens
			sr, err := naspipe.Search(tc, num.Net, sc)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "evolution: %d candidates evaluated over %d generations\n", sr.Evaluated, *gens)
			fmt.Fprintf(stdout, "best architecture: choices=%v\n", sr.Best.Subnet.Choices)
			fmt.Fprintf(stdout, "best validation loss %.4f, score %.2f\n", sr.Best.Loss, sr.Best.Score)
			return nil
		}})
}

func saveSupernet(path string, net *naspipe.Numeric) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := net.Save(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
