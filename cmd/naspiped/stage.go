// The stage subcommand is one stage worker of the distributed execution
// plane: it dials the coordinator, introduces itself with a Hello, waits
// for its stage assignment, runs its slice of the pipeline over the
// fault-tolerant transport link, and reports its observed trace back for
// the global merge verification.
//
// Operators rarely run it by hand — `naspiped dist` launches one per
// stage and relaunches the fleet after any death — but it is a plain
// process on purpose: kill -9 one mid-run and watch the coordinator
// notice, tear down, and resume from the committed cursor.
//
//	naspiped stage -addr 127.0.0.1:7420 -run r1 -stage 2 -incarnation 0
//
// Exit codes follow the naspipe contract:
//
//	0 — stage ran to completion and the coordinator released it
//	1 — engine or transport failure
//	2 — usage error
//	3 — resumable: coordinator abort (fleet teardown before a
//	    relaunch) or an injected crash the coordinator will resume
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"naspipe"
	"naspipe/internal/distrib"
)

func stageMain(args []string) naspipe.ExitCode {
	fs := flag.NewFlagSet("naspiped stage", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "", "coordinator address to dial (required)")
		runID       = fs.String("run", "", "run ID to join; must match the coordinator's (required)")
		stage       = fs.Int("stage", -1, "pipeline stage this worker owns (required)")
		incarnation = fs.Int("incarnation", 0, "fleet incarnation this worker belongs to")
		heartbeat   = fs.Duration("heartbeat", 0, "liveness beacon period (0 = worker default)")
		quiet       = fs.Bool("quiet", false, "suppress per-event worker logging")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "naspiped stage: unexpected arguments %v\n", fs.Args())
		return naspipe.ExitUsage
	}
	if *addr == "" || *runID == "" || *stage < 0 {
		fmt.Fprintln(os.Stderr, "naspiped stage: -addr, -run, and -stage are required")
		return naspipe.ExitUsage
	}

	wc := distrib.WorkerConfig{
		Addr: *addr, RunID: *runID,
		Stage: *stage, Incarnation: *incarnation,
		HeartbeatEvery: *heartbeat,
	}
	if !*quiet {
		start := time.Now()
		wc.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%7.3fs] "+format+"\n",
				append([]any{time.Since(start).Seconds()}, args...)...)
		}
	}

	// No SIGINT/SIGTERM handler on purpose: a stage worker's death is
	// always abrupt from the coordinator's point of view — the drill
	// this plane exists for is kill -9, which no handler survives.
	ctx := context.Background()
	err := distrib.RunWorker(ctx, wc)
	// The coordinator keeps the checkpoint a crashed worker resumes from.
	code := naspipe.ExitCodeOf(ctx, err, true)
	switch {
	case err == nil:
	case distrib.Aborted(err):
		fmt.Fprintf(os.Stderr, "naspiped stage: %v\n", err)
		return naspipe.ExitResumable
	case code == naspipe.ExitResumable:
		fmt.Fprintf(os.Stderr, "naspiped stage: injected crash: %v\n", err)
	default:
		fmt.Fprintf(os.Stderr, "naspiped stage: %v\n", err)
	}
	return code
}
