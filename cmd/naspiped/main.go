// Command naspiped is the naspipe service daemon: a long-running,
// multi-tenant scheduler that multiplexes concurrent supernet-search
// jobs over a bounded executor pool, behind the versioned HTTP/JSON API
// in internal/service.
//
// Usage:
//
//	naspiped -addr :7419 -state-dir /var/lib/naspipe
//	naspiped -workers 4 -quota 8 -queue 32
//
// Submit and drive jobs with naspipe-client (or plain curl):
//
//	naspipe-client -addr http://localhost:7419 submit -space NLP.c3 ...
//
// Every concurrent-plane job is normalized to checkpoint into its own
// state directory and run under the supervision plane, so an injected
// or real crash auto-resumes from the job's committed frontier with no
// operator involvement, and the health state machine is visible over
// GET /v1/jobs/{id}. The daemon itself is crash-consistent: kill -9 it
// mid-job, restart it on the same -state-dir, and unfinished jobs
// re-queue from their checkpoints. CSP makes all of this safe to trust:
// however the daemon interleaves, crashes, or resumes a job, its
// weights land bitwise equal to the sequential reference.
//
// Observability rides on the same listener: GET /metrics serves the
// Prometheus text exposition (service, scheduler, supervision, and
// telemetry planes; per-tenant labels; every bus counter summed over
// finished jobs and every live bus), /debug/pprof/ serves profiles, and
// every log line is a structured record — JSON by default — carrying
// the job ID, so one `grep '"job":"j0001"'` follows a job from submit
// through crash, restart, and verification.
// -log-format text keeps the legacy human-readable lines.
//
// `naspiped dist` is a different mode entirely: instead of serving
// HTTP it coordinates a multi-process training fleet — one
// `naspiped stage` OS process per pipeline stage over fault-tolerant
// TCP links — and survives kill -9 of any worker by relaunching the
// fleet from the committed checkpoint cursor (see dist.go and stage.go).
//
// Exit codes follow the naspipe contract: 0 clean shutdown, 1 runtime
// failure, 2 usage error (and, for dist, 3 resumable interruption).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"naspipe"
	"naspipe/internal/obs"
	"naspipe/internal/service"
	"naspipe/internal/telemetry"
)

func main() {
	// The subcommands dispatch before any signal.Notify: a stage worker
	// must install no handler (see stage.go).
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "dist":
			os.Exit(int(distMain(os.Args[2:])))
		case "stage":
			os.Exit(int(stageMain(os.Args[2:])))
		}
	}
	var (
		addr      = flag.String("addr", ":7419", "HTTP listen address for the /v1 API, /metrics, and /debug/")
		stateDir  = flag.String("state-dir", "naspiped-state", "root directory for per-job specs, statuses, event logs, and checkpoints")
		workers   = flag.Int("workers", 2, "executor pool size: jobs running at once")
		quota     = flag.Int("quota", 8, "per-tenant quota on active (queued+running) jobs; submits beyond it get 429")
		queue     = flag.Int("queue", 16, "global admission-queue bound; submits beyond it get 429 (backpressure)")
		eventBuf  = flag.Int("event-buf", 1<<16, "per-job telemetry ring capacity (events kept for /events streaming)")
		debugAddr = flag.String("debug-addr", "", "serve /debug/pprof/ and /metrics on this extra address too")
		logFormat = flag.String("log-format", "json", "log record format: json or text")
		noMetrics = flag.Bool("no-metrics", false, "disable the metrics registry and /metrics endpoint")
		quiet     = flag.Bool("quiet", false, "suppress per-decision scheduler logging")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "naspiped: unexpected arguments %v\n", flag.Args())
		os.Exit(int(naspipe.ExitUsage))
	}

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "naspiped: -log-format must be json or text, got %q\n", *logFormat)
		os.Exit(int(naspipe.ExitUsage))
	}
	logger := slog.New(handler)

	var reg *obs.Registry
	if !*noMetrics {
		reg = obs.New()
	}
	cfg := service.SchedulerConfig{
		StateDir: *stateDir, Workers: *workers,
		QueueLimit: *queue, TenantQuota: *quota,
		EventBufSize: *eventBuf,
		Metrics:      reg,
	}
	if !*quiet {
		cfg.Logger = logger
		// Legacy printf sink for the scheduler's incidental diagnostics
		// (persist errors etc.) and the supervision plane's per-decision log.
		cfg.Log = func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		}
	}
	sched, err := service.NewScheduler(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(int(naspipe.ExitUsage))
	}
	debugMux := telemetry.NewDebugMux(reg)
	srv := service.NewServer(sched).WithObs(reg, logger).WithDebug(debugMux)
	bound, shutdown, err := telemetry.Serve(*addr, srv)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(int(naspipe.ExitUsage))
	}
	logger.Info("serving", "api", "/"+service.APIVersion, "addr", bound,
		"state_dir", *stateDir, "workers", *workers, "quota", *quota, "queue", *queue,
		"metrics", !*noMetrics)
	if *debugAddr != "" {
		dbg, stopDbg, derr := telemetry.Serve(*debugAddr, debugMux)
		if derr != nil {
			fmt.Fprintln(os.Stderr, derr)
			os.Exit(int(naspipe.ExitUsage))
		}
		defer stopDbg()
		logger.Info("debug server up", "addr", "http://"+dbg+"/")
	}

	// SIGINT/SIGTERM drain gracefully: stop admitting, cancel running
	// jobs (their committed frontiers are already checkpointed), persist
	// every status, then exit 0. A kill -9 skips all of that and relies
	// on recovery instead — both paths resume the same way.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	logger.Info("draining", "signal", got.String(),
		"note", "running jobs checkpoint and will recover on restart")
	shutdown()
	sched.Close()
	logger.Info("drained", "state_dir", *stateDir)
}
