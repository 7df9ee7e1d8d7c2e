// Package clicfg is the one place the naspipe CLIs define their shared
// run flags and the one path that runs and reports a job under them.
// Every flag parses straight into the canonical naspipe.JobSpec, so
// cmd/naspipe-train, cmd/naspipe-bench, cmd/naspipe-client and
// `naspiped dist` expose the same knobs with the same names and the
// same semantics — adding the next knob means adding one flag here and
// one field to JobSpec, everywhere at once. Flags.Run owns what every
// run shares: the telemetry bus and its debug server, progress ticker
// and exports, the signal context, the exit code and the checkpoint
// report.
package clicfg

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"naspipe"
	"naspipe/internal/obs"
	"naspipe/internal/telemetry"
)

// Defaults seeds the per-command flag defaults that legitimately differ
// between CLIs (the train command defaults to a full paper run, the
// bench smoke to a scaled workload).
type Defaults struct {
	Space        string
	ScaleBlocks  int
	ScaleChoices int
	GPUs         int
	Subnets      int
	Window       int
}

// Flags binds the shared run flags to a FlagSet. Read the fields after
// Parse; call Spec to assemble the JobSpec they describe.
type Flags struct {
	fs *flag.FlagSet

	// Run identity and shape.
	Space        string
	ScaleBlocks  int
	ScaleChoices int
	Policy       string
	GPUs         int
	Subnets      int
	Seed         uint64
	Window       int
	Jitter       float64

	// Concurrent memory plane.
	CacheFactor float64
	Predictor   bool

	// Fault / checkpoint / supervision planes.
	Faults          string
	Checkpoint      string
	CheckpointEvery int
	Resume          bool
	Supervise       bool
	StallTimeout    time.Duration
	MaxRestarts     int
	ElasticAfter    int

	// Local observability outputs (not part of the JobSpec — they are
	// this process's I/O, not the run's identity).
	TraceOut  string
	EventsOut string
	DebugAddr string
	Progress  time.Duration
}

// Register defines the shared flag set on fs and returns the bound
// Flags. Call before fs.Parse.
func Register(fs *flag.FlagSet, d Defaults) *Flags {
	if d.Space == "" {
		d.Space = "NLP.c1"
	}
	if d.GPUs == 0 {
		d.GPUs = 8
	}
	supDef := naspipe.DefaultSuperviseConfig()
	f := &Flags{fs: fs}
	fs.StringVar(&f.Space, "space", d.Space, "search space (Table 1 name)")
	fs.IntVar(&f.ScaleBlocks, "scale-blocks", d.ScaleBlocks, "re-geometry the space to this many blocks (with -scale-choices; 0 = the space's own)")
	fs.IntVar(&f.ScaleChoices, "scale-choices", d.ScaleChoices, "re-geometry the space to this many choices per block (with -scale-blocks)")
	fs.StringVar(&f.Policy, "policy", "naspipe", "scheduling policy: "+strings.Join(naspipe.PolicyNames(), ", ")+" (the concurrent plane is CSP-only)")
	fs.IntVar(&f.GPUs, "gpus", d.GPUs, "GPU count (pipeline depth)")
	fs.IntVar(&f.Subnets, "subnets", d.Subnets, "subnets to train (0 = command default)")
	fs.Uint64Var(&f.Seed, "seed", 42, "exploration seed")
	fs.IntVar(&f.Window, "window", d.Window, "pipeline admission window (0 = engine default)")
	fs.Float64Var(&f.Jitter, "jitter", 0, "deterministic compute-timing jitter magnitude in [0,1) (concurrent tasks really sleep)")
	fs.Float64Var(&f.CacheFactor, "cachefactor", 3, "concurrent plane: per-stage cache budget as a multiple of the average subnet footprint (0 disables the cache)")
	fs.BoolVar(&f.Predictor, "predictor", false, "concurrent plane: enable the Algorithm 3 context predictor")
	fs.StringVar(&f.Faults, "faults", "", "deterministic fault plan, e.g. \"seed=7,drop=0.1,crashat=2:9:F\" (keys: seed, crash, crashat, wedgeat, drop, delay, dup, fetchfail, maxdelay, backoff, backoffmax, retries)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "persist crash-consistent checkpoints to this file (concurrent plane)")
	fs.IntVar(&f.CheckpointEvery, "checkpoint-every", 0, "throttle checkpoint saves to one per N cursor advances (0 = every advance)")
	fs.BoolVar(&f.Resume, "resume", false, "resume from -checkpoint instead of starting fresh")
	fs.BoolVar(&f.Supervise, "supervise", false, "auto-resume crashes and watchdog-diagnosed stalls in-process (requires -checkpoint)")
	fs.DurationVar(&f.StallTimeout, "stall-timeout", supDef.Watchdog.StallAfter, "with -supervise: declare a stall after this long without frontier or task progress")
	fs.IntVar(&f.MaxRestarts, "max-restarts", supDef.MaxRestarts, "with -supervise: retry budget across the whole run")
	fs.IntVar(&f.ElasticAfter, "elastic", 0, "with -supervise: halve the pipeline depth after N consecutive incidents on one stage (0 = off)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace-event JSON of the run (load in Perfetto / chrome://tracing)")
	fs.StringVar(&f.EventsOut, "events-out", "", "write the raw telemetry stream as JSONL (inspect with naspipe-replay -events)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve /debug/pprof/ and the run's bus counters on /metrics at this address for the process lifetime")
	fs.DurationVar(&f.Progress, "progress", 0, "print a live counter line at this interval (e.g. 200ms)")
	return f
}

// Parse parses args into the flag set; positional arguments are a
// usage error.
func (f *Flags) Parse(args []string) error {
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	if f.fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", f.fs.Args())
	}
	return nil
}

// set reports whether the user passed the named flag explicitly.
func (f *Flags) set(name string) bool {
	seen := false
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Name == name {
			seen = true
		}
	})
	return seen
}

// ConcurrentRequested reports whether any flag that only works on the
// concurrent plane was given — the CLIs use it to auto-select the
// executor the way -faults/-checkpoint/-supervise always have.
func (f *Flags) ConcurrentRequested() bool {
	return f.Faults != "" || f.Checkpoint != "" || f.Resume || f.Supervise
}

// Spec assembles the JobSpec the parsed flags describe for the given
// executor ("simulated" or "concurrent"). Validation is left to the
// spec's lowering (naspipe.RunJob) so every surface reports identical
// errors.
func (f *Flags) Spec(executor string) naspipe.JobSpec {
	s := naspipe.JobSpec{
		Space:        f.Space,
		ScaleBlocks:  f.ScaleBlocks,
		ScaleChoices: f.ScaleChoices,
		Policy:       f.Policy,
		Executor:     executor,
		GPUs:         f.GPUs,
		Subnets:      f.Subnets,
		Seed:         f.Seed,
		Window:       f.Window,
		Jitter:       f.Jitter,
		Faults:       f.Faults,
		Checkpoint:   f.Checkpoint,
	}
	if f.Jitter > 0 {
		s.JitterSeed = f.Seed
	}
	if f.CheckpointEvery > 0 {
		s.CheckpointEvery = f.CheckpointEvery
	}
	concurrent := executor == "concurrent"
	if concurrent || f.set("cachefactor") || f.set("predictor") {
		cf := f.CacheFactor
		s.CacheFactor = &cf
		s.Predictor = f.Predictor
	}
	if f.Supervise {
		s.Supervise = &naspipe.SuperviseSpec{
			StallTimeout: naspipe.Duration(f.StallTimeout),
			MaxRestarts:  f.MaxRestarts,
			ElasticAfter: f.ElasticAfter,
		}
	} else if f.ElasticAfter > 0 {
		s.Elastic = true
	}
	return s
}

// Job is one run Flags.Run executes and reports.
type Job struct {
	// Name prefixes the job's error lines ("naspipe-train", "naspiped dist").
	Name string
	// Spec is the run's JobSpec: Run validates it, and its checkpoint,
	// supervision and verification shape the report.
	Spec naspipe.JobSpec
	// Run executes the job; nil runs naspipe.RunJob on Spec, resuming
	// under -resume. hooks carries the bus and the log sink.
	Run func(ctx context.Context, hooks naspipe.SuperviseConfig) (naspipe.Result, *naspipe.SuperviseReport, error)
	// Report prints the caller's own lines for a completed run; an
	// error fails the command.
	Report func(res naspipe.Result, rep *naspipe.SuperviseReport) error
}

// Run validates j.Spec, runs the job under a SIGINT/SIGTERM context
// derived from ctx, reports it and returns the exit code by
// naspipe.ExitCodeOf. Any of -trace-out, -events-out, -debug-addr and
// -progress attaches one telemetry bus, which the debug server serves
// and the progress ticker reads; both files are exported on success
// and on failure alike, since the fault timeline up to a failure is the
// artifact that matters. A resumable exit echoes the checkpoint with
// the -resume hint.
func (f *Flags) Run(ctx context.Context, stdout, stderr io.Writer, j Job) naspipe.ExitCode {
	if f.Resume && j.Spec.Checkpoint == "" {
		fmt.Fprintf(stderr, "%s: -resume requires -checkpoint\n", j.Name)
		return naspipe.ExitUsage
	}
	if err := j.Spec.Validate(); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", j.Name, err)
		return naspipe.ExitUsage
	}
	var bus *telemetry.Bus
	if f.TraceOut != "" || f.EventsOut != "" || f.DebugAddr != "" || f.Progress > 0 {
		bus = telemetry.NewBus(0)
	}
	stopDebug, err := f.ServeDebug(stderr, bus)
	if err != nil {
		fmt.Fprintf(stderr, "%s: debug server: %v\n", j.Name, err)
		return naspipe.ExitUsage
	}
	defer stopDebug()
	// SIGINT/SIGTERM cancel the run cooperatively; a checkpointed run's
	// committed frontier is already on disk, so it exits resumable.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	run := j.Run
	if run == nil {
		run = func(ctx context.Context, hooks naspipe.SuperviseConfig) (naspipe.Result, *naspipe.SuperviseReport, error) {
			return naspipe.RunJob(ctx, j.Spec, f.Resume, hooks)
		}
	}

	stopProgress := telemetry.StartProgress(stderr, bus, f.Progress)
	res, rep, err := run(ctx, naspipe.SuperviseConfig{
		Telemetry: bus,
		Log:       func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) },
	})
	stopProgress()
	if err == nil && res.Failed {
		err = fmt.Errorf("%s cannot run %s on %d GPUs: %s", res.Policy, res.Space, res.D, res.FailReason)
	}
	code := naspipe.ExitCodeOf(ctx, err, j.Spec.Checkpoint != "")
	if err == nil {
		if err = j.Report(res, rep); err != nil {
			code = naspipe.ExitFailure
		}
		summary(stdout, j.Spec, res, rep, bus)
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", j.Name, err)
	}
	if code == naspipe.ExitResumable {
		hint := "rerun with -resume"
		if j.Spec.Supervise != nil {
			hint = "rerun with -supervise -resume"
		}
		echoCheckpoint(stderr, j.Spec.Checkpoint, hint)
	}
	if bus != nil {
		if dropped := bus.Dropped(); dropped > 0 {
			fmt.Fprintf(stderr, "telemetry: ring dropped %d events; exports are truncated\n", dropped)
		}
		// The event log first: a trace that fails its validation must not
		// cost the raw stream.
		for _, out := range [][2]string{{"", f.EventsOut}, {f.TraceOut, ""}} {
			lines, err := telemetry.ExportFiles(bus, out[0], out[1])
			for _, l := range lines {
				fmt.Fprintln(stdout, l)
			}
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", j.Name, err)
				if code == naspipe.ExitOK {
					code = naspipe.ExitFailure
				}
			}
		}
	}
	return code
}

// summary prints the lines every completed run shares: the in-process
// supervisor's account, the verification verdict, the checkpoint and
// its plane's costs, and the telemetry counters.
func summary(w io.Writer, spec naspipe.JobSpec, res naspipe.Result, rep *naspipe.SuperviseReport, bus *telemetry.Bus) {
	if spec.Supervise != nil && rep != nil {
		fmt.Fprintf(w, "supervised run:    %s, %d restarts, %d watchdog fires, final D=%d\n",
			rep.FinalState, rep.Restarts, rep.WatchdogFires, rep.FinalGPUs)
		if len(rep.ElasticSteps) > 0 {
			fmt.Fprintf(w, "elastic steps:     depth %v after repeated same-stage incidents\n", rep.ElasticSteps)
		}
	}
	if spec.Verify {
		fmt.Fprintf(w, "resume verified:   prefix [0,%d) + replayed suffix == uninterrupted sequential weights %016x, bitwise\n",
			res.BaseSeq, res.Checksum)
	}
	if spec.Checkpoint != "" {
		echoCheckpoint(w, spec.Checkpoint, "")
		// Where a recovery's time went has an fsync share: only the
		// synchronous saves were on anyone's critical path.
		fmt.Fprintf(w, "checkpoint plane:  %v\n", res.CheckpointStats)
	}
	if bus != nil {
		fmt.Fprintf(w, "telemetry:         %s\n", bus.Snapshot().String())
	}
}

// echoCheckpoint prints the checkpoint file's cursor and incarnation
// with an optional operator hint.
func echoCheckpoint(w io.Writer, path, hint string) {
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

// ServeDebug serves /debug/pprof/ and /metrics, where bus's counters are
// registered (a nil bus reads zeros), on -debug-addr until the returned
// stop is called. Without -debug-addr it does nothing.
func (f *Flags) ServeDebug(w io.Writer, bus *telemetry.Bus) (stop func(), err error) {
	if f.DebugAddr == "" {
		return func() {}, nil
	}
	reg := obs.New()
	telemetry.Register(reg, bus.Counters)
	addr, stop, err := telemetry.Serve(f.DebugAddr, telemetry.NewDebugMux(reg))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "debug server on http://%s/ (/debug/pprof/, /metrics)\n", addr)
	return stop, nil
}
