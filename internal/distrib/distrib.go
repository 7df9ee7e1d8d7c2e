// Package distrib is the distributed execution plane: a coordinator
// that owns a training run and a fleet of stage workers that execute
// it, one OS process (or goroutine, under the in-process launcher) per
// pipeline stage.
//
// Data and control travel apart. Engine traffic — activations,
// gradients, CSP write notes, prefetch pushes — moves on a mesh of
// worker-to-worker fault-tolerant transport.Links, one TCP hop per
// message, as the paper's decentralised CSP synchronisation and
// PipeDream's point-to-point stage workers have it: each stage resolves
// its dependencies from what its peers send it, with no server between
// them. Each worker listens beside its coordinator connection and names
// that address in its Hello; once the whole fleet has said hello, the
// coordinator's Assign carries the peer address table, and each worker
// dials its lower stages and accepts its higher ones behind the same
// Hello and incarnation fence. The job's transport faults fire on the
// sending end of each peer link. The coordinator keeps one control Link
// per worker and relays nothing: it serves Hello/Assign, heartbeats,
// stage-0 cuts, Done/Failed and Abort, and it observes worker death in
// one place — a worker is declared dead when its heartbeats stop
// arriving before the deadline or its process exits without reporting
// a result. A heartbeat carries the worker's stage health row, which
// the coordinator publishes into the run probe as the stage goroutine
// does in one process, so the supervision watchdog diagnoses a fleet
// from the stages' own scheduler state.
//
// Recovery is the single-process recovery loop itself, with another
// executor: Coordinator.Run hands naspipe.Job.RunSupervised its
// incarnate, which launches one fleet per incarnation. The loop holds
// the only durable state — the job's one checkpoint recorder, kept in
// memory when the spec names no file — and the stage-0 worker streams
// its consistency cuts to it through the coordinator. When any worker
// dies — a crash injected by the fault plane, a kill -9, a silent
// hang — the coordinator tears the incarnation's fleet down, the loop
// bumps the incarnation, and the next fleet launches from the
// committed cursor; the suffix renumbers through SeqBase exactly as a
// single-process resume does, so the merged result is bitwise
// identical to the uninterrupted run (CSP, Definition 1).
//
// Verification composes across the fleet: each worker checks its local
// per-layer projection inside the engine, reports its observed trace
// in its Done frame, and the coordinator topologically merges the
// fleet's traces (engine.MergeStageTraces) into one global observation
// that replays against the sequential reference.
package distrib

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"naspipe/internal/telemetry"
)

// WorkerSpec tells a launcher everything one stage worker needs to
// join a run: where the coordinator listens, which run and incarnation
// it is joining, and which stage it owns.
type WorkerSpec struct {
	Addr        string
	RunID       string
	Stage       int
	Incarnation int
}

// Process is a launched worker. Wait blocks until the worker exits and
// returns its terminal error, to every caller — the coordinator's death
// watcher and its reaper both wait on every worker; Kill terminates it
// abruptly (SIGKILL for real processes) — the worker gets no chance to
// say goodbye, which is the point: recovery must not depend on clean
// shutdown.
type Process interface {
	Wait() error
	Kill() error
}

// Launcher starts stage workers. The coordinator launches one worker
// per stage at every incarnation and kills the survivors when any
// member of the fleet dies.
type Launcher interface {
	Start(ctx context.Context, w WorkerSpec) (Process, error)
}

// proc is a launched worker, real or in-process. One goroutine started
// by the launcher observes the exit, stores the terminal error and closes
// done, so Wait serves any number of concurrent callers.
type proc struct {
	kill func() error
	done chan struct{} // closed once err holds the worker's terminal error
	err  error
}

func (p *proc) Wait() error {
	<-p.done
	return p.err
}

func (p *proc) Kill() error { return p.kill() }

// ExecLauncher runs each worker as a separate OS process — the real
// deployment shape, and the one the kill -9 drill exercises.
type ExecLauncher struct {
	// Bin is the worker binary (naspiped). Required.
	Bin string
	// Args lead the standard set: naspiped's "stage" subcommand.
	Args []string
	// LogDir, when set, captures each worker's combined output to
	// stage-<k>.inc<i>.log inside it.
	LogDir string
}

// Start launches `Bin [Args...] -addr A -run R -stage K -incarnation I`.
func (l *ExecLauncher) Start(ctx context.Context, w WorkerSpec) (Process, error) {
	if l.Bin == "" {
		return nil, fmt.Errorf("distrib: ExecLauncher needs a worker binary")
	}
	args := append(append([]string(nil), l.Args...),
		"-addr", w.Addr,
		"-run", w.RunID,
		"-stage", strconv.Itoa(w.Stage),
		"-incarnation", strconv.Itoa(w.Incarnation),
	)
	cmd := exec.Command(l.Bin, args...)
	var log *os.File
	if l.LogDir != "" {
		f, err := os.Create(filepath.Join(l.LogDir,
			fmt.Sprintf("stage-%d.inc%d.log", w.Stage, w.Incarnation)))
		if err != nil {
			return nil, fmt.Errorf("distrib: worker log: %w", err)
		}
		cmd.Stdout, cmd.Stderr = f, f
		log = f
	}
	if err := cmd.Start(); err != nil {
		if log != nil {
			log.Close()
		}
		return nil, fmt.Errorf("distrib: launching stage %d: %w", w.Stage, err)
	}
	// Kill is SIGKILL, not SIGTERM: the drill is surviving ungraceful death.
	p := &proc{kill: cmd.Process.Kill, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		if log != nil {
			log.Close()
		}
		close(p.done)
	}()
	return p, nil
}

// InProcLauncher runs each worker as a goroutine inside this process —
// same worker code, same TCP links and mesh, same frames on the wire; only the
// process boundary is simulated. Kill cancels the worker's context
// without any farewell frame, which from the coordinator's side is
// indistinguishable from kill -9: the connection just dies.
type InProcLauncher struct {
	// Tel, when non-nil, receives every worker's link telemetry.
	Tel *telemetry.Bus
	// Log, when non-nil, receives worker log lines.
	Log func(format string, args ...any)
}

// Start runs RunWorker in a goroutine. The worker context is detached
// from ctx's cancellation path only through Kill — exactly one way to
// die, like a process.
func (l *InProcLauncher) Start(ctx context.Context, w WorkerSpec) (Process, error) {
	wctx, cancel := context.WithCancel(context.Background())
	p := &proc{kill: func() error { cancel(); return nil }, done: make(chan struct{})}
	go func() {
		p.err = RunWorker(wctx, WorkerConfig{
			Addr: w.Addr, RunID: w.RunID,
			Stage: w.Stage, Incarnation: w.Incarnation,
			Tel: l.Tel, Log: l.Log,
		})
		close(p.done)
		cancel()
	}()
	return p, nil
}
