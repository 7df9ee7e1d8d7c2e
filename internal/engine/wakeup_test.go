package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
	"naspipe/internal/transport"
)

// hookTransport is a ChanTransport whose sends pass through hook, which
// delivers, rewrites, holds or fails each message: the tests' hand on the
// data path, with no seam in the engine.
type hookTransport struct {
	*transport.ChanTransport
	hook func(m transport.Msg) error
}

func (h *hookTransport) Send(m transport.Msg) error { return h.hook(m) }

// hookCfg runs every stage of cfg in this process over a hookTransport.
func hookCfg(cfg engine.Config, hook func(ct *transport.ChanTransport, m transport.Msg) error) (engine.Config, *transport.ChanTransport) {
	d := cfg.Spec.GPUs
	ct := transport.NewChanTransport(d, engine.DistQueueCap(d, cfg.NumSubnets))
	stages := make([]int, d)
	for k := range stages {
		stages[k] = k
	}
	tp := &hookTransport{ChanTransport: ct, hook: func(m transport.Msg) error { return hook(ct, m) }}
	cfg.Dist = &engine.DistConfig{Transport: tp, Stages: stages}
	return cfg, ct
}

// disjointCfg is a 2-stage run over a crafted stream in which subnet i
// picks choice i mod 3 in every block: consecutive subnets share no
// layer, so subnet 1 is admissible everywhere whatever subnet 0 has
// written, and a test may order the two freely.
func disjointCfg() engine.Config {
	cfg := ccCfg(2, false)
	cfg.Subnets = make([]supernet.Subnet, 6)
	for i := range cfg.Subnets {
		choices := make([]int, cfg.Space.Blocks)
		for b := range choices {
			choices[b] = i % cfg.Space.Choices
		}
		cfg.Subnets[i] = supernet.Subnet{Seq: i, Choices: choices}
	}
	cfg.NumSubnets = len(cfg.Subnets)
	return cfg
}

// awaitWedge yields until the probe shows stage k wedged.
func awaitWedge(t *testing.T, probe *engine.RunProbe, k int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		for _, h := range probe.Snapshot() {
			if h.Stage == k && h.Wedged {
				return
			}
		}
	}
	t.Fatalf("stage %d never published Wedged", k)
}

// TestLostWakeupFailsTheRun is the negative control for the engine's
// lost-wake-up check. Every stage runs in this process over a transport
// that still delivers every note stage 0 sends, but stripped of its layer
// IDs: receivers wake and learn nothing, so a later subnet stays blocked
// behind a write nobody will report. Once every stage
// has parked with nothing in flight, the run must fail with a *StallError
// naming the blocked head and the subnet owning it, rather than hang until
// a deadline or a watchdog.
//
// A transport that swallows a message instead is not caught, by design:
// with no timer, a message held by a woken receiver and a lost one look
// the same to the check (both are in flight). Link loss stays
// transport.Link's and the supervision watchdog's to handle.
func TestLostWakeupFailsTheRun(t *testing.T) {
	for _, d := range []int{2, 4} {
		t.Run(fmt.Sprintf("gpus=%d", d), func(t *testing.T) {
			cfg, ct := hookCfg(ccCfg(d, false), func(ct *transport.ChanTransport, m transport.Msg) error {
				if m.Type == transport.FrameNote && m.From == 0 {
					m.IDs = nil
				}
				return ct.Send(m)
			})
			defer ct.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			_, err := engine.RunConcurrent(ctx, cfg)
			var stall *engine.StallError
			if !errors.As(err, &stall) {
				t.Fatalf("run with stripped notes returned %v, want a *engine.StallError", err)
			}
			for _, h := range stall.Stages {
				if h.BlockedHead >= 0 && h.OwnerSubnet >= 0 {
					return
				}
			}
			t.Fatalf("stall report names no blocked head and owner:\n%v", stall)
		})
	}
}

// TestRunErrorPrecedence pins which error an aborted run reports: the
// first cause, a send failure naming its stage pair, the parent's
// ctx.Err() over any cause, and a crash that also releases a wedged
// stage.
func TestRunErrorPrecedence(t *testing.T) {
	errDisk, errLink := errors.New("disk full"), errors.New("link down")
	for _, tc := range []struct {
		name  string
		run   func(t *testing.T) error
		check func(err error) bool
	}{{
		// Stage 1 crashes while stage 0 sits in its first checkpoint cut,
		// whose recorder then fails: the crash came first and is reported.
		// Stage 1 gets forward 1 only from inside that cut, and stage 0
		// gets gradient 0 only once forward 1 is sent, so the cut waits on
		// a crash that is always reachable.
		name: "crash then recorder failure",
		run: func(t *testing.T) error {
			var (
				mu         sync.Mutex
				fwd1, bwd0 *transport.Msg
			)
			cfg, ct := hookCfg(disjointCfg(), func(ct *transport.ChanTransport, m transport.Msg) error {
				mu.Lock()
				defer mu.Unlock()
				switch {
				case m.Type == transport.FrameFwd && m.Seq == 1:
					fwd1 = &m
					if bwd0 != nil {
						return ct.Send(*bwd0)
					}
					return nil
				case m.Type == transport.FrameBwd && m.Seq == 0 && fwd1 == nil:
					bwd0 = &m
					return nil
				}
				return ct.Send(m)
			})
			defer ct.Close()
			bus := telemetry.NewBus(0)
			cfg.Telemetry = bus
			cfg.Faults = &fault.Plan{Seed: 1, CrashTask: &fault.TaskRef{Stage: 1, Seq: 1, Kind: fault.KindForward}}
			cuts := 0
			cfg.Checkpoint = recorderFunc(func(fault.Cut) error {
				cuts++
				mu.Lock()
				err := ct.Send(*fwd1)
				mu.Unlock()
				if err != nil {
					return err
				}
				for bus.Count(telemetry.OpFaultCrash) == 0 {
					runtime.Gosched()
				}
				return errDisk
			})
			_, err := engine.RunConcurrent(context.Background(), cfg)
			if cuts != 1 {
				t.Fatalf("recorder called %d times, want once", cuts)
			}
			return err
		},
		check: func(err error) bool {
			var ce *fault.CrashError
			return errors.As(err, &ce) && ce.Stage == 1 && ce.Seq == 1
		},
	}, {
		name: "send failure names the stage pair",
		run: func(t *testing.T) error {
			cfg, ct := hookCfg(ccCfg(4, false), func(ct *transport.ChanTransport, m transport.Msg) error {
				if m.Type == transport.FrameBwd && m.From == 2 {
					return errLink
				}
				return ct.Send(m)
			})
			defer ct.Close()
			_, err := engine.RunConcurrent(context.Background(), cfg)
			return err
		},
		check: func(err error) bool {
			return errors.Is(err, errLink) && strings.Contains(err.Error(), "transport send (stage 2 -> 1)")
		},
	}, {
		name: "parent cancelled while a stage is wedged",
		run: func(t *testing.T) error {
			cfg := ccCfg(4, false)
			cfg.Faults = &fault.Plan{Seed: 1, WedgeTask: &fault.TaskRef{Stage: 1, Seq: 6, Kind: fault.KindForward}}
			probe := &engine.RunProbe{}
			cfg.Probe = probe
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			done := make(chan error, 1)
			go func() {
				_, err := engine.RunConcurrent(ctx, cfg)
				done <- err
			}()
			awaitWedge(t, probe, 1)
			cancel(errDisk) // a parent cause must not leak through: ctx.Err() is reported
			return <-done
		},
		check: func(err error) bool { return err == context.Canceled },
	}, {
		// Stage 1 wedges on forward 1; only then does stage 0 get gradient 0,
		// whose backward crashes. The crash is reported and releases the
		// wedged goroutine: the goroutine count returns to its baseline.
		name: "crash while another stage is wedged",
		run: func(t *testing.T) error {
			var (
				mu   sync.Mutex
				bwd0 *transport.Msg
			)
			cfg, ct := hookCfg(disjointCfg(), func(ct *transport.ChanTransport, m transport.Msg) error {
				if m.Type == transport.FrameBwd && m.Seq == 0 {
					mu.Lock()
					bwd0 = &m
					mu.Unlock()
					return nil
				}
				return ct.Send(m)
			})
			defer ct.Close()
			cfg.Faults = &fault.Plan{
				Seed:      1,
				WedgeTask: &fault.TaskRef{Stage: 1, Seq: 1, Kind: fault.KindForward},
				CrashTask: &fault.TaskRef{Stage: 0, Seq: 0, Kind: fault.KindBackward},
			}
			probe := &engine.RunProbe{}
			cfg.Probe = probe
			baseline := runtime.NumGoroutine()
			done := make(chan error, 1)
			go func() {
				_, err := engine.RunConcurrent(context.Background(), cfg)
				done <- err
			}()
			awaitWedge(t, probe, 1)
			mu.Lock()
			err := ct.Send(*bwd0)
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			err = <-done
			for i := 0; runtime.NumGoroutine() > baseline; i++ {
				if i == 1_000_000 {
					t.Fatalf("%d goroutines still running over a baseline of %d", runtime.NumGoroutine(), baseline)
				}
				runtime.Gosched()
			}
			return err
		},
		check: func(err error) bool {
			var ce *fault.CrashError
			return errors.As(err, &ce) && ce.Stage == 0 && ce.Seq == 0
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(t); !tc.check(err) {
				t.Fatalf("run returned %v", err)
			}
		})
	}
}

// recorderFunc adapts a function to fault.Recorder.
type recorderFunc func(fault.Cut) error

func (f recorderFunc) Snapshot(c fault.Cut) error { return f(c) }
