package engine_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"naspipe/internal/cluster"
	"naspipe/internal/data"
	"naspipe/internal/engine"
	"naspipe/internal/supernet"
	"naspipe/internal/train"
	"naspipe/internal/transport"
)

// TestTargetedNotesKeepDefinition1 runs the goroutine plane on NLP.c1,
// whose balanced per-subnet partitions place the same layer on
// different stages from one subnet to the next, so a write note often
// has to cross stages to reach the next reader and releases through
// writers whose notes went elsewhere. With timing jitter at 2, 4 and 8
// stages, the observed per-layer order must equal the sequential
// reference and the replay must land on the sequential weights.
func TestTargetedNotesKeepDefinition1(t *testing.T) {
	for _, d := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("gpus=%d", d), func(t *testing.T) {
			cfg := engine.Config{
				Space: supernet.NLPc1, Spec: cluster.Default(d), Seed: 7, NumSubnets: 32,
				RecordTrace: true, TimingJitter: 0.5, JitterSeed: 13,
			}
			res, err := engine.RunConcurrent(context.Background(), cfg)
			if err != nil {
				t.Fatalf("concurrent run: %v", err)
			}
			if res.Completed != cfg.NumSubnets {
				t.Fatalf("completed %d/%d", res.Completed, cfg.NumSubnets)
			}
			if !res.ObservedTrace.PerLayerEqual(res.Trace) {
				t.Fatal("observed per-layer access order diverges from the sequential reference")
			}
			tc := train.Config{Space: cfg.Space, Dim: 8, Seed: cfg.Seed, BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
			subs := supernet.Sample(cfg.Space, cfg.Seed, cfg.NumSubnets)
			want := train.Sequential(tc, subs).Checksum
			rep, err := train.Replay(tc, subs, res.Trace)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if rep.Checksum != want {
				t.Fatalf("replay checksum %016x, sequential %016x", rep.Checksum, want)
			}
		})
	}
}

// TestDroppedTargetedNoteStallsTheRun is the routing's negative control:
// every targeted note is needed. A transport wrapper withholds one note
// bound for a stage other than 0 — the receiver then never learns that
// the next reader's predecessor wrote, and no later note can tell it,
// since every later writer of that layer waits for that reader. (Stage 0
// is spared: it retires each subnet on its own scheduler, which releases
// through the subnet's layers, so a note to it only saves time.) The
// wrapper still hands the receiver the frame, emptied of its layers, so
// the engine's in-flight ledger balances and its lost-wake-up check,
// rather than a deadline, ends the run: with a stall naming a blocked
// head on the stage that lost the note, never a completion.
func TestDroppedTargetedNoteStallsTheRun(t *testing.T) {
	for _, d := range []int{2, 4} {
		t.Run(fmt.Sprintf("gpus=%d", d), func(t *testing.T) {
			var (
				mu      sync.Mutex
				dropped *transport.Msg
			)
			cfg, ct := hookCfg(ccCfg(d, true), func(ct *transport.ChanTransport, m transport.Msg) error {
				if m.Type == transport.FrameNote && m.To != 0 {
					mu.Lock()
					if dropped == nil {
						dropped = &m
						m.IDs = nil
					}
					mu.Unlock()
				}
				return ct.Send(m)
			})
			defer ct.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			res, err := engine.RunConcurrent(ctx, cfg)
			if dropped == nil {
				t.Fatalf("the run sent no note to a stage other than 0 (err %v)", err)
			}
			var stall *engine.StallError
			if !errors.As(err, &stall) {
				t.Fatalf("run missing subnet %d's note %d -> %d returned %v after %d/%d subnets, want a *engine.StallError",
					dropped.Seq, dropped.From, dropped.To, err, res.Completed, cfg.NumSubnets)
			}
			if res.Completed >= cfg.NumSubnets {
				t.Fatalf("stalled run reports %d/%d subnets completed", res.Completed, cfg.NumSubnets)
			}
			for _, h := range stall.Stages {
				if h.Stage == dropped.To && h.BlockedHead >= 0 {
					return
				}
			}
			t.Fatalf("stall names no blocked head on stage %d, which lost subnet %d's note:\n%v", dropped.To, dropped.Seq, stall)
		})
	}
}
