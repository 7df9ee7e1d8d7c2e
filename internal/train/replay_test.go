package train

import (
	"fmt"
	"testing"

	"naspipe/internal/data"
	"naspipe/internal/layers"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
)

// replayCloneEveryRead is the replay ReplayOn replaced, kept as the
// oracle for its copy-on-write snapshots: every READ deep-copies the
// layer it observes, so a view can never see a later write.
func replayCloneEveryRead(cfg Config, subnets []supernet.Subnet, tr *trace.Trace) (Result, error) {
	cfg = cfg.withDefaults()
	net := supernet.BuildNumeric(cfg.Space, cfg.Dim, cfg.Seed)
	src := data.NewSource(cfg.Dataset, cfg.Dim, cfg.BatchSize, cfg.Seed)
	ar := newArena(cfg.Dim)
	type state struct {
		sub        supernet.Subnet
		views      []*layers.Layer
		seen       int
		grads      []*layers.Grads
		computed   bool
		writesLeft int
		pos        int
	}
	pend := make(map[int]*state, len(subnets))
	for i, sub := range subnets {
		pend[sub.Seq] = &state{sub: sub, views: make([]*layers.Layer, len(sub.Choices)), writesLeft: len(sub.Choices), pos: i}
	}
	losses := make([]float32, len(subnets))
	for _, ev := range tr.Events {
		p := pend[ev.Subnet]
		if p == nil {
			return Result{}, fmt.Errorf("unknown subnet %d", ev.Subnet)
		}
		block, choice := cfg.Space.BlockChoice(ev.Layer)
		switch ev.Kind {
		case trace.Read:
			p.views[block] = net.At(block, choice).Clone()
			p.seen++
		case trace.Write:
			if !p.computed {
				if p.seen != len(p.sub.Choices) {
					return Result{}, fmt.Errorf("subnet %d writes before completing reads", ev.Subnet)
				}
				losses[p.pos], p.grads = step(cfg, src.Batch(p.sub.Seq), p.sub, p.views, ar)
				p.computed = true
			}
			net.At(block, choice).ApplySGD(p.grads[block], cfg.LR)
			if p.writesLeft--; p.writesLeft == 0 {
				ar.release(p.grads)
			}
		}
	}
	return Result{Net: net, Losses: losses, Checksum: net.Checksum()}, nil
}

// TestCopyOnWriteReplayMatchesCloneEveryRead holds the copy-on-write
// replay to the clone-every-READ oracle, bit for bit in weights and
// losses, on the CSP discipline (which copies nothing) and on the BSP and
// ASP ones (whose stale reads are exactly what the copies preserve).
func TestCopyOnWriteReplayMatchesCloneEveryRead(t *testing.T) {
	sp := supernet.NLPc3.Scaled(8, 2) // dense sharing: many stale reads off CSP
	cfg := testCfg(sp)
	const n = 24
	seq := Sequential(cfg, supernet.Sample(sp, 1, n))
	for _, policy := range []string{"naspipe", "gpipe", "pipedream", "vpipe"} {
		diverged := false
		for _, d := range []int{1, 2, 4, 8} {
			res, subs := traceFor(t, policy, sp, d, n, 1)
			got, err := Replay(cfg, subs, res.Trace)
			if err != nil {
				t.Fatalf("%s D=%d: %v", policy, d, err)
			}
			want, err := replayCloneEveryRead(cfg, subs, res.Trace)
			if err != nil {
				t.Fatalf("%s D=%d oracle: %v", policy, d, err)
			}
			if got.Checksum != want.Checksum || !LossesBitwiseEqual(got.Losses, want.Losses) {
				t.Errorf("%s D=%d: copy-on-write replay %016x, clone-every-READ %016x", policy, d, got.Checksum, want.Checksum)
			}
			diverged = diverged || want.Checksum != seq.Checksum
		}
		if policy != "naspipe" && !diverged {
			t.Errorf("%s never diverged from sequential: the stale-read path went unexercised", policy)
		}
	}
}

// TestCSPReplayDoesNotCopyLayers bounds the allocations of a CSP replay
// at 20 per subnet (its data batch is about 12). Copying each READ's
// layer, as the clone-every-READ replay did, costs 4 more per block
// (layer, matrix, weights, bias): 32 per subnet of 8 blocks on its own.
func TestCSPReplayDoesNotCopyLayers(t *testing.T) {
	sp := supernet.NLPc3.Scaled(8, 3)
	cfg := testCfg(sp)
	const n = 24
	res, subs := traceFor(t, "naspipe", sp, 4, n, 1)
	if _, err := Replay(cfg, subs, res.Trace); err != nil { // warm the init and vocab memos
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Replay(cfg, subs, res.Trace); err != nil {
			t.Fatal(err)
		}
	})
	if ceiling := float64(20 * n); allocs > ceiling {
		t.Fatalf("CSP replay of %d subnets allocated %.0f times, ceiling %.0f", n, allocs, ceiling)
	}
}
