package train

import (
	"fmt"
	"runtime"
	"testing"

	"naspipe/internal/data"
	"naspipe/internal/layers"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
)

// replayCloneEveryRead is the replay's test oracle: a walk in trace
// order where every READ deep-copies the layer it observes, so a view can
// never see a later write, and each subnet's step runs whole at its first
// WRITE.
func replayCloneEveryRead(cfg Config, subnets []supernet.Subnet, tr *trace.Trace) (Result, error) {
	cfg = cfg.withDefaults()
	net := supernet.BuildNumeric(cfg.Space, cfg.Dim, cfg.Seed)
	src := data.NewSource(cfg.Dataset, cfg.Dim, cfg.BatchSize, cfg.Seed)
	type state struct {
		sub      supernet.Subnet
		views    []*layers.Layer
		seen     int
		ar       *arena
		computed bool
		pos      int
	}
	pend := make(map[int]*state, len(subnets))
	for i, sub := range subnets {
		pend[sub.Seq] = &state{sub: sub, views: make([]*layers.Layer, len(sub.Choices)), ar: newArena(cfg.Dim), pos: i}
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
				m := len(p.views)
				p.ar.begin(src.Batch(p.sub.Seq), m)
				for b, v := range p.views {
					p.ar.forward(b, v)
				}
				for b := m - 1; b >= 0; b-- {
					p.ar.grads[b] = p.views[b].NewGrads()
					p.ar.backward(b, p.views[b])
				}
				losses[p.pos] = p.ar.loss
				p.computed = true
			}
			net.At(block, choice).ApplySGD(p.ar.grads[block], cfg.LR)
		}
	}
	return Result{Net: net, Losses: losses, Checksum: net.Checksum()}, nil
}

// TestCopyOnWriteReplayMatchesCloneEveryRead holds the task-graph
// replay to the clone-every-READ oracle, bit for bit in weights and
// losses, on the CSP discipline (which copies nothing) and on the BSP and
// ASP ones (whose stale reads are exactly what the copies preserve). Dim
// 8 runs the graph on the calling goroutine, dim 32 on up to GOMAXPROCS
// workers, at every worker count from 1 to 8.
func TestCopyOnWriteReplayMatchesCloneEveryRead(t *testing.T) {
	sp := supernet.NLPc3.Scaled(8, 2) // dense sharing: many stale reads off CSP
	const n = 24
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range []Config{testCfg(sp), {Space: sp, Dim: 32, Seed: 7, BatchSize: 4, LR: 0.05, Dataset: data.WNMT}} {
		seq := Sequential(cfg, supernet.Sample(sp, 1, n))
		for _, policy := range []string{"naspipe", "gpipe", "pipedream", "vpipe"} {
			diverged := false
			for _, d := range []int{1, 2, 4, 8} {
				res, subs := traceFor(t, policy, sp, d, n, 1)
				want, err := replayCloneEveryRead(cfg, subs, res.Trace)
				if err != nil {
					t.Fatalf("%s D=%d oracle: %v", policy, d, err)
				}
				for _, procs := range []int{1, 2, 4, 8} {
					runtime.GOMAXPROCS(procs)
					got := replayNoLeak(t, cfg, subs, res.Trace)
					if got.Checksum != want.Checksum || !LossesBitwiseEqual(got.Losses, want.Losses) {
						t.Errorf("dim %d %s D=%d GOMAXPROCS=%d: replay %016x, clone-every-READ %016x",
							cfg.Dim, policy, d, procs, got.Checksum, want.Checksum)
					}
				}
				diverged = diverged || want.Checksum != seq.Checksum
			}
			if policy != "naspipe" && !diverged {
				t.Errorf("%s never diverged from sequential: the stale-read path went unexercised", policy)
			}
		}
	}
}

// replayNoLeak replays and fails the test if a worker goroutine outlives
// the call. A worker that has signalled its exit may still be returning,
// so the count is read again after yielding, a bounded number of times.
func replayNoLeak(t *testing.T, cfg Config, subs []supernet.Subnet, tr *trace.Trace) Result {
	t.Helper()
	before := runtime.NumGoroutine()
	res, err := Replay(cfg, subs, tr)
	if err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	for i := 0; i < 1e6 && after > before; i++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
	}
	if after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines left after Replay returned\n%s", after-before, buf[:runtime.Stack(buf, true)])
	}
	return res
}

// TestReplayClonesWhereWaitingWouldDeadlock replays the trace where a
// WRITE that waited for every earlier reader's backward would deadlock:
// p READs L, r WRITEs L, s READs L, s READs and WRITEs M, p READs M.
// Waiting, r's WRITE of L needs p's backward, which needs p's READ of M,
// which needs s's WRITE of M, which needs s's READ of L — after r's
// WRITE. p has not done its READs at r's WRITE, so it gets a pre-write
// copy of L instead and the graph stays acyclic.
func TestReplayClonesWhereWaitingWouldDeadlock(t *testing.T) {
	sp := supernet.NLPc3.Scaled(2, 1)
	L, M := sp.ID(0, 0), sp.ID(1, 0)
	const p, r, s = 0, 1, 2
	subs := []supernet.Subnet{{Seq: p, Choices: []int{0, 0}}, {Seq: r, Choices: []int{0, 0}}, {Seq: s, Choices: []int{0, 0}}}
	tr := &trace.Trace{}
	for _, e := range []struct {
		sub   int
		layer supernet.LayerID
		kind  trace.AccessKind
	}{
		{r, L, trace.Read}, {r, M, trace.Read},
		{p, L, trace.Read},
		{r, L, trace.Write},
		{s, L, trace.Read}, {s, M, trace.Read}, {s, M, trace.Write},
		{p, M, trace.Read},
		{r, M, trace.Write}, {s, L, trace.Write}, {p, L, trace.Write}, {p, M, trace.Write},
	} {
		tr.Append(0, e.layer, e.sub, 0, e.kind)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, dim := range []int{8, 32} {
		cfg := Config{Space: sp, Dim: dim, Seed: 7, BatchSize: 4, LR: 0.05, Dataset: data.WNMT}
		want, err := replayCloneEveryRead(cfg, subs, tr)
		if err != nil {
			t.Fatal(err)
		}
		got := replayNoLeak(t, cfg, subs, tr)
		if got.Checksum != want.Checksum || !LossesBitwiseEqual(got.Losses, want.Losses) {
			t.Errorf("dim %d: replay %016x, clone-every-READ %016x", dim, got.Checksum, want.Checksum)
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
