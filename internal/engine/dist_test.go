package engine_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"naspipe/internal/cluster"
	"naspipe/internal/data"
	"naspipe/internal/engine"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
	"naspipe/internal/train"
	"naspipe/internal/transport"
)

// TestDistChanTransportPinsSingleProcess is the dist plane's anchor: a
// run with every stage local but all cross-stage traffic routed through
// a ChanTransport must be indistinguishable from the plain in-process
// executor — same canonical trace, same per-layer order, same replayed
// weights. The transport indirection is pure wiring.
func TestDistChanTransportPinsSingleProcess(t *testing.T) {
	for _, d := range []int{2, 4} {
		t.Run(fmt.Sprintf("gpus=%d", d), func(t *testing.T) {
			cfg := ccCfg(d, true)
			ref, err := engine.RunConcurrent(context.Background(), cfg)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			tp := transport.NewChanTransport(d, engine.DistQueueCap(d, cfg.NumSubnets))
			defer tp.Close()
			stages := make([]int, d)
			for k := range stages {
				stages[k] = k
			}
			dcfg := cfg
			dcfg.Dist = &engine.DistConfig{Transport: tp, Stages: stages}
			got, err := engine.RunConcurrent(context.Background(), dcfg)
			if err != nil {
				t.Fatalf("dist run: %v", err)
			}

			if got.Completed != ref.Completed {
				t.Fatalf("dist completed %d, reference %d", got.Completed, ref.Completed)
			}
			if !got.Trace.Equal(ref.Trace) {
				t.Fatal("dist canonical trace diverges from the single-process reference")
			}
			if !got.ObservedTrace.PerLayerEqual(ref.Trace) {
				t.Fatal("dist observed per-layer order diverges from the reference")
			}

			tc := train.Config{Space: cfg.Space, Dim: 8, Seed: cfg.Seed,
				BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
			subs := supernet.Sample(cfg.Space, cfg.Seed, cfg.NumSubnets)
			want := train.Sequential(tc, subs).Checksum
			rep, err := train.Replay(tc, subs, got.Trace)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if rep.Checksum != want {
				t.Fatalf("dist replay checksum %016x, want sequential %016x", rep.Checksum, want)
			}
		})
	}
}

// TestFullInboxFailsTheRunLoudly pins the never-block invariant of the
// data path: a destination queue too small for the traffic — the bug the
// window-sized inbox guards against — must fail the run with an error
// naming the sending and receiving stage. A blocking send here would
// deadlock the stage goroutines and hang this test; a panic would kill it.
func TestFullInboxFailsTheRunLoudly(t *testing.T) {
	const d = 4
	// Stage 0 hands stage 1 a window of twelve forwards that share no
	// layer, so none waits on another, while stage 1, a 400× straggler,
	// sleeps 10 ms in every task: the activations pile up on its inbox.
	cfg := ccCfg(d, false)
	cfg.Space = supernet.NLPc3.Scaled(8, 12)
	cfg.Subnets = make([]supernet.Subnet, 12)
	for i := range cfg.Subnets {
		choices := make([]int, cfg.Space.Blocks)
		for b := range choices {
			choices[b] = i
		}
		cfg.Subnets[i] = supernet.Subnet{Seq: i, Choices: choices}
	}
	cfg.NumSubnets = len(cfg.Subnets)
	cfg.StageSpeeds = []float64{1, 401, 1, 1}
	tp := transport.NewChanTransport(d, 1)
	defer tp.Close()
	cfg.Dist = &engine.DistConfig{Transport: tp, Stages: []int{0, 1, 2, 3}}
	_, err := engine.RunConcurrent(context.Background(), cfg)
	if err == nil {
		t.Fatal("run over a 1-slot transport succeeded; the overflow went unnoticed")
	}
	var from, to, capacity int
	at := strings.Index(err.Error(), "transport: stage")
	if at < 0 {
		t.Fatalf("overflow error does not come from the transport: %v", err)
	}
	if _, serr := fmt.Sscanf(err.Error()[at:], "transport: stage %d -> %d: delivery queue full (cap %d)",
		&from, &to, &capacity); serr != nil {
		t.Fatalf("unhelpful overflow diagnostic %q: %v", err, serr)
	}
	if from == to || from < 0 || from >= d || to < 0 || to >= d || capacity != 1 {
		t.Fatalf("overflow names stage %d -> %d, cap %d: %v", from, to, capacity, err)
	}
}

// TestDistSplitWorkersVerifyAndMerge simulates a two-process fleet
// inside one test: two RunConcurrent workers own disjoint stage sets
// and share one ChanTransport. Each must verify its local per-layer
// projection; the k-way topological merge of their observed traces must
// replay to the bitwise weights of sequential training — the exact
// check the coordinator performs on a real multi-process run.
func TestDistSplitWorkersVerifyAndMerge(t *testing.T) {
	const d = 4
	cfg := ccCfg(d, true)
	tp := transport.NewChanTransport(d, engine.DistQueueCap(d, cfg.NumSubnets))
	defer tp.Close()

	parts := [][]int{{0, 1}, {2, 3}}
	results := make([]engine.Result, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, stages := range parts {
		wg.Add(1)
		go func(i int, stages []int) {
			defer wg.Done()
			wcfg := cfg
			wcfg.Dist = &engine.DistConfig{Transport: tp, Stages: stages}
			results[i], errs[i] = engine.RunConcurrent(context.Background(), wcfg)
		}(i, stages)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d (stages %v): %v", i, parts[i], err)
		}
		if results[i].Completed != cfg.NumSubnets {
			t.Fatalf("worker %d completed %d/%d", i, results[i].Completed, cfg.NumSubnets)
		}
		// Local verification already ran inside RunConcurrent; pin the
		// shape too: a worker's trace covers exactly its own stages.
		for _, ev := range results[i].ObservedTrace.Events {
			if ev.Stage != parts[i][0] && ev.Stage != parts[i][1] {
				t.Fatalf("worker %d observed stage %d outside its partition %v", i, ev.Stage, parts[i])
			}
		}
	}

	seq := run(t, "sequential", cfg)
	merged := engine.MergeStageTraces(d, cfg.SeqBase,
		[]*trace.Trace{results[0].ObservedTrace, results[1].ObservedTrace})
	if len(merged.Events) != len(seq.Trace.Events) {
		t.Fatalf("merged trace has %d events, sequential reference %d",
			len(merged.Events), len(seq.Trace.Events))
	}
	if !merged.PerLayerEqual(seq.Trace) {
		t.Fatal("merged per-layer access order diverges from the sequential reference")
	}

	tc := train.Config{Space: cfg.Space, Dim: 8, Seed: cfg.Seed,
		BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
	subs := supernet.Sample(cfg.Space, cfg.Seed, cfg.NumSubnets)
	want := train.Sequential(tc, subs).Checksum
	rep, err := train.Replay(tc, subs, merged)
	if err != nil {
		t.Fatalf("merged-trace replay: %v", err)
	}
	if rep.Checksum != want {
		t.Fatalf("merged replay checksum %016x, want sequential %016x", rep.Checksum, want)
	}

	// The merge is independent of the order workers report in.
	swapped := engine.MergeStageTraces(d, cfg.SeqBase,
		[]*trace.Trace{results[1].ObservedTrace, results[0].ObservedTrace})
	if !swapped.Equal(merged) {
		t.Fatal("merge result depends on the order of worker traces")
	}
}

// TestMergeCrossStageLayerSharing pins the per-layer merge gate on the
// geometry that needs it: unscaled NLP.c1, where stage partitions are
// per-subnet and the same layer lands on different stages for
// different subnets. A fully-split fleet (one worker per stage) means
// no worker's local order relates those accesses — only the merge's
// per-layer CSP chain does. Without it, the merged trace interleaves
// one layer's subnets out of order and the replay diverges bitwise.
func TestMergeCrossStageLayerSharing(t *testing.T) {
	const d = 4
	cfg := engine.Config{
		Space:       supernet.NLPc1,
		Spec:        cluster.Default(d),
		Seed:        7,
		NumSubnets:  16,
		RecordTrace: true,
	}
	ref, err := engine.RunConcurrent(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// This test is vacuous unless some layer really straddles stages.
	stageOf := map[supernet.LayerID]int{}
	straddles := false
	for _, ev := range ref.Trace.Events {
		if k, ok := stageOf[ev.Layer]; ok && k != ev.Stage {
			straddles = true
			break
		}
		stageOf[ev.Layer] = ev.Stage
	}
	if !straddles {
		t.Fatal("no layer straddles stages in this geometry; the test no longer covers the per-layer gate")
	}

	tp := transport.NewChanTransport(d, engine.DistQueueCap(d, cfg.NumSubnets))
	defer tp.Close()
	results := make([]engine.Result, d)
	errs := make([]error, d)
	var wg sync.WaitGroup
	for k := 0; k < d; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			wcfg := cfg
			wcfg.Dist = &engine.DistConfig{Transport: tp, Stages: []int{k}}
			results[k], errs[k] = engine.RunConcurrent(context.Background(), wcfg)
		}(k)
	}
	wg.Wait()
	traces := make([]*trace.Trace, d)
	for k := range results {
		if errs[k] != nil {
			t.Fatalf("worker %d: %v", k, errs[k])
		}
		traces[k] = results[k].ObservedTrace
	}
	merged := engine.MergeStageTraces(d, 0, traces)
	if len(merged.Events) != len(ref.Trace.Events) {
		t.Fatalf("merged %d events, canonical %d — the merge stalled", len(merged.Events), len(ref.Trace.Events))
	}
	if !merged.PerLayerEqual(ref.Trace) {
		t.Fatal("merged per-layer order diverges from the sequential reference")
	}
	tc := train.Config{Space: cfg.Space, Dim: 8, Seed: cfg.Seed,
		BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
	subs := supernet.Sample(cfg.Space, cfg.Seed, cfg.NumSubnets)
	want := train.Sequential(tc, subs).Checksum
	rep, err := train.Replay(tc, subs, merged)
	if err != nil {
		t.Fatalf("merged-trace replay: %v", err)
	}
	if rep.Checksum != want {
		t.Fatalf("merged replay checksum %016x, want sequential %016x", rep.Checksum, want)
	}
}

// ev builds a trace event; merge tests only look at (kind, layer,
// subnet, stage).
func ev(k trace.AccessKind, layer, subnet, stage int) trace.Event {
	return trace.Event{Kind: k, Layer: supernet.LayerID(layer), Subnet: subnet, Stage: stage}
}

// TestMergeStageTracesHandlesOutOfOrderForwarding is the counterexample
// that rules out a plain rank-greedy merge. Stage 0 legally ran subnet
// 1's forward before subnet 0's (they touch disjoint layers there)
// while stage 1 already retired subnet 0. Greedy-by-rank would emit
// subnet 0's stage-1 WRITE while its stage-0 READ is still queued
// behind subnet 1 — an order the replay trainer rejects. The
// topological merge must instead hold the WRITE until every READ of
// subnet 0 is out.
func TestMergeStageTracesHandlesOutOfOrderForwarding(t *testing.T) {
	worker0 := &trace.Trace{Events: []trace.Event{
		ev(trace.Read, 1, 1, 0),  // F(1)@0 first: out-of-order forwarding
		ev(trace.Read, 0, 0, 0),  // F(0)@0
		ev(trace.Write, 0, 0, 0), // B(0)@0
		ev(trace.Write, 1, 1, 0), // B(1)@0
	}}
	worker1 := &trace.Trace{Events: []trace.Event{
		ev(trace.Read, 2, 0, 1),  // F(0)@1
		ev(trace.Write, 2, 0, 1), // B(0)@1 — retired before stage 0 ran F(0)? No:
		ev(trace.Read, 2, 1, 1),  // wall-clock had F(0)@0 before this, but worker 1
		ev(trace.Write, 2, 1, 1), // cannot know; only the merge restores causality.
	}}
	merged := engine.MergeStageTraces(2, 0, []*trace.Trace{worker0, worker1})
	if len(merged.Events) != 8 {
		t.Fatalf("merged %d events, want 8", len(merged.Events))
	}
	firstWrite := map[int]int{}
	lastRead := map[int]int{}
	for i, e := range merged.Events {
		if e.Kind == trace.Write {
			if _, ok := firstWrite[e.Subnet]; !ok {
				firstWrite[e.Subnet] = i
			}
		} else {
			lastRead[e.Subnet] = i
		}
	}
	for subnet, w := range firstWrite {
		if lastRead[subnet] > w {
			t.Fatalf("subnet %d: READ at %d after first WRITE at %d\nmerged: %v",
				subnet, lastRead[subnet], w, merged.Events)
		}
	}
	// Per-worker local order must be preserved verbatim.
	for wi, local := range []*trace.Trace{worker0, worker1} {
		j := 0
		for _, e := range merged.Events {
			if j < len(local.Events) && e == localWithOrder(local.Events[j], e.Order) {
				j++
			}
		}
		if j != len(local.Events) {
			t.Fatalf("worker %d's local order not a subsequence of the merge", wi)
		}
	}
}

func localWithOrder(e trace.Event, order int) trace.Event {
	e.Order = order
	return e
}

func TestDistConfigValidation(t *testing.T) {
	cfg := ccCfg(2, false)
	tp := transport.NewChanTransport(2, 4)
	defer tp.Close()
	bad := []engine.DistConfig{
		{Transport: nil, Stages: []int{0}},
		{Transport: tp, Stages: nil},
		{Transport: tp, Stages: []int{0, 2}},
		{Transport: tp, Stages: []int{-1}},
		{Transport: tp, Stages: []int{1, 1}},
	}
	for i := range bad {
		c := cfg
		c.Dist = &bad[i]
		if _, err := engine.RunConcurrent(context.Background(), c); err == nil {
			t.Errorf("case %d: invalid DistConfig %+v accepted", i, bad[i])
		}
	}
}

// TestFilterTraceKeepsListedStagesInOrder checks FilterTrace against a
// direct filter of a simulated run's trace: every event of a listed stage,
// in order, orders untouched; a stage no event runs on, or a list naming
// nothing that ran, keeps nothing.
func TestFilterTraceKeepsListedStagesInOrder(t *testing.T) {
	cfg := ccCfg(4, false)
	tr := run(t, "naspipe", cfg).Trace
	for _, stages := range [][]int{{0}, {3, 1}, {0, 1, 2, 3}, {2, 9}, {-1, 7}, nil} {
		var want []trace.Event
		for _, e := range tr.Events {
			for _, k := range stages {
				if e.Stage == k {
					want = append(want, e)
				}
			}
		}
		got := engine.FilterTrace(tr, stages).Events
		if len(got) != len(want) || (want == nil) != (got == nil) {
			t.Fatalf("stages %v: kept %d events (nil %v), want %d (nil %v)", stages, len(got), got == nil, len(want), want == nil)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stages %v: event %d is %+v, want %+v", stages, i, got[i], want[i])
			}
		}
	}
}
