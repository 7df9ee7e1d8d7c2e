package engine_test

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"naspipe/internal/cluster"
	"naspipe/internal/engine"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
	"naspipe/internal/transport"
)

// TestMergeStageTracesMatchesMapMerge is a differential test of the
// dense-array merge against mergeByMaps, the map-based merge it
// replaced, kept below verbatim. The inputs are the per-worker traces
// of real multi-worker runs on NLP.c1, whose per-subnet partitions put
// one layer on different workers, under random depth, seed, jitter and
// sequence base, passed in a random order; and the same traces cut
// short, which makes both merges stall at the same event.
func TestMergeStageTracesMatchesMapMerge(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	straddling := 0
	for trial := 0; trial < 24; trial++ {
		d := 2 + rnd.Intn(3)
		cfg := engine.Config{
			Space: supernet.NLPc1, Spec: cluster.Default(d),
			Seed: uint64(rnd.Int63()), NumSubnets: 8 + rnd.Intn(17), RecordTrace: true,
			TimingJitter: 0.5, JitterSeed: uint64(rnd.Int63()),
		}
		parts := workerTraces(t, cfg)
		if straddles(parts) {
			straddling++
		}
		base := rnd.Intn(1000)
		for _, p := range parts {
			for i := range p.Events {
				p.Events[i].Subnet += base
			}
		}
		rnd.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		check := func(what string, parts []*trace.Trace) {
			t.Helper()
			got := engine.MergeStageTraces(d, base, parts)
			want := mergeByMaps(d, base, parts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%s, D=%d, base %d): merges differ: %d vs %d events",
					trial, what, d, base, len(got.Events), len(want.Events))
			}
		}
		check("whole", parts)
		cut := make([]*trace.Trace, len(parts))
		for i, p := range parts {
			cut[i] = &trace.Trace{Events: p.Events[:rnd.Intn(len(p.Events)+1)]}
		}
		check("cut short", cut)
	}
	t.Logf("%d of 24 trials put a layer on two workers", straddling)
	if straddling < 12 {
		t.Fatalf("only %d of 24 trials put a layer on two workers; the test no longer covers the per-layer gate", straddling)
	}
	check := engine.MergeStageTraces(2, 0, nil)
	if want := mergeByMaps(2, 0, nil); !reflect.DeepEqual(check, want) {
		t.Fatalf("empty merge %+v, want %+v", check, want)
	}
}

// workerTraces runs cfg as D single-stage workers over one
// ChanTransport and returns each worker's observed trace.
func workerTraces(t *testing.T, cfg engine.Config) []*trace.Trace {
	t.Helper()
	d := cfg.Spec.GPUs
	tp := transport.NewChanTransport(d, engine.DistQueueCap(d, cfg.NumSubnets))
	defer tp.Close()
	parts := make([]*trace.Trace, d)
	errs := make([]error, d)
	var wg sync.WaitGroup
	for k := 0; k < d; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			wcfg := cfg
			wcfg.Dist = &engine.DistConfig{Transport: tp, Stages: []int{k}}
			res, err := engine.RunConcurrent(context.Background(), wcfg)
			parts[k], errs[k] = res.ObservedTrace, err
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", k, err)
		}
	}
	return parts
}

// straddles reports whether some layer is accessed on two workers.
func straddles(parts []*trace.Trace) bool {
	worker := map[supernet.LayerID]int{}
	for k, p := range parts {
		for _, ev := range p.Events {
			if w, ok := worker[ev.Layer]; ok && w != k {
				return true
			}
			worker[ev.Layer] = k
		}
	}
	return false
}

// mergeByMaps is MergeStageTraces as it was before its maps became
// dense arrays: the reference the differential test holds it to.
func mergeByMaps(depth, base int, parts []*trace.Trace) *trace.Trace {
	rank := func(ev trace.Event) int {
		seq := ev.Subnet - base
		if ev.Kind == trace.Read {
			return seq*2*depth + ev.Stage
		}
		return seq*2*depth + depth + (depth - 1 - ev.Stage)
	}
	// Per-subnet causal chains over the (kind, stage) groups that
	// actually occur — a subnet with an empty partition on some stage
	// simply has no group there. The chain orders each subnet's READs
	// downstream then its WRITEs upstream; an access is eligible when
	// its group is the subnet's current chain position, which encodes
	// both pipeline causality and reads-before-first-write.
	type group struct {
		kind  trace.AccessKind
		stage int
	}
	// Per-layer CSP chains over the (subnet, kind) groups that occur on
	// each layer, in the sequential order Definition 1 fixes: subnets
	// ascending, READs before WRITEs within a subnet. For one subnet a
	// layer lives on one stage, so each group comes from one worker and
	// group-internal order is that worker's local order.
	type lgroup struct {
		seq  int
		kind trace.AccessKind
	}
	counts := make(map[int]map[group]int)
	lcounts := make(map[supernet.LayerID]map[lgroup]int)
	for _, tr := range parts {
		for _, ev := range tr.Events {
			q := ev.Subnet - base
			if counts[q] == nil {
				counts[q] = make(map[group]int)
			}
			counts[q][group{ev.Kind, ev.Stage}]++
			if lcounts[ev.Layer] == nil {
				lcounts[ev.Layer] = make(map[lgroup]int)
			}
			lcounts[ev.Layer][lgroup{q, ev.Kind}]++
		}
	}
	chains := make(map[int][]group, len(counts))
	for q, gs := range counts {
		var chain []group
		for k := 0; k < depth; k++ {
			if gs[group{trace.Read, k}] > 0 {
				chain = append(chain, group{trace.Read, k})
			}
		}
		for k := depth - 1; k >= 0; k-- {
			if gs[group{trace.Write, k}] > 0 {
				chain = append(chain, group{trace.Write, k})
			}
		}
		chains[q] = chain
	}
	lchains := make(map[supernet.LayerID][]lgroup, len(lcounts))
	for l, gs := range lcounts {
		chain := make([]lgroup, 0, len(gs))
		for g := range gs {
			chain = append(chain, g)
		}
		sort.Slice(chain, func(i, j int) bool { // Read < Write
			a, b := chain[i], chain[j]
			return a.seq < b.seq || a.seq == b.seq && a.kind < b.kind
		})
		lchains[l] = chain
	}
	type qgroup struct {
		q int
		g group
	}
	type layerGroup struct {
		l supernet.LayerID
		g lgroup
	}
	pos := make(map[int]int, len(chains))
	lpos := make(map[supernet.LayerID]int, len(lchains))
	emitted := make(map[qgroup]int)
	lemitted := make(map[layerGroup]int)
	idx := make([]int, len(parts))
	out := &trace.Trace{}
	for {
		best, bestRank := -1, 0
		for i, tr := range parts {
			if idx[i] >= len(tr.Events) {
				continue
			}
			ev := tr.Events[idx[i]]
			q := ev.Subnet - base
			if chains[q][pos[q]] != (group{ev.Kind, ev.Stage}) {
				continue
			}
			if lchains[ev.Layer][lpos[ev.Layer]] != (lgroup{q, ev.Kind}) {
				continue
			}
			if r := rank(ev); best < 0 || r < bestRank {
				best, bestRank = i, r
			}
		}
		if best < 0 {
			return out
		}
		ev := parts[best].Events[idx[best]]
		idx[best]++
		ev.Order = len(out.Events)
		out.Events = append(out.Events, ev)
		q := ev.Subnet - base
		k := qgroup{q, group{ev.Kind, ev.Stage}}
		if emitted[k]++; emitted[k] == counts[q][k.g] {
			pos[q]++
		}
		lk := layerGroup{ev.Layer, lgroup{q, ev.Kind}}
		if lemitted[lk]++; lemitted[lk] == lcounts[ev.Layer][lk.g] {
			lpos[ev.Layer]++
		}
	}
}
