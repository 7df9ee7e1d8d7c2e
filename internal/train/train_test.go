package train

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"naspipe/internal/cluster"
	"naspipe/internal/data"
	"naspipe/internal/engine"
	"naspipe/internal/layers"
	"naspipe/internal/sched"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
)

func testCfg(space supernet.Space) Config {
	return Config{Space: space, Dim: 8, Seed: 7, BatchSize: 3, LR: 0.05, Dataset: data.WNMT}
}

func traceFor(t testing.TB, policy string, space supernet.Space, d, n int, seed uint64) (engine.Result, []supernet.Subnet) {
	t.Helper()
	p, err := sched.New(policy)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Space: space, Spec: cluster.Default(d), Seed: seed, NumSubnets: n, RecordTrace: true}
	res, _ := engine.Run(cfg, p)
	if res.Failed || res.Deadlock {
		t.Fatalf("%s on %s D=%d: failed=%v deadlock=%v", policy, space.Name, d, res.Failed, res.Deadlock)
	}
	return res, supernet.Sample(space, seed, n)
}

func TestSequentialDeterministic(t *testing.T) {
	sp := supernet.NLPc3.Scaled(6, 3)
	subs := supernet.Sample(sp, 1, 20)
	a := Sequential(testCfg(sp), subs)
	b := Sequential(testCfg(sp), subs)
	if a.Checksum != b.Checksum {
		t.Fatal("sequential training not deterministic")
	}
	if !LossesBitwiseEqual(a.Losses, b.Losses) {
		t.Fatal("loss series not bitwise equal")
	}
}

func TestSequentialLearns(t *testing.T) {
	sp := supernet.NLPc3.Scaled(4, 2)
	subs := supernet.Sample(sp, 2, 150)
	res := Sequential(testCfg(sp), subs)
	var early, late float64
	for _, l := range res.Losses[:30] {
		early += float64(l)
	}
	for _, l := range res.Losses[len(res.Losses)-30:] {
		late += float64(l)
	}
	if late >= early {
		t.Fatalf("training did not reduce loss: early=%f late=%f", early/30, late/30)
	}
}

// The centerpiece: a CSP trace replays to BITWISE the weights of
// sequential training, for several GPU counts (Definition 1).
func TestCSPReplayBitwiseEqualsSequential(t *testing.T) {
	sp := supernet.NLPc3.Scaled(8, 3)
	cfg := testCfg(sp)
	const n = 24
	seq := Sequential(cfg, supernet.Sample(sp, 1, n))
	for _, d := range []int{1, 2, 4} {
		res, subs := traceFor(t, "naspipe", sp, d, n, 1)
		rep, err := Replay(cfg, subs, res.Trace)
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		if rep.Checksum != seq.Checksum {
			t.Errorf("D=%d: CSP replay checksum %x != sequential %x", d, rep.Checksum, seq.Checksum)
		}
		if !LossesBitwiseEqual(rep.Losses, seq.Losses) {
			t.Errorf("D=%d: CSP replay losses differ from sequential", d)
		}
	}
}

func TestSequentialPolicyReplayAlsoBitwise(t *testing.T) {
	sp := supernet.CVc3.Scaled(6, 2)
	cfg := testCfg(sp)
	cfg.Dataset = data.ImageNet
	res, subs := traceFor(t, "sequential", sp, 2, 16, 3)
	seq := Sequential(cfg, subs)
	rep, err := Replay(cfg, subs, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checksum != seq.Checksum {
		t.Fatal("sequential-policy replay diverged from reference")
	}
}

func TestBSPReplayDivergesAcrossGPUCounts(t *testing.T) {
	// GPipe's BSP violates causal order; its result depends on the GPU
	// count (Table 3's BSP rows).
	sp := supernet.NLPc3.Scaled(8, 2) // dense sharing
	cfg := testCfg(sp)
	sums := map[int]uint64{}
	for _, d := range []int{2, 4} {
		res, subs := traceFor(t, "gpipe", sp, d, 24, 1)
		rep, err := Replay(cfg, subs, res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		sums[d] = rep.Checksum
	}
	if sums[2] == sums[4] {
		t.Error("BSP replay unexpectedly identical across GPU counts")
	}
	// And BSP diverges from the sequential reference.
	seq := Sequential(cfg, supernet.Sample(sp, 1, 24))
	if sums[2] == seq.Checksum {
		t.Error("BSP replay unexpectedly equals sequential result")
	}
}

func TestASPReplayDiverges(t *testing.T) {
	sp := supernet.CVc3.Scaled(8, 2)
	cfg := testCfg(sp)
	cfg.Dataset = data.ImageNet
	res, subs := traceFor(t, "pipedream", sp, 4, 24, 1)
	rep, err := Replay(cfg, subs, res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	seq := Sequential(cfg, subs)
	if rep.Checksum == seq.Checksum {
		t.Error("ASP replay unexpectedly equals sequential result")
	}
}

func TestReplayRejectsMalformedTraces(t *testing.T) {
	sp := supernet.NLPc3.Scaled(4, 2)
	cfg := testCfg(sp)
	res, subs := traceFor(t, "naspipe", sp, 2, 6, 1)
	// Truncate the trace: missing writes must be reported.
	tr := *res.Trace
	tr.Events = tr.Events[:len(tr.Events)-1]
	if _, err := Replay(cfg, subs, &tr); err == nil {
		t.Fatal("expected error for truncated trace")
	}

	// A repeated WRITE, at the end of the trace or mid-stream, and a
	// WRITE of a block the subnet never READ each fail with an error
	// naming the subnet and block, instead of panicking or applying SGD
	// twice.
	events := res.Trace.Events
	first, last := -1, -1
	for i, ev := range events {
		if ev.Kind == trace.Write {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	named := func(ev trace.Event) string {
		block, _ := sp.BlockChoice(ev.Layer)
		return fmt.Sprintf("block %d by subnet %d", block, ev.Subnet)
	}
	splice := func(parts ...[]trace.Event) *trace.Trace {
		var out []trace.Event
		for _, p := range parts {
			out = append(out, p...)
		}
		return &trace.Trace{Events: out}
	}
	w := events[first]
	var unread []trace.Event
	for _, ev := range events {
		if !(ev.Kind == trace.Read && ev.Subnet == w.Subnet && ev.Layer == w.Layer) {
			unread = append(unread, ev)
		}
	}
	block, _ := sp.BlockChoice(w.Layer)
	cases := []struct {
		name string
		tr   *trace.Trace
		want string
	}{
		{"trailing duplicate WRITE", splice(events, events[last:last+1]), "duplicate WRITE of " + named(events[last])},
		{"mid-stream duplicate WRITE", splice(events[:first+1], events[first:]), "duplicate WRITE of " + named(w)},
		{"WRITE of a block never READ", &trace.Trace{Events: unread},
			fmt.Sprintf("subnet %d writes block %d it never read", w.Subnet, block)},
	}
	for _, tc := range cases {
		_, err := Replay(cfg, subs, tc.tr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestEvaluateAndScore(t *testing.T) {
	sp := supernet.NLPc3.Scaled(5, 2)
	cfg := testCfg(sp)
	subs := supernet.Sample(sp, 1, 60)
	res := Sequential(cfg, subs)
	loss := Evaluate(cfg, res.Net, subs[0], 3)
	if loss <= 0 {
		t.Fatalf("evaluate loss %f", loss)
	}
	// Score monotonicity.
	if Score(layers.NLP, 1.0) <= Score(layers.NLP, 2.0) {
		t.Fatal("NLP score not decreasing in loss")
	}
	if Score(layers.CV, 1.0) <= Score(layers.CV, 2.0) {
		t.Fatal("CV score not decreasing in loss")
	}
	best, score := BestSubnetScore(cfg, res.Net, subs[:8], 2)
	if len(best.Choices) != sp.Blocks || score <= 0 {
		t.Fatalf("BestSubnetScore degenerate: %v %f", best, score)
	}
}

func TestFinalLoss(t *testing.T) {
	r := Result{Losses: []float32{4, 4, 4, 4, 2, 2, 2, 2}}
	if got := r.FinalLoss(); got != 2 {
		t.Fatalf("FinalLoss = %f want 2 (last quarter)", got)
	}
	if (Result{}).FinalLoss() != 0 {
		t.Fatal("empty FinalLoss should be 0")
	}
}

// Property: CSP replay equals sequential for random seeds and GPU counts.
func TestQuickCSPReproducibility(t *testing.T) {
	f := func(seed uint64, dRaw uint8) bool {
		d := int(dRaw)%4 + 1
		sp := supernet.NLPc3.Scaled(6, 2)
		cfg := Config{Space: sp, Dim: 6, Seed: seed, BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
		p, _ := sched.New("naspipe")
		res, _ := engine.Run(engine.Config{
			Space: sp, Spec: cluster.Default(d), Seed: seed, NumSubnets: 10, RecordTrace: true,
		}, p)
		if res.Failed || res.Deadlock {
			return false
		}
		subs := supernet.Sample(sp, seed, 10)
		rep, err := Replay(cfg, subs, res.Trace)
		if err != nil {
			return false
		}
		seq := Sequential(cfg, subs)
		return rep.Checksum == seq.Checksum && LossesBitwiseEqual(rep.Losses, seq.Losses)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSequentialStep(b *testing.B) {
	sp := supernet.NLPc3.Scaled(8, 3)
	subs := supernet.Sample(sp, 1, 1)
	cfg := testCfg(sp)
	for i := 0; i < b.N; i++ {
		Sequential(cfg, subs)
	}
}
