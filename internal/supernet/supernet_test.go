package supernet

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"naspipe/internal/layers"
	"naspipe/internal/tensor"
)

func TestSpacesMatchTable1(t *testing.T) {
	want := []struct {
		name            string
		blocks, choices int
		dataset         string
	}{
		{"NLP.c0", 48, 96, "WNMT"},
		{"NLP.c1", 48, 72, "WNMT"},
		{"NLP.c2", 48, 48, "WNMT"},
		{"NLP.c3", 48, 24, "WNMT"},
		{"CV.c1", 32, 48, "ImageNet"},
		{"CV.c2", 32, 24, "ImageNet"},
		{"CV.c3", 32, 12, "ImageNet"},
	}
	spaces := Spaces()
	if len(spaces) != len(want) {
		t.Fatalf("got %d spaces want %d", len(spaces), len(want))
	}
	for i, w := range want {
		s := spaces[i]
		if s.Name != w.name || s.Blocks != w.blocks || s.Choices != w.choices || s.Dataset != w.dataset {
			t.Errorf("space %d: got %+v want %+v", i, s, w)
		}
	}
}

func TestSpaceByName(t *testing.T) {
	s, err := SpaceByName("NLP.c2")
	if err != nil || s.Choices != 48 {
		t.Fatalf("SpaceByName failed: %v %+v", err, s)
	}
	if _, err := SpaceByName("nope"); err == nil {
		t.Fatal("expected error for unknown space")
	}
}

func TestIDRoundTrip(t *testing.T) {
	s := NLPc3
	for b := 0; b < s.Blocks; b++ {
		for c := 0; c < s.Choices; c++ {
			id := s.ID(b, c)
			gb, gc := s.BlockChoice(id)
			if gb != b || gc != c {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", b, c, id, gb, gc)
			}
		}
	}
}

func TestIDPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NLPc3.ID(48, 0)
}

func TestBuildAssignsAllKinds(t *testing.T) {
	sn := Build(CVc3)
	seen := map[layers.Kind]bool{}
	for _, m := range sn.Meta {
		seen[m.Kind] = true
		if m.Kind.Domain() != layers.CV {
			t.Fatalf("CV space got NLP kind %v", m.Kind)
		}
	}
	for _, k := range layers.Kinds(layers.CV) {
		if !seen[k] {
			t.Errorf("kind %v never assigned", k)
		}
	}
}

func TestJitterBounded(t *testing.T) {
	sn := Build(NLPc3)
	for _, m := range sn.Meta {
		base := layers.Profile(m.Kind)
		ratio := m.FwdMs / base.FwdMs
		if ratio < 0.85-1e-9 || ratio > 1.15+1e-9 {
			t.Fatalf("layer %d jitter ratio %f out of [0.85,1.15]", m.ID, ratio)
		}
		// Same jitter applies to every cost field.
		if r2 := m.BwdMs / base.BwdMs; absDiff(ratio, r2) > 1e-9 {
			t.Fatalf("layer %d: inconsistent jitter fwd %f bwd %f", m.ID, ratio, r2)
		}
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestBuildDeterministic(t *testing.T) {
	a, b := Build(NLPc2), Build(NLPc2)
	for i := range a.Meta {
		if a.Meta[i] != b.Meta[i] {
			t.Fatalf("meta %d differs across builds", i)
		}
	}
}

func TestSupernetScaleMatchesPaper(t *testing.T) {
	// The paper reports NLP.c1's whole-supernet parameter count as 14.8B.
	// With Table 5 swap-derived parameter sizes our synthetic NLP.c1 lands
	// in the same regime; check it's within 2x of 14.8B params (i.e.
	// 59.2 GB in float32). This guards the cost-model calibration.
	sn := Build(NLPc1)
	params := sn.TotalParamBytes() / 4
	if params < 7_400_000_000 || params > 29_600_000_000 {
		t.Fatalf("NLP.c1 supernet param count %d not within 2x of paper's 14.8B", params)
	}
}

func TestSamplerDeterministicAndOrdered(t *testing.T) {
	a := Sample(NLPc3, 42, 20)
	b := Sample(NLPc3, 42, 20)
	for i := range a {
		if a[i].Seq != i {
			t.Fatalf("subnet %d has Seq %d", i, a[i].Seq)
		}
		for j := range a[i].Choices {
			if a[i].Choices[j] != b[i].Choices[j] {
				t.Fatalf("sampler not deterministic at subnet %d block %d", i, j)
			}
		}
	}
	c := Sample(NLPc3, 43, 20)
	same := true
	for i := range a {
		for j := range a[i].Choices {
			if a[i].Choices[j] != c[i].Choices[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSamplerSpaceSeparation(t *testing.T) {
	// Same seed, different spaces with equal geometry must still give
	// independent streams (label includes the space name).
	sa := Space{Name: "A", Domain: layers.NLP, Blocks: 10, Choices: 10}
	sb := Space{Name: "B", Domain: layers.NLP, Blocks: 10, Choices: 10}
	a, b := Sample(sa, 7, 5), Sample(sb, 7, 5)
	same := true
	for i := range a {
		for j := range a[i].Choices {
			if a[i].Choices[j] != b[i].Choices[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("space name does not separate sampler streams")
	}
}

func TestSharesAndSharedBlocks(t *testing.T) {
	a := Subnet{Seq: 0, Choices: []int{1, 2, 3}}
	b := Subnet{Seq: 1, Choices: []int{1, 5, 6}}
	c := Subnet{Seq: 2, Choices: []int{4, 5, 7}}
	if !Shares(a, b) {
		t.Fatal("a and b share block 0")
	}
	if Shares(a, c) {
		t.Fatal("a and c share nothing")
	}
	got := SharedBlocks(b, c)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("SharedBlocks(b,c) = %v want [1]", got)
	}
}

func TestDependencyRateFallsWithSpaceSize(t *testing.T) {
	// The paper's core insight: larger spaces manifest fewer dependencies
	// between chronologically close subnets.
	const n = 400
	rSmall := DependencyRate(NLPc3, 1, n) // 24 choices/block
	rLarge := DependencyRate(NLPc0, 1, n) // 96 choices/block
	if rLarge >= rSmall {
		t.Fatalf("dependency rate did not fall with space size: small=%f large=%f", rSmall, rLarge)
	}
	// NLP.c3: P(share) = 1-(1-1/24)^48 ≈ 0.87. Allow wide tolerance.
	if rSmall < 0.6 {
		t.Fatalf("NLP.c3 dependency rate %f implausibly low", rSmall)
	}
	// NLP.c0: 1-(1-1/96)^48 ≈ 0.40.
	if rLarge > 0.65 {
		t.Fatalf("NLP.c0 dependency rate %f implausibly high", rLarge)
	}
}

func TestSubnetAccounting(t *testing.T) {
	sn := Build(CVc3)
	sub := Sample(CVc3, 9, 1)[0]
	if len(sn.Layers(sub)) != CVc3.Blocks {
		t.Fatal("subnet layer count mismatch")
	}
	if sn.SubnetParamBytes(sub) <= 0 || sn.SubnetCostMs(sub) <= 0 {
		t.Fatal("subnet accounting non-positive")
	}
	// Subnet params must be far below the whole supernet's.
	if sn.SubnetParamBytes(sub)*int64(CVc3.Choices/2) < sn.TotalParamBytes()/4 {
		t.Log("sanity only") // loose; main check is positivity
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Subnet{Seq: 3, Choices: []int{1, 2}}
	c := a.Clone()
	c.Choices[0] = 9
	if a.Choices[0] != 1 {
		t.Fatal("Subnet Clone shares storage")
	}
}

func TestBuildNumericDeterministic(t *testing.T) {
	sp := NLPc3.Scaled(4, 3)
	a := BuildNumeric(sp, 4, 11)
	b := BuildNumeric(sp, 4, 11)
	if a.Checksum() != b.Checksum() {
		t.Fatal("numeric build not deterministic")
	}
	c := BuildNumeric(sp, 4, 12)
	if a.Checksum() == c.Checksum() {
		t.Fatal("different seeds gave identical numeric supernets")
	}
}

func TestNumericCloneIsolation(t *testing.T) {
	sp := CVc3.Scaled(3, 2)
	a := BuildNumeric(sp, 4, 1)
	c := a.Clone()
	g := a.At(0, 0).NewGrads()
	g.W.Set(0, 0, 1)
	a.At(0, 0).ApplySGD(g, 1)
	if a.Checksum() == c.Checksum() {
		t.Fatal("numeric clone shares storage")
	}
}

// numericBitwiseEqual compares two nets layer by layer, parameter by
// parameter.
func numericBitwiseEqual(a, b *Numeric) bool {
	if a.Space != b.Space || a.Dim != b.Dim || len(a.Layer) != len(b.Layer) {
		return false
	}
	for i := range a.Layer {
		la, lb := a.Layer[i], b.Layer[i]
		if la.Kind != lb.Kind || !la.W.Equal(lb.W) || !la.B.EqualBits(lb.B) {
			return false
		}
	}
	return true
}

// TestBuildNumericMemoMatchesUncachedBuild: a net copied from the init
// template equals a fresh draw, on a hit, and again once more keys than
// the memo holds have evicted and rebuilt it.
func TestBuildNumericMemoMatchesUncachedBuild(t *testing.T) {
	sp := NLPc3.Scaled(4, 3)
	want := buildNumeric(sp, 6, 21)
	for round := 0; round < 2; round++ {
		for hit := 0; hit < 2; hit++ {
			if got := BuildNumeric(sp, 6, 21); !numericBitwiseEqual(got, want) {
				t.Fatalf("round %d, build %d: memoized net differs from an uncached build", round, hit)
			}
		}
		for seed := uint64(100); seed < 100+2*initTemplateLimit; seed++ {
			other := CVc3.Scaled(3, 2)
			if got, fresh := BuildNumeric(other, 4, seed), buildNumeric(other, 4, seed); !numericBitwiseEqual(got, fresh) {
				t.Fatalf("seed %d: memoized net differs from an uncached build", seed)
			}
		}
		if n := initTemplates.Len(); n > initTemplateLimit {
			t.Fatalf("init memo holds %d templates, limit %d", n, initTemplateLimit)
		}
	}
}

// TestNumericCloneAllocationsIndependentOfLayerCount pins the slab copy:
// five allocations whatever the layer count.
func TestNumericCloneAllocationsIndependentOfLayerCount(t *testing.T) {
	for _, sp := range []Space{CVc3.Scaled(2, 2), NLPc3.Scaled(8, 12)} {
		net := BuildNumeric(sp, 8, 1)
		if allocs := testing.AllocsPerRun(10, func() { net.Clone() }); allocs != 5 {
			t.Fatalf("%s: Clone allocated %.0f times, want 5", sp.Name, allocs)
		}
	}
}

// TestBuildNumericReturnsIndependentCopies: training a returned net must
// not reach the template a later build copies.
func TestBuildNumericReturnsIndependentCopies(t *testing.T) {
	sp := CVc3.Scaled(3, 2)
	a := BuildNumeric(sp, 4, 5)
	want := a.Checksum()
	for _, l := range a.Layer {
		g := l.NewGrads()
		g.W.Set(0, 0, 1)
		g.B[0] = 1
		l.ApplySGD(g, 1)
	}
	if a.Checksum() == want {
		t.Fatal("the SGD step did not move the returned net")
	}
	if got := BuildNumeric(sp, 4, 5).Checksum(); got != want {
		t.Fatalf("a later build has checksum %#x, want the untouched %#x", got, want)
	}
}

// TestBuildNumericConcurrentSameKey builds one configuration from many
// goroutines and trains each copy; under -race it checks the memo and the
// copy-out share nothing writable.
func TestBuildNumericConcurrentSameKey(t *testing.T) {
	sp := NLPc3.Scaled(3, 2)
	want := buildNumeric(sp, 5, 33).Checksum()
	const n = 8
	sums := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net := BuildNumeric(sp, 5, 33)
			sums[i] = net.Checksum()
			g := net.Layer[0].NewGrads()
			g.W.Set(0, 0, 1)
			net.Layer[0].ApplySGD(g, 1)
		}()
	}
	wg.Wait()
	for i, s := range sums {
		if s != want {
			t.Fatalf("goroutine %d built checksum %#x, want %#x", i, s, want)
		}
	}
}

// Property: every sampled subnet is valid — one in-range choice per block,
// sequential Seq numbering.
func TestQuickSampledSubnetsValid(t *testing.T) {
	f := func(seed uint64, blocksRaw, choicesRaw uint8) bool {
		blocks := int(blocksRaw%20) + 1
		choices := int(choicesRaw%30) + 1
		sp := Space{Name: "q", Domain: layers.NLP, Blocks: blocks, Choices: choices}
		subs := Sample(sp, seed, 10)
		for i, sn := range subs {
			if sn.Seq != i || len(sn.Choices) != blocks {
				return false
			}
			for _, c := range sn.Choices {
				if c < 0 || c >= choices {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Shares is symmetric and reflexive (for nonempty subnets).
func TestQuickSharesSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		sp := Space{Name: "q2", Domain: layers.CV, Blocks: 8, Choices: 4}
		subs := Sample(sp, seed, 2)
		a, b := subs[0], subs[1]
		if Shares(a, b) != Shares(b, a) {
			return false
		}
		return Shares(a, a) && Shares(b, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SharedBlocks is exactly the set where choices agree.
func TestQuickSharedBlocksExact(t *testing.T) {
	f := func(seed uint64) bool {
		sp := Space{Name: "q3", Domain: layers.NLP, Blocks: 12, Choices: 3}
		subs := Sample(sp, seed, 2)
		a, b := subs[0], subs[1]
		shared := map[int]bool{}
		for _, blk := range SharedBlocks(a, b) {
			shared[blk] = true
		}
		for i := range a.Choices {
			want := a.Choices[i] == b.Choices[i]
			if shared[i] != want {
				return false
			}
		}
		return len(shared) > 0 == Shares(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSample(b *testing.B) {
	s := NewSampler(NLPc1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Next()
	}
}

func TestCheckpointRoundTripBitwise(t *testing.T) {
	sp := NLPc3.Scaled(4, 3)
	orig := BuildNumeric(sp, 6, 77)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadNumeric(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Checksum() != orig.Checksum() {
		t.Fatal("checkpoint round trip not bitwise identical")
	}
	if loaded.Space != orig.Space || loaded.Dim != orig.Dim {
		t.Fatalf("checkpoint lost identity: %+v", loaded.Space)
	}
	for i := range orig.Layer {
		if loaded.Layer[i].Kind != orig.Layer[i].Kind {
			t.Fatalf("layer %d kind lost", i)
		}
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	if _, err := LoadNumeric(bytes.NewReader([]byte("not a checkpoint at all"))); err == nil {
		t.Fatal("expected magic error")
	}
	// Truncation: valid header, missing weights.
	sp := CVc3.Scaled(3, 2)
	orig := BuildNumeric(sp, 4, 1)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadNumeric(bytes.NewReader(truncated)); err == nil {
		t.Fatal("expected truncation error")
	}
}

// checksumRef is Numeric.Checksum's per-layer fold: each layer's
// Checksum, then one CombineChecksums over them.
func checksumRef(n *Numeric) uint64 {
	sums := make([]uint64, len(n.Layer))
	for i, l := range n.Layer {
		sums[i] = l.Checksum()
	}
	return tensor.CombineChecksums(sums)
}

// TestChecksumEqualsPerLayerFold pins the four-chain Numeric.Checksum to
// the per-layer fold on layer counts that leave every remainder mod 4,
// with a bias changed in the first and last layer so both the chained
// and the leftover layers must hash their vectors too.
func TestChecksumEqualsPerLayerFold(t *testing.T) {
	for _, n := range []int{1, 3, 5, 9, 96} {
		net := BuildNumeric(NLPc3.Scaled(n, 1), 5, 21)
		if got, want := net.Checksum(), checksumRef(net); got != want {
			t.Fatalf("%d layers: Checksum = %#x, per-layer fold %#x", n, got, want)
		}
		before := net.Checksum()
		net.Layer[0].B[2] = 0.5
		net.Layer[n-1].B[4] = -0.25
		if got, want := net.Checksum(), checksumRef(net); got != want || got == before {
			t.Fatalf("%d layers, biases changed: Checksum = %#x, per-layer fold %#x, before %#x", n, got, want, before)
		}
	}
}

// sinkChecksum keeps the checksum benchmarks' calls live.
var sinkChecksum uint64

// numericChecksumNet is pipe-numeric's supernet: 96 layers at dim 64.
func numericChecksumNet() *Numeric { return BuildNumeric(NLPc3.Scaled(8, 12), 64, 1) }

func BenchmarkNumericChecksum(b *testing.B) {
	net := numericChecksumNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkChecksum = net.Checksum()
	}
}

// BenchmarkNumericChecksumRef times the one-chain-per-layer fold that
// Numeric.Checksum replaced, on the same supernet.
func BenchmarkNumericChecksumRef(b *testing.B) {
	net := numericChecksumNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkChecksum = checksumRef(net)
	}
}
