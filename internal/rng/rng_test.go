package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collide on %d/100 draws", same)
	}
}

func TestLabeledIndependence(t *testing.T) {
	a := Labeled(7, "sampler")
	b := Labeled(7, "weights")
	c := Labeled(7, "sampler")
	if a.Uint64() != c.Uint64() {
		t.Fatal("same label must give same stream")
	}
	if a.Uint64() == b.Uint64() {
		t.Fatal("distinct labels should diverge immediately (with overwhelming probability)")
	}
}

func TestLabeledSeedSeparation(t *testing.T) {
	// Same label under different seeds must differ.
	a := Labeled(1, "x")
	b := Labeled(2, "x")
	if a.Uint64() == b.Uint64() {
		t.Fatal("same label under different seeds collided")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > expected*0.1 {
			t.Fatalf("bucket %d count %d too far from %f", i, c, expected)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(6)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestNormFloat32Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := float64(r.NormFloat32())
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("mean %f too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("variance %f too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 5, 64} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// Property: Intn is always in range for any seed and any n in [1, 1000].
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: streams are pure functions of seed — two streams from the same
// seed agree on arbitrarily interleaved draw kinds.
func TestQuickSeedPurity(t *testing.T) {
	f := func(seed uint64, ops []bool) bool {
		a, b := New(seed), New(seed)
		for _, op := range ops {
			if op {
				if a.Uint64() != b.Uint64() {
					return false
				}
			} else {
				if a.Float32() != b.Float32() {
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

// Property: labeled streams with distinct labels do not produce equal
// prefixes (overwhelmingly likely; treat any 4-draw full collision as a
// failure signal).
func TestQuickLabelSeparation(t *testing.T) {
	f := func(seed uint64, la, lb string) bool {
		if la == lb {
			return true
		}
		a, b := Labeled(seed, la), Labeled(seed, lb)
		for i := 0; i < 4; i++ {
			if a.Uint64() != b.Uint64() {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(96)
	}
}

// TestNormFloat32Digest pins 2²⁰ NormFloat32 draws from one label, bit
// for bit. Every layer's initial weights, the WNMT vocabulary and each
// item's input noise come from NormFloat32, which calls math.Log and
// math.Cos: libm code the repo does not own (Log is assembly on amd64
// and s390x, Cos on s390x). A toolchain or GOARCH whose results differ
// moves every weight, and this test names the cause where the pinned
// checksums downstream could only report that something moved.
func TestNormFloat32Digest(t *testing.T) {
	const want uint64 = 0xebce57978854b971
	r := Labeled(1, "norm/digest")
	h := fnv.New64a()
	var buf [4]byte
	for range 1 << 20 {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(r.NormFloat32()))
		h.Write(buf[:])
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("2^20 NormFloat32 draws digest to %#016x, pinned %#016x: "+
			"math.Log or math.Cos returns other bits on this toolchain or GOARCH", got, want)
	}
}

// Float32 returns a uniform float32 in [0, 1). Only the top 24 bits of the
// generator output are used, so every representable value is exact and the
// mapping is platform-independent.
func (r *Stream) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// labeledRef is Labeled as hash/fnv computes it: FNV-64a over the seed's
// eight little-endian bytes, then the label's.
func labeledRef(seed uint64, label string) *Stream {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	h.Write(buf[:])
	h.Write([]byte(label))
	return New(h.Sum64())
}

// TestLabeledMatchesFNV: the inlined hash seeds every stream as
// hash/fnv does, on fixed labels and on random seeds and labels.
func TestLabeledMatchesFNV(t *testing.T) {
	for _, label := range []string{"", "spos/NLP.c1", "WNMT/train/0", "imagenet/class/999", "\x00\xff"} {
		for _, seed := range []uint64{0, 1, 42, 1 << 63, ^uint64(0)} {
			if got, want := *Labeled(seed, label), *labeledRef(seed, label); got != want {
				t.Fatalf("Labeled(%d, %q) = %v, hash/fnv gives %v", seed, label, got, want)
			}
		}
	}
	f := func(seed uint64, label string) bool { return *Labeled(seed, label) == *labeledRef(seed, label) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
