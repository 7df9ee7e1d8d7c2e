// Package rng provides deterministic, splittable pseudo-random number
// generation for NASPipe.
//
// Every random decision in the system — subnet sampling, weight
// initialization, synthetic data generation, evolutionary mutation — draws
// from a Stream derived from a single global seed plus a purpose label.
// Streams for different purposes are statistically independent, and the
// derivation never involves the GPU count or the scheduling policy, so the
// same (seed, workload) pair produces the same sample sequence no matter how
// the training run is parallelized. This is the foundation of the paper's
// Definition 1 (reproducibility): repeated runs with the same dataset and
// seeds must be bitwise equivalent even on a different cluster.
//
// The generator is xoshiro256** seeded through splitmix64, following the
// reference construction by Blackman and Vigna. Both are public-domain
// algorithms with well-studied statistical behaviour and are trivially
// portable: no platform-dependent state, no global locks.
package rng

import (
	"hash/fnv"
	"math"
)

// splitmix64 advances the given state and returns the next 64-bit output.
// It is used only to expand seeds into full generator state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a deterministic pseudo-random number generator
// (xoshiro256**). The zero value is not valid; construct Streams with New,
// Labeled, or Split.
type Stream struct {
	s0, s1, s2, s3 uint64
}

// New returns a Stream seeded from the given 64-bit seed. Equal seeds yield
// identical streams.
func New(seed uint64) *Stream {
	st := seed
	r := &Stream{}
	r.s0 = splitmix64(&st)
	r.s1 = splitmix64(&st)
	r.s2 = splitmix64(&st)
	r.s3 = splitmix64(&st)
	// xoshiro256** requires a nonzero state; splitmix64 of any seed yields
	// all-zero state with probability ~2^-256, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
	return r
}

// Labeled returns a Stream for the given purpose label under the given
// seed. Distinct labels give independent streams; the mapping is stable
// across runs and platforms.
func Labeled(seed uint64, label string) *Stream {
	h := fnv.New64a()
	// The hash of the label perturbs the seed; writing the seed bytes first
	// keeps (seed, label) pairs distinct even when labels collide across
	// seeds.
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return New(h.Sum64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits from the stream.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent child stream identified by label. The parent
// stream is not advanced, so the set of children is a pure function of the
// parent's current state and the labels used.
func (r *Stream) Split(label string) *Stream {
	h := fnv.New64a()
	var buf [32]byte
	words := [4]uint64{r.s0, r.s1, r.s2, r.s3}
	for w, v := range words {
		for i := 0; i < 8; i++ {
			buf[w*8+i] = byte(v >> (8 * i))
		}
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return New(h.Sum64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Float32 returns a uniform float32 in [0, 1). Only the top 24 bits of the
// generator output are used, so every representable value is exact and the
// mapping is platform-independent.
func (r *Stream) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat32 returns a standard normal variate computed with the
// Box-Muller transform. Box-Muller is chosen over ziggurat because it
// keeps the implementation small and auditable. Its bits rest on
// math.Log and math.Cos, which the repo does not own: Log is assembly on
// amd64 and s390x, Cos on s390x. TestNormFloat32Digest pins 2²⁰ draws, so
// a toolchain or GOARCH that moves them fails by name.
func (r *Stream) NormFloat32() float32 {
	// Draw until u1 is nonzero so the log is finite.
	var u1 float64
	for {
		u1 = r.Float64()
		if u1 > 0 {
			break
		}
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return float32(z)
}

// Perm returns a deterministic pseudo-random permutation of [0, n) using
// Fisher-Yates.
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates order.
func (r *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
