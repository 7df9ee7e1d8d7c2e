package tensor

import (
	"fmt"
	"testing"

	"naspipe/internal/rng"
)

// Kernel benchmarks at the sizes that matter: the numeric plane's default
// Dim is tiny (12), but scenario configs scale it up, and the checksum
// paths run over whole-supernet parameter slabs. Run with
// `go test -bench . -benchmem ./internal/tensor/` and compare against
// BENCH_speed.json (regenerate via cmd/naspipe-benchguard -update).

func benchDims() []int { return []int{16, 64, 128, 512} }

func BenchmarkMatVec(b *testing.B) {
	for _, n := range benchDims() {
		b.Run(fmt.Sprintf("dim=%d", n), func(b *testing.B) {
			r := rng.New(1)
			m := randMat(r, n, n)
			x := randVec(r, n)
			dst := make(Vector, n)
			b.ReportAllocs()
			b.SetBytes(int64(n) * int64(n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatVec(dst, m, x)
			}
		})
	}
}

func BenchmarkMatTVec(b *testing.B) {
	for _, n := range benchDims() {
		b.Run(fmt.Sprintf("dim=%d", n), func(b *testing.B) {
			r := rng.New(1)
			m := randMat(r, n, n)
			x := randVec(r, n)
			dst := make(Vector, n)
			b.ReportAllocs()
			b.SetBytes(int64(n) * int64(n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatTVec(dst, m, x)
			}
		})
	}
}

func BenchmarkOuterAccum(b *testing.B) {
	for _, n := range benchDims() {
		b.Run(fmt.Sprintf("dim=%d", n), func(b *testing.B) {
			r := rng.New(1)
			m := randMat(r, n, n)
			a := randVec(r, n)
			v := randVec(r, n)
			b.ReportAllocs()
			b.SetBytes(int64(n) * int64(n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				OuterAccum(m, a, v, 0.5)
			}
		})
	}
}

func BenchmarkVectorChecksum(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			r := rng.New(1)
			v := randVec(r, n)
			b.ReportAllocs()
			b.SetBytes(int64(n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkU64 = v.Checksum()
			}
		})
	}
}

func BenchmarkMatrixChecksum(b *testing.B) {
	r := rng.New(1)
	m := randMat(r, 256, 256)
	b.ReportAllocs()
	b.SetBytes(256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64 = m.Checksum()
	}
}

// The *Ref benchmarks run the pre-optimization hash/fnv implementations
// kept in ref_test.go, so the before/after ratio in BENCH_speed.json can
// be reproduced from the final tree on any host in a single run.

func BenchmarkVectorChecksumRef(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			r := rng.New(1)
			v := randVec(r, n)
			b.ReportAllocs()
			b.SetBytes(int64(n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkU64 = vectorChecksumRef(v)
			}
		})
	}
}

func BenchmarkMatrixChecksumRef(b *testing.B) {
	r := rng.New(1)
	m := randMat(r, 256, 256)
	b.ReportAllocs()
	b.SetBytes(256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64 = matrixChecksumRef(m)
	}
}

func BenchmarkCombineChecksums(b *testing.B) {
	sums := make([]uint64, 256)
	for i := range sums {
		sums[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64 = CombineChecksums(sums)
	}
}

// sinkU64 defeats dead-code elimination of the checksum benches.
var sinkU64 uint64
