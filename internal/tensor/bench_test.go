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
// BENCH_speed.json; CI's naspipe-benchguard holds them to
// BENCH_baseline.json.

func benchDims() []int { return []int{16, 64, 128, 512} }

// benchKernel times one dense kernel at every benchDims size, on an
// n × n matrix and n-vectors drawn from one stream.
func benchKernel(b *testing.B, kernel func(m *Matrix, x, y Vector)) {
	for _, n := range benchDims() {
		b.Run(fmt.Sprintf("dim=%d", n), func(b *testing.B) {
			r := rng.New(1)
			m := randMat(r, n, n)
			x, y := randVec(r, n), randVec(r, n)
			b.ReportAllocs()
			b.SetBytes(int64(n) * int64(n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(m, x, y)
			}
		})
	}
}

func BenchmarkMatVec(b *testing.B) {
	benchKernel(b, func(m *Matrix, x, y Vector) { MatVec(y, m, x) })
}

func BenchmarkOuterAccum(b *testing.B) {
	benchKernel(b, func(m *Matrix, x, y Vector) { OuterAccum(m, x, y, 0.5) })
}

// The kernel *Ref benchmarks time ref_test.go's one-chain loops on the
// same shapes, so naspipe-benchguard's same-run ratio fails if a kernel
// decays to scalar speed.

func BenchmarkMatVecRef(b *testing.B) {
	benchKernel(b, func(m *Matrix, x, y Vector) { matVecRef(y, m, x) })
}

func BenchmarkOuterAccumRef(b *testing.B) {
	benchKernel(b, func(m *Matrix, x, y Vector) { outerAccumRef(m, x, y, 0.5) })
}

// benchBatch times one batch kernel at every benchDims size, on an n × n
// matrix and lane buffers of benchItems items. The *Ref twins run the
// per-item one-chain loops of ref_test.go on the same items, held one
// vector each (the layout the per-item path kept), so the ratio is the
// batch kernel's against scalar speed on the same work.
func benchBatch(b *testing.B, kernel func(m *Matrix, xs, ys []Vector, x, y Vector)) {
	for _, n := range benchDims() {
		b.Run(fmt.Sprintf("dim=%d", n), func(b *testing.B) {
			r := rng.New(1)
			m := randMat(r, n, n)
			xs, ys := make([]Vector, benchItems), make([]Vector, benchItems)
			for i := range xs {
				xs[i], ys[i] = randVec(r, n), randVec(r, n)
			}
			x, y := make(Vector, Groups(benchItems)*Lanes*n), make(Vector, Groups(benchItems)*Lanes*n)
			PackLanes(x, xs)
			PackLanes(y, ys)
			b.ReportAllocs()
			b.SetBytes(int64(n) * int64(n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(m, xs, ys, x, y)
			}
		})
	}
}

// benchItems is the batch the batch kernels are timed at: pipe-numeric's.
const benchItems = 4

func BenchmarkMatVecBatch(b *testing.B) {
	benchBatch(b, func(m *Matrix, _, _ []Vector, x, y Vector) { MatVecBatch(y, m, x, benchItems) })
}

func BenchmarkMatTVecBatch(b *testing.B) {
	benchBatch(b, func(m *Matrix, _, _ []Vector, x, y Vector) { MatTVecBatch(y, m, x, benchItems) })
}

func BenchmarkOuterBatch(b *testing.B) {
	gb := make(Vector, 512)
	benchBatch(b, func(m *Matrix, _, _ []Vector, x, y Vector) { OuterBatch(m, gb[:m.Rows], y, x, benchItems) })
}

func BenchmarkMatVecBatchRef(b *testing.B) {
	benchBatch(b, func(m *Matrix, xs, ys []Vector, _, _ Vector) {
		for i := range xs {
			matVecRef(ys[i], m, xs[i])
		}
	})
}

func BenchmarkMatTVecBatchRef(b *testing.B) {
	benchBatch(b, func(m *Matrix, xs, ys []Vector, _, _ Vector) {
		for i := range xs {
			matTVecRef(ys[i], m, xs[i])
		}
	})
}

// BenchmarkOuterBatchRef zeroes the gradient and accumulates item by
// item, as the per-item path did.
func BenchmarkOuterBatchRef(b *testing.B) {
	gb := make(Vector, 512)
	benchBatch(b, func(m *Matrix, xs, ys []Vector, _, _ Vector) {
		clear(m.Data)
		clear(gb[:m.Rows])
		for i := range xs {
			outerAccumRef(m, ys[i], xs[i], 1)
			axpyRef(gb[:m.Rows], 1, ys[i])
		}
	})
}

// benchTanh times one tanh loop over an n-vector at every benchDims
// size, the length of a layer's activation.
func benchTanh(b *testing.B, tanh func(dst, x Vector)) {
	for _, n := range benchDims() {
		b.Run(fmt.Sprintf("dim=%d", n), func(b *testing.B) {
			x, y := randVec(rng.New(1), n), make(Vector, n)
			b.ReportAllocs()
			b.SetBytes(int64(n) * 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tanh(y, x)
			}
		})
	}
}

// BenchmarkTanh times Tanh, and BenchmarkTanhRef the math.Tanh loop it
// replaced, on the same inputs.
func BenchmarkTanh(b *testing.B) { benchTanh(b, Tanh) }

func BenchmarkTanhRef(b *testing.B) { benchTanh(b, tanhRef) }

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
