//go:build amd64 && !race

package tensor

import "math/bits"

// fastPath names the kernels MatVec, MatTVec, OuterAccum, AXPY, MatAXPY,
// Tanh and TanhGrad run here: SSE2 assembly (kernels_amd64.s). SSE2 is
// part of the amd64 baseline (GOAMD64=v1), so no CPU check stands in
// front of it. A lane holds one output element and nothing else, so
// each output sees the same products and sums, in the same order and
// each rounded on its own, as under the Go kernels. Every caller has
// checked the shapes; the reslices below turn a short slice into Go's
// bounds panic before any assembly reads it.
const fastPath = "sse2"

// matVecSSE computes, for each row r < len(dst) (a multiple of 4), the
// partial dot product of m's row r (row stride stride) with x, over the
// len(x) leading columns (a multiple of 4, at least 4).
//
//go:noescape
func matVecSSE(dst, m, x []float32, stride int)

// matTVecSSE computes dst = mᵀ x over the len(dst) leading columns (a
// multiple of 4) of the len(x) × stride matrix m.
//
//go:noescape
func matTVecSSE(dst, m, x []float32, stride int)

// outerAccumSSE computes dst[r*len(b)+c] += (a[r]*scale) * b[c].
//
//go:noescape
func outerAccumSSE(dst, a, b []float32, scale float32)

// axpySSE computes d[i] += alpha * s[i] for i < len(d).
//
//go:noescape
func axpySSE(d []float32, alpha float32, s []float32)

// tanhSSE computes dst[i] = Tanh(x[i]) for i < len(dst) (a multiple of
// 4, at most 64) where t's guard holds, and returns the mask of the
// elements where it fails; those keep x[i] in dst[i].
//
//go:noescape
func tanhSSE(dst, x []float32) uint64

// tanhGradSSE computes dst[i] = g[i] * (1 - y[i]*y[i]) for i < len(dst).
//
//go:noescape
func tanhGradSSE(dst, g, y []float32)

// matVec runs the four-row blocks over the four-column blocks in
// assembly, then adds each of those rows' last Cols%4 products to its
// partial sum, in column order, and computes the last Rows%4 rows in Go.
func matVec(dst Vector, m *Matrix, x Vector) {
	rows, cols := m.Rows, m.Cols
	rows4, cols4 := rows&^3, cols&^3
	if cols4 == 0 {
		rows4 = 0
	}
	matVecSSE(dst[:rows4], m.Data[:rows*cols], x[:cols4], cols)
	if cols4 < cols {
		tail := x[cols4:cols]
		for r := range dst[:rows4] {
			sum := dst[r]
			row := m.Data[r*cols+cols4 : (r+1)*cols][:len(tail)]
			for c, xc := range tail {
				sum += float32(row[c] * xc)
			}
			dst[r] = sum
		}
	}
	matVecGo(dst, m, x, rows4, rows)
}

// matTVec runs the four-column blocks in assembly and the last Cols%4
// columns in Go.
func matTVec(dst Vector, m *Matrix, x Vector) {
	cols4 := m.Cols &^ 3
	matTVecSSE(dst[:cols4], m.Data[:m.Rows*m.Cols], x[:m.Rows], m.Cols)
	if cols4 < m.Cols {
		matTVecGo(dst, m, x, cols4, m.Cols)
	}
}

func outerAccum(dst *Matrix, a, b Vector, scale float32) {
	outerAccumSSE(dst.Data[:len(a)*len(b)], a, b, scale)
}

func axpy(d []float32, alpha float32, s []float32) { axpySSE(d, alpha, s[:len(d)]) }

func tanhGrad(dst, g, y Vector) { tanhGradSSE(dst, g[:len(dst)], y[:len(dst)]) }

// tanh runs tanhSSE over the first len(dst) &^ 3 elements in chunks of
// 64 and computes each element whose guard failed, and the last
// len(dst) % 4, in Go. tanhSSE leaves x[i] in dst[i] where the guard
// failed, so a chunk's slow path reads its input from dst and dst may
// be x.
func tanh(dst, x Vector) {
	x = x[:len(dst)]
	n := len(dst) &^ 3
	for lo := 0; lo < n; lo += 64 {
		d := dst[lo:min(lo+64, n)]
		for slow := tanhSSE(d, x[lo:lo+len(d)]); slow != 0; slow &= slow - 1 {
			i := bits.TrailingZeros64(slow)
			d[i] = float32(tanhPort(float64(d[i])))
		}
	}
	tanhGo(dst[n:], x[n:])
}
