//go:build amd64 && !race

package tensor

import "math/bits"

// fastPath names the kernels MatVec, OuterAccum, the three batch
// kernels, AXPY, MatAXPY, Tanh and TanhGrad run here: SSE2 assembly
// (kernels_amd64.s). SSE2 is part of the amd64 baseline (GOAMD64=v1), so
// no CPU check stands in front of it. A lane holds one output element
// and nothing else, so each output sees the same products and sums, in
// the same order and each rounded on its own, as under the Go kernels.
// Every caller has checked the shapes; the reslices below turn a short
// slice into Go's bounds panic before any assembly reads it.
const fastPath = "sse2"

// matVecSSE computes, for each row r < len(dst) (a multiple of 4), the
// partial dot product of m's row r (row stride stride) with x, over the
// len(x) leading columns (a multiple of 4, at least 4).
//
//go:noescape
func matVecSSE(dst, m, x []float32, stride int)

// matVecBatchSSE computes one lane group of y = m·x: for each row r <
// len(y)/4 (a multiple of 4) and each lane, the partial dot product of
// m's row r (row stride stride) with x's lane over the len(x)/4 leading
// columns (a multiple of 4).
//
//go:noescape
func matVecBatchSSE(y, m, x []float32, stride int)

// matTVecBatchSSE computes one lane group of dx = mᵀ·dz over the
// len(dx)/4 leading columns (a multiple of 4) of the len(dz)/4 × stride
// matrix m.
//
//go:noescape
func matTVecBatchSSE(dx, m, dz []float32, stride int)

// outerBatchSSE adds, for each row r < len(dz)/4 and each column c <
// len(x)/4 (a multiple of 4), the products dz[r][i]·x[c][i] of the
// group's first lanes items to gw[r*stride+c] in item order, starting
// from +0, or from gw's value when add is set.
//
//go:noescape
func outerBatchSSE(gw, dz, x []float32, stride, lanes int, add bool)

// outerAccumSSE computes dst[r*len(b)+c] += (a[r]*scale) * b[c].
//
//go:noescape
func outerAccumSSE(dst, a, b []float32, scale float32)

// axpySSE computes d[i] += alpha * s[i] for i < len(d).
//
//go:noescape
func axpySSE(d []float32, alpha float32, s []float32)

// tanhSSE computes Tanh of n elements (a multiple of 4, at most 64) of
// x into dst where t's guard holds, and returns the mask of the elements
// where it fails; those keep their x in dst. It reads the elements in
// pairs: two pairs a pass, the second stride floats after the first, a
// pass 2·stride floats on (stride 2 is contiguous).
//
//go:noescape
func tanhSSE(dst, x []float32, n, stride int) uint64

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

// matVecBatch runs each group's four-row blocks over its four-column
// blocks in assembly, then in Go adds those rows' last Cols%4 products
// to their partial sums, in column order, and computes the last Rows%4
// rows.
func matVecBatch(y Vector, m *Matrix, x Vector, groups int) {
	rows, cols := m.Rows, m.Cols
	rows4, cols4 := rows&^3, cols&^3
	if cols4 == 0 {
		rows4 = 0
	}
	for g := range groups {
		yg, xg := group(y, g, rows), group(x, g, cols)
		matVecBatchSSE(yg[:rows4*Lanes], m.Data[:rows*cols], xg[:cols4*Lanes], cols)
		if cols4 < cols {
			matVecGroupGo(yg, m, xg, 0, rows4, cols4)
		}
		if rows4 < rows {
			matVecGroupGo(yg, m, xg, rows4, rows, 0)
		}
	}
}

// matTVecBatch runs each group's four-column blocks in assembly and the
// last Cols%4 columns in Go.
func matTVecBatch(dx Vector, m *Matrix, dz Vector, groups int) {
	rows, cols := m.Rows, m.Cols
	cols4 := cols &^ 3
	for g := range groups {
		dxg, dzg := group(dx, g, cols), group(dz, g, rows)
		matTVecBatchSSE(dxg[:cols4*Lanes], m.Data[:rows*cols], dzg, cols)
		if cols4 < cols {
			matTVecGroupGo(dxg, m, dzg, cols4, cols)
		}
	}
}

// outerBatch runs the four-column blocks in assembly, one group after
// another: the first group writes each sum, a later one continues it
// from gw (a stored float32 partial sum is the sum itself, so the order
// of adds is unchanged). The last Cols%4 columns run in Go.
func outerBatch(gw *Matrix, dz, x Vector, n int) {
	rows, cols := gw.Rows, gw.Cols
	cols4 := cols &^ 3
	for g := 0; g*Lanes < n; g++ {
		outerBatchSSE(gw.Data[:rows*cols], group(dz, g, rows), group(x, g, cols)[:cols4*Lanes],
			cols, min(n-g*Lanes, Lanes), g > 0)
	}
	if cols4 < cols {
		outerBatchGo(gw, dz, x, n, cols4, cols)
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
		for slow := tanhSSE(d, x[lo:lo+len(d)], len(d), 2); slow != 0; slow &= slow - 1 {
			i := bits.TrailingZeros64(slow)
			d[i] = float32(tanhPort(float64(d[i])))
		}
	}
	tanhGo(dst[n:], x[n:])
}

// tanhPairs runs tanhSSE in place over the first two lanes of pairs of
// the lane group g's rows, 32 rows a call, and an odd last row in Go.
// Element i of a call is lane i%2 of row i/2.
func tanhPairs(g Vector, rows int) {
	even := rows &^ 1
	for lo := 0; lo < even; lo += 32 {
		d := g[lo*Lanes : min(lo+32, even)*Lanes]
		for slow := tanhSSE(d, d, len(d)/2, Lanes); slow != 0; slow &= slow - 1 {
			i := bits.TrailingZeros64(slow)
			k := i/2*Lanes + i%2
			d[k] = float32(tanhPort(float64(d[k])))
		}
	}
	tanhPairsGo(g[even*Lanes:], rows-even)
}
