// Package tensor implements the small deterministic float32 numeric
// substrate that NASPipe-Go trains on.
//
// The paper's reproducibility definition (Definition 1) demands bitwise
// equality of all layer parameters across repeated runs. Floating-point
// addition is not associative, so bitwise reproducibility requires a fixed
// reduction order. Every reduction over a single output element is a
// strict left-to-right sequential loop; no reassociation, no
// fused-multiply-add intrinsics. The large kernels do fan out across
// goroutines, but only over disjoint tiles of the *output* index space
// with shape-determined split points (see parallel.go), so every output
// element is still produced by the exact sequential accumulation and the
// result is bitwise identical at any worker count. This mirrors the role
// of Nvidia's framework-determinism configuration in the original
// artifact (CUBLAS_WORKSPACE_CONFIG=:4096:8): it makes the *intra-subnet*
// computation deterministic so that the only remaining source of
// nondeterminism is the *inter-subnet* read/write interleaving, which the
// CSP scheduler then controls.
package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// Vector is a dense float32 vector.
type Vector []float32

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix of the given shape. It panics on
// non-positive dimensions: shapes are static configuration in this system,
// so a bad shape is a programming error, not a runtime condition.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set stores v at (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src's contents into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero resets all elements of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Equal reports whether m and o have identical shape and bitwise identical
// contents. NaNs with equal bit patterns compare equal: this is a bitwise
// comparison, the reproducibility criterion of Definition 1.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if math.Float32bits(m.Data[i]) != math.Float32bits(o.Data[i]) {
			return false
		}
	}
	return true
}

// slicesOverlap reports whether a and b share any backing memory. Empty
// slices never overlap.
func slicesOverlap(a, b Vector) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	aLo := uintptr(unsafe.Pointer(&a[0]))
	aHi := aLo + uintptr(len(a))*unsafe.Sizeof(a[0])
	bLo := uintptr(unsafe.Pointer(&b[0]))
	bHi := bLo + uintptr(len(b))*unsafe.Sizeof(b[0])
	return aLo < bHi && bLo < aHi
}

// MatVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols; dst and x must not alias (checked — an aliased call would
// silently corrupt results, so it panics like every shape mismatch does).
func MatVec(dst Vector, m *Matrix, x Vector) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch dst=%d m=%dx%d x=%d",
			len(dst), m.Rows, m.Cols, len(x)))
	}
	if slicesOverlap(dst, x) {
		panic("tensor: MatVec dst aliases x")
	}
	if !useParallel(m.Rows, m.Rows*m.Cols) {
		matVecRange(dst, m, x, 0, m.Rows)
		return
	}
	parallelSpans(m.Rows, func(lo, hi int) {
		matVecRange(dst, m, x, lo, hi)
	})
}

// matVecRange is the sequential MatVec kernel over output rows [lo, hi).
// Each row's dot product accumulates strictly left to right. Four rows
// share a pass, each in its own accumulator: one row's adds form a
// dependency chain, so a single accumulator waits out the full add
// latency per element, while four independent chains overlap it. No
// row's order changes, so neither does any bit of dst.
func matVecRange(dst Vector, m *Matrix, x Vector, lo, hi int) {
	cols := m.Cols
	x = x[:cols]
	r := lo
	for ; r+4 <= hi; r += 4 {
		base := r * cols
		m0 := m.Data[base : base+cols][:len(x)]
		m1 := m.Data[base+cols : base+2*cols][:len(x)]
		m2 := m.Data[base+2*cols : base+3*cols][:len(x)]
		m3 := m.Data[base+3*cols : base+4*cols][:len(x)]
		var s0, s1, s2, s3 float32
		for c, xc := range x {
			s0 += m0[c] * xc
			s1 += m1[c] * xc
			s2 += m2[c] * xc
			s3 += m3[c] * xc
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < hi; r++ {
		row := m.Data[r*cols : (r+1)*cols][:len(x)]
		var sum float32
		for c, xc := range x {
			sum += row[c] * xc
		}
		dst[r] = sum
	}
}

// MatTVec computes dst = mᵀ * x. dst must have length m.Cols and x length
// m.Rows; dst and x must not alias (checked). The accumulation order per
// output column is fixed (ascending row index) for determinism; the tiles
// split only the column space, so each dst[c] sees the exact sequential
// order regardless of worker count.
func MatTVec(dst Vector, m *Matrix, x Vector) {
	if len(dst) != m.Cols || len(x) != m.Rows {
		panic(fmt.Sprintf("tensor: MatTVec shape mismatch dst=%d m=%dx%d x=%d",
			len(dst), m.Rows, m.Cols, len(x)))
	}
	if slicesOverlap(dst, x) {
		panic("tensor: MatTVec dst aliases x")
	}
	if !useParallel(m.Cols, m.Rows*m.Cols) {
		matTVecCols(dst, m, x, 0, m.Cols)
		return
	}
	parallelSpans(m.Cols, func(lo, hi int) {
		matTVecCols(dst, m, x, lo, hi)
	})
}

// matTVecCols is the sequential MatTVec kernel over output columns
// [lo, hi): zero the span, then accumulate rows in ascending order. Four
// rows fold into each dst[c] per pass, still in ascending row order, so
// dst is loaded and stored once per four rows instead of once per row.
func matTVecCols(dst Vector, m *Matrix, x Vector, lo, hi int) {
	d := dst[lo:hi]
	for c := range d {
		d[c] = 0
	}
	cols := m.Cols
	x = x[:m.Rows]
	r := 0
	for ; r+4 <= len(x); r += 4 {
		x0, x1, x2, x3 := x[r], x[r+1], x[r+2], x[r+3]
		base := r*cols + lo
		m0 := m.Data[base:][:len(d)]
		m1 := m.Data[base+cols:][:len(d)]
		m2 := m.Data[base+2*cols:][:len(d)]
		m3 := m.Data[base+3*cols:][:len(d)]
		for c := range d {
			acc := d[c] + m0[c]*x0
			acc += m1[c] * x1
			acc += m2[c] * x2
			acc += m3[c] * x3
			d[c] = acc
		}
	}
	for ; r < len(x); r++ {
		xr := x[r]
		row := m.Data[r*cols+lo:][:len(d)]
		for c := range d {
			d[c] += row[c] * xr
		}
	}
}

// OuterAccum accumulates dst += scale * (a ⊗ b), i.e. dst[r][c] +=
// scale*a[r]*b[c]. Used to accumulate weight gradients.
func OuterAccum(dst *Matrix, a, b Vector, scale float32) {
	if len(a) != dst.Rows || len(b) != dst.Cols {
		panic(fmt.Sprintf("tensor: OuterAccum shape mismatch a=%d b=%d dst=%dx%d",
			len(a), len(b), dst.Rows, dst.Cols))
	}
	if !useParallel(dst.Rows, dst.Rows*dst.Cols) {
		outerAccumRange(dst, a, b, scale, 0, dst.Rows)
		return
	}
	parallelSpans(dst.Rows, func(lo, hi int) {
		outerAccumRange(dst, a, b, scale, lo, hi)
	})
}

// outerAccumRange is the sequential OuterAccum kernel over rows [lo, hi).
// Every element takes exactly one add, so unrolling changes no result.
func outerAccumRange(dst *Matrix, a, b Vector, scale float32, lo, hi int) {
	cols := dst.Cols
	for r := lo; r < hi; r++ {
		axpy4(dst.Data[r*cols:(r+1)*cols], a[r]*scale, b)
	}
}

// axpy4 computes d[i] += alpha * s[i] for i < len(d), four elements per
// pass. len(s) must be at least len(d). Each pass reslices four-element
// windows, so the compiler proves the constant indices in range and the
// adds carry no bounds checks.
func axpy4(d []float32, alpha float32, s []float32) {
	s = s[:len(d)]
	i := 0
	for ; i+4 <= len(d); i += 4 {
		dw := d[i : i+4 : i+4]
		sw := s[i : i+4 : i+4]
		dw[0] += alpha * sw[0]
		dw[1] += alpha * sw[1]
		dw[2] += alpha * sw[2]
		dw[3] += alpha * sw[3]
	}
	for ; i < len(d); i++ {
		d[i] += alpha * s[i]
	}
}

// AXPY computes dst += alpha * x elementwise.
func AXPY(dst Vector, alpha float32, x Vector) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(dst), len(x)))
	}
	axpy4(dst, alpha, x)
}

// MatAXPY computes dst += alpha * x for matrices of equal shape.
func MatAXPY(dst *Matrix, alpha float32, x *Matrix) {
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: MatAXPY shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, x.Rows, x.Cols))
	}
	axpy4(dst.Data, alpha, x.Data)
}

// Dot returns the sequential dot product of a and b.
func Dot(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float32
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// SumSquares returns Σ a[i]², accumulated left to right.
func SumSquares(a Vector) float32 {
	var sum float32
	for _, v := range a {
		sum += v * v
	}
	return sum
}

// Tanh applies tanh elementwise into dst (dst may alias x).
func Tanh(dst, x Vector) {
	if len(dst) != len(x) {
		panic("tensor: Tanh length mismatch")
	}
	for i, v := range x {
		dst[i] = float32(math.Tanh(float64(v)))
	}
}

// TanhGrad computes dst = g * (1 - y²) elementwise, where y = tanh(x) is
// the saved activation. dst may alias g or y.
func TanhGrad(dst, g, y Vector) {
	if len(dst) != len(g) || len(dst) != len(y) {
		panic("tensor: TanhGrad length mismatch")
	}
	for i := range dst {
		dst[i] = g[i] * (1 - y[i]*y[i])
	}
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// EqualBits reports bitwise equality of two vectors.
func (v Vector) EqualBits(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if math.Float32bits(v[i]) != math.Float32bits(o[i]) {
			return false
		}
	}
	return true
}

// FNV-64a constants, inlined so the checksum loops need no hash.Hash64
// interface calls or staging buffers. The byte stream hashed here is
// identical to the hash/fnv-based implementation these replaced
// (little-endian element bits, 4 bytes each), which the differential
// tests in ref_test.go pin — the golden whole-supernet digests must not
// move by a bit.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvU32 folds 4 little-endian bytes of bits into h.
func fnvU32(h uint64, bits uint32) uint64 {
	h = (h ^ uint64(bits&0xff)) * fnvPrime64
	h = (h ^ uint64((bits>>8)&0xff)) * fnvPrime64
	h = (h ^ uint64((bits>>16)&0xff)) * fnvPrime64
	h = (h ^ uint64((bits>>24)&0xff)) * fnvPrime64
	return h
}

// fnvU64 folds 8 little-endian bytes of bits into h.
func fnvU64(h uint64, bits uint64) uint64 {
	h = fnvU32(h, uint32(bits))
	return fnvU32(h, uint32(bits>>32))
}

// fnvFloats folds the bit patterns of a float32 slice into h.
func fnvFloats(h uint64, data []float32) uint64 {
	for _, f := range data {
		h = fnvU32(h, math.Float32bits(f))
	}
	return h
}

// Checksum returns an FNV-64a hash over the exact bit patterns of the
// elements. Two vectors have equal checksums iff (with overwhelming
// probability) they are bitwise identical; this is the primitive used to
// compare whole-supernet states across runs (Table 3).
func (v Vector) Checksum() uint64 {
	return fnvFloats(fnvOffset64, v)
}

// Checksum returns an FNV-64a hash over the matrix's shape and bit
// patterns.
func (m *Matrix) Checksum() uint64 {
	h := fnvU32(fnvOffset64, uint32(m.Rows))
	h = fnvU32(h, uint32(m.Cols))
	return fnvFloats(h, m.Data)
}

// CombineChecksums folds a sequence of checksums into one, order
// sensitively. Used to derive a single digest for a whole supernet.
func CombineChecksums(sums []uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, s := range sums {
		h = fnvU64(h, s)
	}
	return h
}
