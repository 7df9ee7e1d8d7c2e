// Package tensor implements the small deterministic float32 numeric
// substrate that NASPipe-Go trains on.
//
// The paper's reproducibility definition (Definition 1) demands bitwise
// equality of all layer parameters across repeated runs. Floating-point
// addition is not associative, so bitwise reproducibility requires a fixed
// reduction order. Every reduction over a single output element is a
// strict left-to-right sequential loop, and every product is rounded
// before it is added: no reassociation and no fused multiply-add, on any
// GOARCH (each product that feeds an add is written float32(a*b), which
// the Go spec forbids fusing). Every kernel runs on the calling
// goroutine: the pipeline stage, not the kernel, is the unit of
// parallelism. This mirrors the role of Nvidia's framework-determinism
// configuration in the original artifact (CUBLAS_WORKSPACE_CONFIG=:4096:8):
// it makes the *intra-subnet* computation deterministic so that the only
// remaining source of nondeterminism is the *inter-subnet* read/write
// interleaving, which the CSP scheduler then controls.
//
// Like cuBLAS's deterministic kernels, the dense kernels are still
// vectorized. On amd64 MatVec, OuterAccum, the batch kernels, AXPY,
// MatAXPY, Tanh and TanhGrad run SSE2 assembly (kernels_amd64.s) whose
// SIMD lanes span independent outputs only: four MatVec rows, four
// elements of an elementwise update, two float64 lanes of Tanh; in the
// batch kernels (batch.go), the four items of a batch a lane group
// holds, or four columns of a weight gradient. Each output sees exactly
// the Go kernels' sequence of separately rounded multiplies and adds, so
// every weight is bitwise the same on either path. Other GOARCHes and
// every race build (the race detector cannot see memory that assembly
// touches) run the Go kernels; ref_test.go checks both paths against one
// set of oracles.
//
// Tanh calls no libm function: it is the package's own evaluation
// (tanh.go), equal bit for bit to float32(math.Tanh(float64(x))) on all
// 2³² float32 inputs, which the exhaustive test checks.
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

// overlapsShifted reports whether a and b overlap without starting at
// the same element. An elementwise kernel may write dst over an input
// that is the very same slice, but a shifted overlap would make each
// result depend on how many elements a pass loads before it stores.
func overlapsShifted(a, b Vector) bool {
	return slicesOverlap(a, b) && &a[0] != &b[0]
}

// checkData panics unless m.Data holds exactly m's shape: Matrix's
// fields are exported, and a kernel indexes Data by shape alone.
func (m *Matrix) checkData(op string) {
	if len(m.Data) != m.Rows*m.Cols {
		panic(fmt.Sprintf("tensor: %s matrix %dx%d holds %d elements",
			op, m.Rows, m.Cols, len(m.Data)))
	}
}

// MatVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols; dst and x must not alias (checked — an aliased call would
// silently corrupt results, so it panics like every shape mismatch does).
func MatVec(dst Vector, m *Matrix, x Vector) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch dst=%d m=%dx%d x=%d",
			len(dst), m.Rows, m.Cols, len(x)))
	}
	m.checkData("MatVec")
	if slicesOverlap(dst, x) {
		panic("tensor: MatVec dst aliases x")
	}
	matVec(dst, m, x)
}

// matVecGo is the portable MatVec kernel over output rows [lo, hi).
// Each row's dot product accumulates strictly left to right. Four rows
// share a pass, each in its own accumulator: one row's adds form a
// dependency chain, so a single accumulator waits out the full add
// latency per element, while four independent chains overlap it. No
// row's order changes, so neither does any bit of dst.
func matVecGo(dst Vector, m *Matrix, x Vector, lo, hi int) {
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
			s0 += float32(m0[c] * xc)
			s1 += float32(m1[c] * xc)
			s2 += float32(m2[c] * xc)
			s3 += float32(m3[c] * xc)
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < hi; r++ {
		row := m.Data[r*cols : (r+1)*cols][:len(x)]
		var sum float32
		for c, xc := range x {
			sum += float32(row[c] * xc)
		}
		dst[r] = sum
	}
}

// OuterAccum accumulates dst += scale * (a ⊗ b), i.e. dst[r][c] +=
// scale*a[r]*b[c]. Used to accumulate weight gradients. Neither a nor b
// may overlap dst (checked).
func OuterAccum(dst *Matrix, a, b Vector, scale float32) {
	if len(a) != dst.Rows || len(b) != dst.Cols {
		panic(fmt.Sprintf("tensor: OuterAccum shape mismatch a=%d b=%d dst=%dx%d",
			len(a), len(b), dst.Rows, dst.Cols))
	}
	dst.checkData("OuterAccum")
	if slicesOverlap(dst.Data, a) || slicesOverlap(dst.Data, b) {
		panic("tensor: OuterAccum dst aliases an operand")
	}
	outerAccum(dst, a, b, scale)
}

// outerAccumGo is the portable OuterAccum kernel. Every element takes
// exactly one add, so the four-wide axpy changes no result.
func outerAccumGo(dst *Matrix, a, b Vector, scale float32) {
	cols := dst.Cols
	for r, ar := range a {
		axpyGo(dst.Data[r*cols:(r+1)*cols], ar*scale, b)
	}
}

// axpyGo computes d[i] += alpha * s[i] for i < len(d), four elements per
// pass. len(s) must be at least len(d). Each pass reslices four-element
// windows, so the compiler proves the constant indices in range and the
// adds carry no bounds checks.
func axpyGo(d []float32, alpha float32, s []float32) {
	s = s[:len(d)]
	i := 0
	for ; i+4 <= len(d); i += 4 {
		dw := d[i : i+4 : i+4]
		sw := s[i : i+4 : i+4]
		dw[0] += float32(alpha * sw[0])
		dw[1] += float32(alpha * sw[1])
		dw[2] += float32(alpha * sw[2])
		dw[3] += float32(alpha * sw[3])
	}
	for ; i < len(d); i++ {
		d[i] += float32(alpha * s[i])
	}
}

// AXPY computes dst += alpha * x elementwise. x may be dst itself but
// may not overlap it otherwise (checked).
func AXPY(dst Vector, alpha float32, x Vector) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(dst), len(x)))
	}
	if overlapsShifted(dst, x) {
		panic("tensor: AXPY dst overlaps x")
	}
	axpy(dst, alpha, x)
}

// MatAXPY computes dst += alpha * x for matrices of equal shape, under
// AXPY's overlap rule.
func MatAXPY(dst *Matrix, alpha float32, x *Matrix) {
	if dst.Rows != x.Rows || dst.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: MatAXPY shape mismatch %dx%d vs %dx%d",
			dst.Rows, dst.Cols, x.Rows, x.Cols))
	}
	dst.checkData("MatAXPY")
	x.checkData("MatAXPY")
	if overlapsShifted(dst.Data, x.Data) {
		panic("tensor: MatAXPY dst overlaps x")
	}
	axpy(dst.Data, alpha, x.Data)
}

// Dot returns the sequential dot product of a and b.
func Dot(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float32
	for i := range a {
		sum += float32(a[i] * b[i])
	}
	return sum
}

// SumSquares returns Σ a[i]², accumulated left to right.
func SumSquares(a Vector) float32 {
	var sum float32
	for _, v := range a {
		sum += float32(v * v)
	}
	return sum
}

// TanhGrad computes dst = g * (1 - y²) elementwise, where y = tanh(x) is
// the saved activation. dst may be g or y itself but may not overlap
// either otherwise (checked).
func TanhGrad(dst, g, y Vector) {
	if len(dst) != len(g) || len(dst) != len(y) {
		panic("tensor: TanhGrad length mismatch")
	}
	if overlapsShifted(dst, g) || overlapsShifted(dst, y) {
		panic("tensor: TanhGrad dst overlaps an operand")
	}
	tanhGrad(dst, g, y)
}

// tanhGradGo is the portable TanhGrad kernel.
func tanhGradGo(dst, g, y Vector) {
	g, y = g[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = g[i] * (1 - float32(y[i]*y[i]))
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
	return fnvFloats(m.checksumShape(), m.Data)
}

// checksumShape starts a matrix's Checksum chain: the shape's bytes.
func (m *Matrix) checksumShape() uint64 {
	return fnvU32(fnvU32(fnvOffset64, uint32(m.Rows)), uint32(m.Cols))
}

// Checksum4 returns the Checksum of each of four matrices. A hash chain
// is one multiply per byte, each waiting on the last, so hashing one
// matrix at a time leaves the multiplier idle most of each step; here
// the four chains advance in one loop and overlap. Each result is bit
// for bit what Checksum returns: four chains, not one interleaved
// stream. The matrices may differ in shape.
func Checksum4(a, b, c, d *Matrix) [4]uint64 {
	ms := [4]*Matrix{a, b, c, d}
	var h [4]uint64
	n := len(a.Data)
	for k, m := range ms {
		h[k] = m.checksumShape()
		n = min(n, len(m.Data))
	}
	d0, d1, d2, d3 := a.Data[:n], b.Data[:n], c.Data[:n], d.Data[:n]
	h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
	for i := range d0 {
		h0 = fnvU32(h0, math.Float32bits(d0[i]))
		h1 = fnvU32(h1, math.Float32bits(d1[i]))
		h2 = fnvU32(h2, math.Float32bits(d2[i]))
		h3 = fnvU32(h3, math.Float32bits(d3[i]))
	}
	h = [4]uint64{h0, h1, h2, h3}
	for k, m := range ms {
		h[k] = fnvFloats(h[k], m.Data[n:])
	}
	return h
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
