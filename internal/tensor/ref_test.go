package tensor

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"naspipe/internal/rng"
)

// Reference implementations: the pre-optimization sequential kernels and
// hash/fnv-based checksums, kept verbatim so the fast paths can be
// differentially tested against them (and benchmarked against them — the
// *Ref benchmarks are the "before" side of BENCH_speed.json, reproducible
// from the final tree).

func matVecRef(dst Vector, m *Matrix, x Vector) {
	for r := 0; r < m.Rows; r++ {
		var sum float32
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			sum += v * x[c]
		}
		dst[r] = sum
	}
}

func matTVecRef(dst Vector, m *Matrix, x Vector) {
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.Rows; r++ {
		xr := x[r]
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			dst[c] += v * xr
		}
	}
}

func outerAccumRef(dst *Matrix, a, b Vector, scale float32) {
	for r := 0; r < dst.Rows; r++ {
		ar := a[r] * scale
		row := dst.Data[r*dst.Cols : (r+1)*dst.Cols]
		for c := range row {
			row[c] += ar * b[c]
		}
	}
}

func matAXPYRef(dst *Matrix, alpha float32, x *Matrix) {
	for i := range dst.Data {
		dst.Data[i] += alpha * x.Data[i]
	}
}

func vectorChecksumRef(v Vector) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, f := range v {
		bits := math.Float32bits(f)
		buf[0] = byte(bits)
		buf[1] = byte(bits >> 8)
		buf[2] = byte(bits >> 16)
		buf[3] = byte(bits >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func matrixChecksumRef(m *Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	buf[0] = byte(m.Rows)
	buf[1] = byte(m.Rows >> 8)
	buf[2] = byte(m.Rows >> 16)
	buf[3] = byte(m.Rows >> 24)
	buf[4] = byte(m.Cols)
	buf[5] = byte(m.Cols >> 8)
	buf[6] = byte(m.Cols >> 16)
	buf[7] = byte(m.Cols >> 24)
	h.Write(buf[:])
	var b4 [4]byte
	for _, f := range m.Data {
		bits := math.Float32bits(f)
		b4[0] = byte(bits)
		b4[1] = byte(bits >> 8)
		b4[2] = byte(bits >> 16)
		b4[3] = byte(bits >> 24)
		h.Write(b4[:])
	}
	return h.Sum64()
}

func combineChecksumsRef(sums []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range sums {
		for i := 0; i < 8; i++ {
			buf[i] = byte(s >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// kernelShapes covers square, rectangular and large (up to 512×128)
// shapes, and row and column counts of every residue mod 4 so the
// kernels' four-wide passes meet every tail length.
func kernelShapes() [][2]int {
	return [][2]int{
		{1, 1}, {3, 5}, {12, 12}, {63, 65}, {64, 64},
		{128, 512}, {512, 128}, {200, 200}, {257, 191},
		{2, 3}, {5, 6}, {6, 7}, {7, 9}, {8, 8}, {9, 10}, {10, 11}, {11, 2},
		{130, 259}, {259, 129},
	}
}

// checkKernels runs every kernel and its ref_test.go oracle on one shape
// and data set and reports the first whose output differs. same decides
// equality of two output elements.
func checkKernels(m *Matrix, x, xt, a Vector, acc *Matrix, alpha float32, same func(a, b float32) bool) error {
	rows, cols := m.Rows, m.Cols
	equal := func(got, want []float32) bool {
		for i := range got {
			if !same(got[i], want[i]) {
				return false
			}
		}
		return true
	}

	got, want := make(Vector, rows), make(Vector, rows)
	MatVec(got, m, x)
	matVecRef(want, m, x)
	if !equal(got, want) {
		return fmt.Errorf("MatVec %dx%d diverged from the sequential reference", rows, cols)
	}

	gotT, wantT := make(Vector, cols), make(Vector, cols)
	MatTVec(gotT, m, xt)
	matTVecRef(wantT, m, xt)
	if !equal(gotT, wantT) {
		return fmt.Errorf("MatTVec %dx%d diverged from the sequential reference", rows, cols)
	}

	accGot, accWant := acc.Clone(), acc.Clone()
	OuterAccum(accGot, a, x, alpha)
	outerAccumRef(accWant, a, x, alpha)
	if !equal(accGot.Data, accWant.Data) {
		return fmt.Errorf("OuterAccum %dx%d diverged from the sequential reference", rows, cols)
	}

	axGot, axWant := acc.Clone(), acc.Clone()
	MatAXPY(axGot, alpha, m)
	matAXPYRef(axWant, alpha, m)
	if !equal(axGot.Data, axWant.Data) {
		return fmt.Errorf("MatAXPY %dx%d diverged from the sequential reference", rows, cols)
	}
	return nil
}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// TestKernelsBitwiseEqualAcrossParallelism proves every kernel produces
// bitwise-identical output to its sequential reference on every shape:
// the Definition 1 obligation that lets the rest of the system run the
// kernels on any stage goroutine at any GOMAXPROCS.
func TestKernelsBitwiseEqualAcrossParallelism(t *testing.T) {
	r := rng.New(99).Split("kernels")
	for _, shape := range kernelShapes() {
		rows, cols := shape[0], shape[1]
		m := randMat(r, rows, cols)
		x, xt, a := randVec(r, cols), randVec(r, rows), randVec(r, rows)
		if err := checkKernels(m, x, xt, a, randMat(r, rows, cols), 0.25, sameBits); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKernelsDoNotAllocate pins the dense kernels allocation-free at
// 512×512 (eight times the largest dim any workload trains at), at
// whatever GOMAXPROCS the test runs with.
func TestKernelsDoNotAllocate(t *testing.T) {
	const n = 512
	r := rng.New(5).Split("allocs")
	m, acc := randMat(r, n, n), randMat(r, n, n)
	x, dst := randVec(r, n), make(Vector, n)
	for name, kernel := range map[string]func(){
		"MatVec":     func() { MatVec(dst, m, x) },
		"MatTVec":    func() { MatTVec(dst, m, x) },
		"OuterAccum": func() { OuterAccum(acc, x, x, 1e-3) },
	} {
		if got := testing.AllocsPerRun(20, kernel); got != 0 {
			t.Errorf("%s %dx%d: %v allocs/op, want 0", name, n, n, got)
		}
	}
}

// FuzzKernels checks every kernel against its oracle on fuzzed shapes and
// fuzzed float bit patterns, infinities, NaNs and subnormals included.
// Finite results must match bit for bit. A NaN
// need only meet a NaN: which operand's payload an add propagates is the
// hardware's choice, and Definition 1 is about finite weights.
func FuzzKernels(f *testing.F) {
	f.Add(uint8(5), uint8(7), []byte{0, 0, 128, 63, 0, 0, 0, 192})
	f.Add(uint8(66), uint8(131), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(201), uint8(254), []byte{205, 204, 76, 62, 154, 153, 25, 191})
	f.Add(uint8(4), uint8(4), []byte{0, 0, 128, 127, 0, 0, 192, 127, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw uint8, raw []byte) {
		// Up to 256×256.
		rows, cols := int(rowsRaw)+1, int(colsRaw)+1
		i := 0
		next := func() float32 {
			var bits uint32
			for k := 0; k < 4 && len(raw) > 0; k++ {
				bits |= uint32(raw[(i*4+k)%len(raw)]) << (8 * k)
			}
			i++
			return math.Float32frombits(bits)
		}
		mat := func() *Matrix {
			m := NewMatrix(rows, cols)
			for j := range m.Data {
				m.Data[j] = next()
			}
			return m
		}
		vec := func(n int) Vector {
			v := make(Vector, n)
			for j := range v {
				v[j] = next()
			}
			return v
		}
		m := mat()
		x, xt, a := vec(cols), vec(rows), vec(rows)
		acc := mat()
		sameOrNaN := func(p, q float32) bool { return sameBits(p, q) || (p != p && q != q) }
		if err := checkKernels(m, x, xt, a, acc, next(), sameOrNaN); err != nil {
			t.Fatal(err)
		}
	})
}

// TestChecksumMatchesFNVReference pins the inlined FNV-64a loops to the
// hash/fnv implementation they replaced: same byte stream, same digest.
func TestChecksumMatchesFNVReference(t *testing.T) {
	r := rng.New(7).Split("checksum")
	for _, n := range []int{0, 1, 3, 64, 1000} {
		v := randVec(r, n)
		if got, want := v.Checksum(), vectorChecksumRef(v); got != want {
			t.Fatalf("Vector(len=%d).Checksum = %#x, reference %#x", n, got, want)
		}
	}
	for _, shape := range [][2]int{{1, 1}, {12, 12}, {37, 53}, {256, 256}} {
		m := randMat(r, shape[0], shape[1])
		if got, want := m.Checksum(), matrixChecksumRef(m); got != want {
			t.Fatalf("Matrix(%dx%d).Checksum = %#x, reference %#x", shape[0], shape[1], got, want)
		}
	}
	sums := make([]uint64, 33)
	for i := range sums {
		sums[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for n := 0; n <= len(sums); n++ {
		if got, want := CombineChecksums(sums[:n]), combineChecksumsRef(sums[:n]); got != want {
			t.Fatalf("CombineChecksums(%d sums) = %#x, reference %#x", n, got, want)
		}
	}
}

func TestMatVecPanicsOnAlias(t *testing.T) {
	m := NewMatrix(4, 4)
	buf := make(Vector, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("MatVec with aliased dst/x did not panic")
		}
	}()
	MatVec(buf[:4], m, buf[2:6])
}

func TestMatTVecPanicsOnAlias(t *testing.T) {
	m := NewMatrix(4, 4)
	buf := make(Vector, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("MatTVec with aliased dst/x did not panic")
		}
	}()
	MatTVec(buf, m, buf)
}

// TestDistinctSlicesDoNotTriggerAliasCheck guards against false positives:
// adjacent but non-overlapping views of one backing array are legal.
func TestDistinctSlicesDoNotTriggerAliasCheck(t *testing.T) {
	m := NewMatrix(4, 4)
	buf := make(Vector, 8)
	MatVec(buf[:4], m, buf[4:])
	MatTVec(buf[4:], m, buf[:4])
}
