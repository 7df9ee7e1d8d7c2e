package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"naspipe/internal/rng"
)

func randVec(r *rng.Stream, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.NormFloat32()
	}
	return v
}

func randMat(r *rng.Stream, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat32()
	}
	return m
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][2]int{{0, 1}, {1, 0}, {-1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewMatrix(%d,%d) did not panic", shape[0], shape[1])
				}
			}()
			NewMatrix(shape[0], shape[1])
		}()
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(2, 3, 1.5)
	m.Set(0, 0, -2)
	if m.At(2, 3) != 1.5 || m.At(0, 0) != -2 || m.At(1, 1) != 0 {
		t.Fatalf("At/Set round trip failed: %+v", m)
	}
}

func TestMatVecIdentity(t *testing.T) {
	n := 5
	id := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	x := Vector{1, 2, 3, 4, 5}
	dst := make(Vector, n)
	MatVec(dst, id, x)
	if !dst.EqualBits(x) {
		t.Fatalf("identity MatVec: got %v want %v", dst, x)
	}
}

func TestMatVecKnown(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	x := Vector{1, 0, -1}
	dst := make(Vector, 2)
	MatVec(dst, m, x)
	want := Vector{-2, -2}
	if !dst.EqualBits(want) {
		t.Fatalf("got %v want %v", dst, want)
	}
}

func TestMatTVecKnown(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	dz := make(Vector, 2*Lanes)
	PackLanes(dz, []Vector{{1, -1}, {0, 1}})
	dx := make(Vector, 3*Lanes)
	MatTVecBatch(dx, m, dz, 2)
	want := Vector{-3, 4, 0, 0, -3, 5, 0, 0, -3, 6, 0, 0}
	if !dx.EqualBits(want) {
		t.Fatalf("got %v want %v", dx, want)
	}
}

func TestMatVecBatchKnown(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	x := make(Vector, 3*Lanes)
	PackLanes(x, []Vector{{1, 0, -1}, {0, 1, 0}, {1, 1, 1}})
	y := make(Vector, 2*Lanes)
	MatVecBatch(y, m, x, 3)
	want := Vector{-2, 2, 6, 0, -2, 5, 15, 0}
	if !y.EqualBits(want) {
		t.Fatalf("got %v want %v", y, want)
	}
}

func TestOuterBatchKnown(t *testing.T) {
	gw, gb := NewMatrix(2, 2), make(Vector, 2)
	dz, x := make(Vector, 2*Lanes), make(Vector, 2*Lanes)
	PackLanes(dz, []Vector{{1, 2}, {3, 4}})
	PackLanes(x, []Vector{{3, 4}, {1, -1}})
	OuterBatch(gw, gb, dz, x, 2)
	// dz₀⊗x₀ + dz₁⊗x₁ = [[3 4] [6 8]] + [[3 -3] [4 -4]].
	if want := []float32{6, 1, 10, 4}; !Vector(gw.Data).EqualBits(want) {
		t.Fatalf("gw = %v want %v", gw.Data, want)
	}
	if want := (Vector{4, 6}); !gb.EqualBits(want) {
		t.Fatalf("gb = %v want %v", gb, want)
	}
}

func TestMatVecShapePanics(t *testing.T) {
	m := NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatVec(make(Vector, 3), m, make(Vector, 3))
}

func TestOuterAccumKnown(t *testing.T) {
	m := NewMatrix(2, 2)
	OuterAccum(m, Vector{1, 2}, Vector{3, 4}, 0.5)
	want := []float32{1.5, 2, 3, 4}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("element %d: got %v want %v", i, m.Data[i], w)
		}
	}
	// Accumulation: a second call adds on top.
	OuterAccum(m, Vector{1, 2}, Vector{3, 4}, 0.5)
	for i, w := range want {
		if m.Data[i] != 2*w {
			t.Fatalf("accumulated element %d: got %v want %v", i, m.Data[i], 2*w)
		}
	}
}

func TestAXPY(t *testing.T) {
	dst := Vector{1, 2, 3}
	AXPY(dst, 2, Vector{1, 1, 1})
	want := Vector{3, 4, 5}
	if !dst.EqualBits(want) {
		t.Fatalf("got %v want %v", dst, want)
	}
}

func TestMatAXPY(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float32{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	copy(b.Data, []float32{10, 20, 30, 40})
	MatAXPY(a, 0.1, b)
	want := []float32{2, 4, 6, 8}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("element %d: got %v want %v", i, a.Data[i], w)
		}
	}
}

func TestDotAndSumSquares(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v want 32", got)
	}
	if got := SumSquares(a); got != 14 {
		t.Fatalf("SumSquares = %v want 14", got)
	}
}

func TestTanhAndGrad(t *testing.T) {
	x := Vector{0, 1, -1}
	y := make(Vector, 3)
	Tanh(y, x)
	if y[0] != 0 {
		t.Fatalf("tanh(0) = %v", y[0])
	}
	if math.Abs(float64(y[1])-math.Tanh(1)) > 1e-6 {
		t.Fatalf("tanh(1) = %v", y[1])
	}
	g := Vector{1, 1, 1}
	dst := make(Vector, 3)
	TanhGrad(dst, g, y)
	if dst[0] != 1 {
		t.Fatalf("tanh'(0) = %v want 1", dst[0])
	}
	for i := 1; i < 3; i++ {
		want := 1 - y[i]*y[i]
		if dst[i] != want {
			t.Fatalf("grad[%d] = %v want %v", i, dst[i], want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
	v := Vector{1, 2}
	cv := v.Clone()
	cv[0] = 9
	if v[0] != 1 {
		t.Fatal("Vector Clone shares storage")
	}
}

func TestEqualAndChecksum(t *testing.T) {
	r := rng.New(1)
	a := randMat(r, 4, 5)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not Equal")
	}
	if a.Checksum() != b.Checksum() {
		t.Fatal("clone checksum differs")
	}
	b.Data[7] += 1e-7
	if a.Equal(b) {
		t.Fatal("perturbed matrix compares Equal")
	}
	if a.Checksum() == b.Checksum() {
		t.Fatal("perturbed matrix has equal checksum")
	}
}

func TestChecksumShapeSensitive(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 2)
	if a.Checksum() == b.Checksum() {
		t.Fatal("checksum ignores shape")
	}
}

func TestCombineChecksumsOrderSensitive(t *testing.T) {
	a := CombineChecksums([]uint64{1, 2, 3})
	b := CombineChecksums([]uint64{3, 2, 1})
	if a == b {
		t.Fatal("CombineChecksums is order-insensitive")
	}
	if a != CombineChecksums([]uint64{1, 2, 3}) {
		t.Fatal("CombineChecksums not deterministic")
	}
}

// Property: MatVec is linear: M(ax + by) == a·Mx + b·My within float32
// tolerance (exact equality cannot hold due to different summation
// groupings, so compare with a relative epsilon).
func TestQuickMatVecLinear(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		rows, cols := 3+r.Intn(6), 3+r.Intn(6)
		m := randMat(r, rows, cols)
		x, y := randVec(r, cols), randVec(r, cols)
		a, b := r.NormFloat32(), r.NormFloat32()
		combo := make(Vector, cols)
		for i := range combo {
			combo[i] = a*x[i] + b*y[i]
		}
		lhs := make(Vector, rows)
		MatVec(lhs, m, combo)
		mx, my := make(Vector, rows), make(Vector, rows)
		MatVec(mx, m, x)
		MatVec(my, m, y)
		for i := 0; i < rows; i++ {
			rhs := a*mx[i] + b*my[i]
			if math.Abs(float64(lhs[i]-rhs)) > 1e-3*(1+math.Abs(float64(rhs))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the transpose identity ⟨Mx, y⟩ == ⟨x, Mᵀy⟩ holds within
// tolerance for random shapes and every item of a batch.
func TestQuickTransposeAdjoint(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		rows, cols, n := 2+r.Intn(8), 2+r.Intn(8), 1+r.Intn(6)
		m := randMat(r, rows, cols)
		x, y := randVec(r, Groups(n)*Lanes*cols), randVec(r, Groups(n)*Lanes*rows)
		mx := make(Vector, len(y))
		MatVecBatch(mx, m, x, n)
		mty := make(Vector, len(x))
		MatTVecBatch(mty, m, y, n)
		lhs, rhs := Dot(mx, y), Dot(x, mty)
		return math.Abs(float64(lhs-rhs)) <= 1e-3*(1+math.Abs(float64(rhs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: checksum distinguishes any single-bit flip.
func TestQuickChecksumSensitivity(t *testing.T) {
	f := func(seed uint64, idxRaw uint8) bool {
		r := rng.New(seed)
		v := randVec(r, 16)
		sum := v.Checksum()
		i := int(idxRaw) % len(v)
		bits := math.Float32bits(v[i]) ^ 1
		w := v.Clone()
		w[i] = math.Float32frombits(bits)
		return w.Checksum() != sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MatVec is bitwise deterministic — same inputs, same bits.
func TestQuickMatVecDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := randMat(r, 6, 7)
		x := randVec(r, 7)
		a, b := make(Vector, 6), make(Vector, 6)
		MatVec(a, m, x)
		MatVec(b, m, x)
		return a.EqualBits(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatVec64(b *testing.B) {
	r := rng.New(1)
	m := randMat(r, 64, 64)
	x := randVec(r, 64)
	dst := make(Vector, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(dst, m, x)
	}
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

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
