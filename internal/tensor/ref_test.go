package tensor

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"naspipe/internal/rng"
)

// Reference implementations: the pre-optimization sequential kernels and
// hash/fnv-based checksums, kept so the fast paths can be differentially
// tested against them (and benchmarked against them — the *Ref
// benchmarks are the "before" side of BENCH_speed.json, reproducible
// from the final tree). Each product that feeds an add is written
// float32(a*b), as in the kernels, so no target may fuse the pair into
// one rounding and the oracles mean the same on every GOARCH.

func matVecRef(dst Vector, m *Matrix, x Vector) {
	for r := 0; r < m.Rows; r++ {
		var sum float32
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			sum += float32(v * x[c])
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
			dst[c] += float32(v * xr)
		}
	}
}

func outerAccumRef(dst *Matrix, a, b Vector, scale float32) {
	for r := 0; r < dst.Rows; r++ {
		ar := a[r] * scale
		row := dst.Data[r*dst.Cols : (r+1)*dst.Cols]
		for c := range row {
			row[c] += float32(ar * b[c])
		}
	}
}

func axpyRef(dst []float32, alpha float32, x []float32) {
	for i := range dst {
		dst[i] += float32(alpha * x[i])
	}
}

// tanhRef is the libm loop Tanh replaced: the contract it must meet
// bit for bit on every float32 input.
func tanhRef(dst, x Vector) {
	for i, v := range x {
		dst[i] = float32(math.Tanh(float64(v)))
	}
}

func tanhGradRef(dst, g, y Vector) {
	for i := range dst {
		dst[i] = g[i] * (1 - float32(y[i]*y[i]))
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

// kernelPath is one implementation of the dense kernels, entered past
// the exported functions' shape and alias checks.
type kernelPath struct {
	name         string
	matVec       func(dst Vector, m *Matrix, x Vector)
	outerAccum   func(dst *Matrix, a, b Vector, scale float32)
	axpy         func(d []float32, alpha float32, s []float32)
	tanh         func(dst, x Vector)
	tanhGrad     func(dst, g, y Vector)
	tanhPairs    func(g Vector, rows int)
	matVecBatch  func(y Vector, m *Matrix, x Vector, groups int)
	matTVecBatch func(dx Vector, m *Matrix, dz Vector, groups int)
	outerBatch   func(gw *Matrix, dz, x Vector, n int)
}

// kernelPaths returns the kernels this build's exported functions run
// (SSE2 assembly on amd64 outside race builds) and, where those are not
// the Go loops, the Go loops too, so both are tested on amd64.
func kernelPaths() []kernelPath {
	portable := kernelPath{
		name:         "go",
		matVec:       func(dst Vector, m *Matrix, x Vector) { matVecGo(dst, m, x, 0, m.Rows) },
		outerAccum:   outerAccumGo,
		axpy:         axpyGo,
		tanh:         tanhGo,
		tanhGrad:     tanhGradGo,
		tanhPairs:    tanhPairsGo,
		matVecBatch:  matVecBatchGo,
		matTVecBatch: matTVecBatchGo,
		outerBatch:   func(gw *Matrix, dz, x Vector, n int) { outerBatchGo(gw, dz, x, n, 0, gw.Cols) },
	}
	if fastPath == portable.name {
		return []kernelPath{portable}
	}
	return []kernelPath{{fastPath, matVec, outerAccum, axpy, tanh, tanhGrad, tanhPairs, matVecBatch, matTVecBatch, outerBatch}, portable}
}

// checkKernels runs every kernel of one path and its ref_test.go oracle
// on one shape and data set and reports the first whose output differs.
// same decides equality of two output elements.
func checkKernels(k kernelPath, m *Matrix, x, a Vector, acc *Matrix, alpha float32, same func(a, b float32) bool) error {
	rows, cols := m.Rows, m.Cols
	equal := func(got, want []float32) bool {
		for i := range got {
			if !same(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	diverged := func(kernel string) error {
		return fmt.Errorf("%s %s %dx%d diverged from the sequential reference", k.name, kernel, rows, cols)
	}

	got, want := make(Vector, rows), make(Vector, rows)
	k.matVec(got, m, x)
	matVecRef(want, m, x)
	if !equal(got, want) {
		return diverged("MatVec")
	}

	accGot, accWant := acc.Clone(), acc.Clone()
	k.outerAccum(accGot, a, x, alpha)
	outerAccumRef(accWant, a, x, alpha)
	if !equal(accGot.Data, accWant.Data) {
		return diverged("OuterAccum")
	}

	axGot, axWant := acc.Clone(), acc.Clone()
	k.axpy(axGot.Data, alpha, m.Data)
	axpyRef(axWant.Data, alpha, m.Data)
	if !equal(axGot.Data, axWant.Data) {
		return diverged("MatAXPY")
	}

	thGot, thWant := make(Vector, len(m.Data)), make(Vector, len(m.Data))
	k.tanh(thGot, m.Data)
	tanhRef(thWant, m.Data)
	if !equal(thGot, thWant) {
		return diverged("Tanh")
	}
	// In place, as TanhBatch calls it.
	thGot = m.Clone().Data
	k.tanh(thGot, thGot)
	if !equal(thGot, thWant) {
		return diverged("Tanh in place")
	}

	tgGot, tgWant := make(Vector, len(m.Data)), make(Vector, len(m.Data))
	k.tanhGrad(tgGot, m.Data, acc.Data)
	tanhGradRef(tgWant, m.Data, acc.Data)
	if !equal(tgGot, tgWant) {
		return diverged("TanhGrad")
	}
	// In place, as TanhGrad's contract allows.
	tgGot = acc.Clone().Data
	k.tanhGrad(tgGot, m.Data, tgGot)
	tanhGradRef(tgWant, m.Data, acc.Data)
	if !equal(tgGot, tgWant) {
		return diverged("TanhGrad in place")
	}
	return nil
}

func sameBits(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

// sameOrNaN is sameBits, except that any NaN meets any NaN.
func sameOrNaN(a, b float32) bool { return sameBits(a, b) || (a != a && b != b) }

// laneItem returns item i of a lane buffer of dim-element items.
func laneItem(buf Vector, dim, i int) Vector {
	v := make(Vector, dim)
	for j := range v {
		v[j] = buf[LaneAt(dim, i, j)]
	}
	return v
}

// setLaneItem stores v as item i of a lane buffer.
func setLaneItem(buf Vector, i int, v Vector) {
	for j, f := range v {
		buf[LaneAt(len(v), i, j)] = f
	}
}

// matVecBatchRef runs matVecRef on every item of the lane buffer x, dead
// lanes included.
func matVecBatchRef(y Vector, m *Matrix, x Vector) {
	for i := range len(x) / m.Cols {
		out := make(Vector, m.Rows)
		matVecRef(out, m, laneItem(x, m.Cols, i))
		setLaneItem(y, i, out)
	}
}

// matTVecBatchRef runs matTVecRef on every item of the lane buffer dz,
// dead lanes included.
func matTVecBatchRef(dx Vector, m *Matrix, dz Vector) {
	for i := range len(dz) / m.Rows {
		out := make(Vector, m.Cols)
		matTVecRef(out, m, laneItem(dz, m.Rows, i))
		setLaneItem(dx, i, out)
	}
}

// outerBatchRef is the per-item gradient OuterBatch replaced: zero gw
// and gb, then accumulate the first n items in order.
func outerBatchRef(gw *Matrix, gb Vector, dz, x Vector, n int) {
	clear(gw.Data)
	clear(gb)
	for i := 0; i < n; i++ {
		d := laneItem(dz, gw.Rows, i)
		outerAccumRef(gw, d, laneItem(x, gw.Cols, i), 1)
		axpyRef(gb, 1, d)
	}
}

// checkBatchKernels runs the batch kernels of one path and their oracles
// on the m.Cols-element items of x and the m.Rows-element items of dz,
// whose first n items are live, and reports the first output that
// differs. The gradient's buffers start out NaN, so a kernel that reads
// them before writing fails.
func checkBatchKernels(k kernelPath, m *Matrix, x, dz Vector, n int, same func(a, b float32) bool) error {
	equal := func(got, want []float32) bool {
		for i := range got {
			if !same(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	diverged := func(kernel string) error {
		return fmt.Errorf("%s %s %dx%d batch %d diverged from the per-item reference", k.name, kernel, m.Rows, m.Cols, n)
	}
	y, yWant := make(Vector, len(dz)), make(Vector, len(dz))
	k.matVecBatch(y, m, x, Groups(n))
	matVecBatchRef(yWant, m, x)
	if !equal(y, yWant) {
		return diverged("MatVecBatch")
	}
	dx, dxWant := make(Vector, len(x)), make(Vector, len(x))
	k.matTVecBatch(dx, m, dz, Groups(n))
	matTVecBatchRef(dxWant, m, dz)
	if !equal(dx, dxWant) {
		return diverged("MatTVecBatch")
	}
	gw, gb := NewMatrix(m.Rows, m.Cols), make(Vector, m.Rows)
	for i := range gw.Data {
		gw.Data[i] = float32(math.NaN())
	}
	gwWant, gbWant := NewMatrix(m.Rows, m.Cols), make(Vector, m.Rows)
	k.outerBatch(gw, dz, x, n)
	sumBatch(gb, dz, n)
	outerBatchRef(gwWant, gbWant, dz, x, n)
	if !equal(gw.Data, gwWant.Data) || !equal(gb, gbWant) {
		return diverged("OuterBatch")
	}
	return nil
}

// batchShapes are the batch kernels' test shapes: square dims 1–9, 12,
// 13, 16, 64 and 65, and rectangles whose row and column tails differ.
func batchShapes() [][2]int {
	shapes := [][2]int{{3, 5}, {5, 3}, {13, 8}, {8, 13}, {65, 12}, {12, 65}}
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 64, 65} {
		shapes = append(shapes, [2]int{d, d})
	}
	return shapes
}

// specials are the inputs beside normal floats the batch tests mix in:
// zeros of both signs, infinities, a NaN, and subnormals.
var specials = []float32{
	float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.Float32frombits(1), math.Float32frombits(0x80400000), math.Float32frombits(0x007fffff),
}

// TestBatchKernelsMatchReference holds the batch kernels of every path
// to the per-item oracles at batch sizes 1, 2, 3, 4, 5 and 8: bit for
// bit on normal floats, and with −0, ±Inf, NaN and subnormal inputs mixed
// in (a NaN need only meet a NaN). Dead lanes hold NaN, which a
// gradient sum that took them in would show.
func TestBatchKernelsMatchReference(t *testing.T) {
	for _, k := range kernelPaths() {
		r := rng.Labeled(54, "batch")
		for _, shape := range batchShapes() {
			m := randMat(r, shape[0], shape[1])
			for _, n := range []int{1, 2, 3, 4, 5, 8} {
				x := randVec(r, Groups(n)*Lanes*m.Cols)
				dz := randVec(r, Groups(n)*Lanes*m.Rows)
				for i := n; i < Groups(n)*Lanes; i++ {
					for j := 0; j < m.Cols; j++ {
						x[LaneAt(m.Cols, i, j)] = float32(math.NaN())
					}
					for j := 0; j < m.Rows; j++ {
						dz[LaneAt(m.Rows, i, j)] = float32(math.NaN())
					}
				}
				if err := checkBatchKernels(k, m, x, dz, n, sameBits); err != nil {
					t.Fatal(err)
				}
				ms, xs, dzs := m.Clone(), x.Clone(), dz.Clone()
				for _, v := range [][]float32{ms.Data, xs, dzs} {
					for i := range v {
						if i%3 == 0 {
							v[i] = specials[(i/3)%len(specials)]
						}
					}
				}
				if err := checkBatchKernels(k, ms, xs, dzs, n, sameOrNaN); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestTanhBatch holds TanhBatch to the libm loop on every live element,
// at dims 1–9, 12, 13, 16, 64 and 65 and batch sizes 1, 2, 3, 4, 5 and
// 8 with −0, ±Inf, NaN and subnormal inputs mixed in, and pins its dead
// lanes at 0 and its calls allocation-free.
func TestTanhBatch(t *testing.T) {
	r := rng.Labeled(55, "tanh")
	for _, shape := range batchShapes() {
		dim := shape[1]
		for _, n := range []int{1, 2, 3, 4, 5, 8} {
			y := randVec(r, Groups(n)*Lanes*dim)
			for i := range y {
				if i%5 == 0 {
					y[i] = specials[(i/5)%len(specials)]
				}
			}
			want := make(Vector, len(y))
			tanhRef(want, y)
			TanhBatch(y, dim, n)
			for i := range Groups(n) * Lanes {
				for j := 0; j < dim; j++ {
					k := LaneAt(dim, i, j)
					if i < n && !sameOrNaN(y[k], want[k]) || i >= n && math.Float32bits(y[k]) != 0 {
						t.Fatalf("dim %d batch %d: item %d element %d = %v, want %v (dead lanes 0)", dim, n, i, j, y[k], want[k])
					}
				}
			}
			if got := testing.AllocsPerRun(5, func() { TanhBatch(y, dim, n) }); got != 0 {
				t.Fatalf("dim %d batch %d: TanhBatch allocated %v times", dim, n, got)
			}
		}
	}
}

// TestOuterBatchNegativeZero pins the write-only gradient's seed: every
// product −0 (or, with mixed signs, ±0) sums to +0, as it did on a
// zeroed buffer, and never to −0.
func TestOuterBatchNegativeZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, k := range kernelPaths() {
		for _, n := range []int{1, 2, 3, 5} {
			m := NewMatrix(6, 6)
			x, dz := make(Vector, Groups(n)*Lanes*6), make(Vector, Groups(n)*Lanes*6)
			for i := range x {
				x[i], dz[i] = 1, negZero
			}
			if err := checkBatchKernels(k, m, x, dz, n, sameBits); err != nil {
				t.Fatal(err)
			}
			gw, gb := NewMatrix(6, 6), make(Vector, 6)
			k.outerBatch(gw, dz, x, n)
			sumBatch(gb, dz, n)
			for _, v := range append(gw.Data, gb...) {
				if math.Float32bits(v) != 0 {
					t.Fatalf("%s batch %d: a sum of −0 products is %v (bits %#x), want +0", k.name, n, v, math.Float32bits(v))
				}
			}
		}
	}
}

// TestKernelsMatchReference proves every kernel of every path produces
// bitwise-identical output to its sequential reference on every shape:
// the Definition 1 obligation that lets the rest of the system run the
// kernels on any stage goroutine, any host and any GOARCH.
func TestKernelsMatchReference(t *testing.T) {
	for _, k := range kernelPaths() {
		r := rng.Labeled(99, "kernels")
		for _, shape := range kernelShapes() {
			rows, cols := shape[0], shape[1]
			m := randMat(r, rows, cols)
			x, a := randVec(r, cols), randVec(r, rows)
			if err := checkKernels(k, m, x, a, randMat(r, rows, cols), 0.25, sameBits); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestKernelsDoNotAllocate pins the dense kernels of every path
// allocation-free at 512×512 (eight times the largest dim any workload
// trains at), the batch kernels on 5 items, at whatever GOMAXPROCS the
// test runs with.
func TestKernelsDoNotAllocate(t *testing.T) {
	const n = 512
	r := rng.Labeled(5, "allocs")
	m, acc := randMat(r, n, n), randMat(r, n, n)
	x, dst := randVec(r, n), make(Vector, n)
	const items = 5 // a full group and a part-dead one
	xb, yb := randVec(r, Groups(items)*Lanes*n), make(Vector, Groups(items)*Lanes*n)
	for _, k := range kernelPaths() {
		for name, kernel := range map[string]func(){
			"MatVec":       func() { k.matVec(dst, m, x) },
			"OuterAccum":   func() { k.outerAccum(acc, x, x, 1e-3) },
			"AXPY":         func() { k.axpy(dst, 1e-3, x) },
			"MatAXPY":      func() { k.axpy(acc.Data, 1e-3, m.Data) },
			"Tanh":         func() { k.tanh(dst, x) },
			"TanhGrad":     func() { k.tanhGrad(dst, x, dst) },
			"TanhPairs":    func() { k.tanhPairs(yb[:n*Lanes], n) },
			"MatVecBatch":  func() { k.matVecBatch(yb, m, xb, Groups(items)) },
			"MatTVecBatch": func() { k.matTVecBatch(yb, m, xb, Groups(items)) },
			"OuterBatch":   func() { k.outerBatch(acc, xb, yb, items) },
		} {
			if got := testing.AllocsPerRun(20, kernel); got != 0 {
				t.Errorf("%s %s %dx%d: %v allocs/op, want 0", k.name, name, n, n, got)
			}
		}
	}
}

// FuzzKernels checks every kernel of every path against its oracle on
// fuzzed shapes and fuzzed float bit patterns, infinities, NaNs and
// subnormals included. Finite results must match bit for bit. A NaN need
// only meet a NaN: which operand's payload an add propagates is the
// hardware's choice, and Definition 1 is about finite weights.
func FuzzKernels(f *testing.F) {
	f.Add(uint8(5), uint8(7), uint8(3), []byte{0, 0, 128, 63, 0, 0, 0, 192})
	f.Add(uint8(66), uint8(131), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(201), uint8(254), uint8(1), []byte{205, 204, 76, 62, 154, 153, 25, 191})
	f.Add(uint8(4), uint8(4), uint8(6), []byte{0, 0, 128, 127, 0, 0, 192, 127, 1, 0, 0, 0})
	f.Add(uint8(63), uint8(63), uint8(3), []byte{0, 0, 0, 128, 1, 0, 0, 0, 0, 0, 128, 255})
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw, nRaw uint8, raw []byte) {
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
		x, a := vec(cols), vec(rows)
		acc := mat()
		alpha := next()
		// Up to 8 items, so a batch spans a full and a part-dead group.
		n := int(nRaw)%8 + 1
		xb, dz := vec(Groups(n)*Lanes*cols), vec(Groups(n)*Lanes*rows)
		for _, k := range kernelPaths() {
			if err := checkKernels(k, m, x, a, acc, alpha, sameOrNaN); err != nil {
				t.Fatal(err)
			}
			if err := checkBatchKernels(k, m, xb, dz, n, sameOrNaN); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestChecksumMatchesFNVReference pins the inlined FNV-64a loops to the
// hash/fnv implementation they replaced: same byte stream, same digest.
func TestChecksumMatchesFNVReference(t *testing.T) {
	r := rng.Labeled(7, "checksum")
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
	// Four chains at once, over unequal shapes so each chain also runs
	// past the common length on its own.
	ms := [4]*Matrix{randMat(r, 12, 12), randMat(r, 3, 5), randMat(r, 12, 12), randMat(r, 37, 53)}
	for k, got := range Checksum4(ms[0], ms[1], ms[2], ms[3]) {
		if want := matrixChecksumRef(ms[k]); got != want {
			t.Fatalf("Checksum4 chain %d (%dx%d) = %#x, reference %#x", k, ms[k].Rows, ms[k].Cols, got, want)
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
	buf := make(Vector, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("MatTVecBatch with aliased dx/dz did not panic")
		}
	}()
	MatTVecBatch(buf, m, buf, 4)
}

// TestBatchKernelsPanic pins the batch kernels' checks: an aliased
// operand, a buffer that is not whole groups, a live count outside the
// last group, a matrix with no rows or columns, and a gradient that
// overlaps its inputs all panic.
func TestBatchKernelsPanic(t *testing.T) {
	m := NewMatrix(4, 4)
	buf := make(Vector, 64)
	for name, call := range map[string]func(){
		"MatVecBatch alias":     func() { MatVecBatch(buf[:16], m, buf[8:24], 4) },
		"MatVecBatch short x":   func() { MatVecBatch(buf[:16], m, buf[16:30], 4) },
		"MatTVecBatch shape":    func() { MatTVecBatch(buf[:16], m, buf[16:48], 5) },
		"MatVecBatch no items":  func() { MatVecBatch(buf[:16], m, buf[16:32], 0) },
		"OuterBatch short gb":   func() { OuterBatch(NewMatrix(4, 4), buf[:3], buf[16:32], buf[32:48], 4) },
		"OuterBatch n too big":  func() { OuterBatch(NewMatrix(4, 4), buf[:4], buf[16:32], buf[32:48], 5) },
		"OuterBatch n too low":  func() { OuterBatch(NewMatrix(4, 4), buf[:4], buf[16:48], buf[32:64], 4) },
		"OuterBatch gw alias":   func() { OuterBatch(&Matrix{Rows: 4, Cols: 4, Data: buf[:16]}, buf[48:52], buf[8:24], buf[24:40], 4) },
		"OuterBatch gb alias":   func() { OuterBatch(NewMatrix(4, 4), buf[20:24], buf[16:32], buf[32:48], 4) },
		"PackLanes ragged dst":  func() { PackLanes(buf[:10], []Vector{buf[20:23]}) },
		"TanhBatch n too big":   func() { TanhBatch(buf[:16], 4, 5) },
		"TanhBatch n too low":   func() { TanhBatch(buf[:32], 4, 4) },
		"PackLanes empty batch": func() { PackLanes(buf[:16], nil) },
		"MatVecBatch no rows":   func() { MatVecBatch(nil, &Matrix{Cols: 4}, buf[16:32], 4) },
		"MatTVecBatch no rows":  func() { MatTVecBatch(buf[:16], &Matrix{Cols: 4}, nil, 4) },
		"OuterBatch no rows":    func() { OuterBatch(&Matrix{Cols: 4}, nil, nil, buf[16:32], 4) },
		"MatTVecBatch no cols":  func() { MatTVecBatch(nil, &Matrix{Rows: 4}, buf[16:32], 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestPackLanes pins the lane layout: item i's element j lands at
// LaneAt(dim, i, j) and dead lanes are zeroed.
func TestPackLanes(t *testing.T) {
	items := []Vector{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}, {13, 14, 15}}
	dst := make(Vector, Groups(len(items))*Lanes*3)
	for i := range dst {
		dst[i] = -1
	}
	PackLanes(dst, items)
	want := Vector{1, 4, 7, 10, 2, 5, 8, 11, 3, 6, 9, 12, 13, 0, 0, 0, 14, 0, 0, 0, 15, 0, 0, 0}
	if !dst.EqualBits(want) {
		t.Fatalf("PackLanes = %v, want %v", dst, want)
	}
}

// TestDistinctSlicesDoNotTriggerAliasCheck guards against false positives:
// adjacent but non-overlapping views of one backing array are legal.
func TestDistinctSlicesDoNotTriggerAliasCheck(t *testing.T) {
	m := NewMatrix(4, 4)
	buf := make(Vector, 34)
	MatVec(buf[:4], m, buf[4:8])
	MatVecBatch(buf[:16], m, buf[16:32], 4)
	MatTVecBatch(buf[16:32], m, buf[:16], 4)
	OuterBatch(&Matrix{Rows: 2, Cols: 4, Data: buf[:8]}, buf[8:10], buf[10:18], buf[18:34], 4)
}

// TestShiftedOverlapPanics pins the elementwise kernels' alias rule: dst
// may be an operand itself, but an overlap at an offset would make the
// result depend on how many elements a pass loads before it stores, so
// it panics on every path.
func TestShiftedOverlapPanics(t *testing.T) {
	buf := make(Vector, 16)
	m := &Matrix{Rows: 2, Cols: 4, Data: buf[:8]}
	shifted := &Matrix{Rows: 2, Cols: 4, Data: buf[1:9]}
	for name, call := range map[string]func(){
		"AXPY":       func() { AXPY(buf[:8], 2, buf[1:9]) },
		"MatAXPY":    func() { MatAXPY(m, 2, shifted) },
		"Tanh":       func() { Tanh(buf[:8], buf[3:11]) },
		"TanhGrad":   func() { TanhGrad(buf[:8], buf[8:], buf[2:10]) },
		"OuterAccum": func() { OuterAccum(m, buf[8:10], buf[6:10], 1) },
		"short Data": func() { MatVec(buf[8:10], &Matrix{Rows: 2, Cols: 4, Data: buf[:7]}, buf[10:14]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
	// The same slice on both sides is legal.
	AXPY(buf[:8], 2, buf[:8])
	MatAXPY(m, 2, m)
	TanhGrad(buf[:8], buf[:8], buf[:8])
	Tanh(buf[:8], buf[:8])
}
