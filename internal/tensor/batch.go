package tensor

import "fmt"

// Lanes is the number of batch items a lane group holds. A batch of n
// items of dim elements each is held as Groups(n) groups of dim × Lanes
// floats: element j of item i is at LaneAt(dim, i, j), so one SIMD
// register holds element j of a group's items. When n is not a multiple
// of Lanes the last group's top lanes are dead: MatVecBatch and
// MatTVecBatch compute them like any other lane, TanhBatch sets them to
// 0, and OuterBatch leaves them out of its sums.
const Lanes = 4

// Groups returns the number of lane groups n items fill.
func Groups(n int) int { return (n + Lanes - 1) / Lanes }

// LaneAt returns the index of element j of item i in a lane buffer of
// dim-element items.
func LaneAt(dim, i, j int) int { return (i/Lanes*dim+j)*Lanes + i%Lanes }

// PackLanes writes items (each of len(dst)/(Groups(len(items))·Lanes)
// elements) into the lane buffer dst and zeroes its dead lanes.
func PackLanes(dst Vector, items []Vector) {
	if len(items) == 0 || len(dst)%(Groups(len(items))*Lanes) != 0 {
		panic(fmt.Sprintf("tensor: PackLanes of %d items into %d elements", len(items), len(dst)))
	}
	dim := len(dst) / (Groups(len(items)) * Lanes)
	for i := len(items); i%Lanes != 0; i++ {
		for j := 0; j < dim; j++ {
			dst[LaneAt(dim, i, j)] = 0
		}
	}
	for i, v := range items {
		for j, f := range v[:dim] {
			dst[LaneAt(dim, i, j)] = f
		}
	}
}

// TanhBatch sets y = Tanh(y) for the n items of the lane buffer y of
// dim-element items and sets its dead lanes to 0. Full groups run
// Tanh. Tanh costs per element, so a part-full group of one or two items
// runs it on the first two lanes of its rows only (tanhPairs), and one
// of three on the whole group. Zeroed, the dead lanes stay 0 from block
// to block.
func TanhBatch(y Vector, dim, n int) {
	checkBatch("TanhBatch", n, y, dim)
	full := n / Lanes * dim * Lanes
	if full > 0 {
		Tanh(y[:full], y[:full])
	}
	live := n % Lanes
	if live == 0 {
		return
	}
	last := y[full : full+dim*Lanes]
	if live > 2 {
		Tanh(last, last)
	} else {
		tanhPairs(last, dim)
	}
	for j := 0; j < dim; j++ {
		w := last[j*Lanes : (j+1)*Lanes : (j+1)*Lanes]
		for l := live; l < Lanes; l++ {
			w[l] = 0
		}
	}
}

// tanhPairsGo is the portable tanhPairs: Tanh in place on the first two
// lanes of each of the lane group g's rows.
func tanhPairsGo(g Vector, rows int) {
	for j := range rows {
		w := g[j*Lanes : j*Lanes+2]
		tanhGo(w, w)
	}
}

// checkBatch panics unless n is a positive item count, k a positive
// item size and the lane buffer buf holds exactly the groups of n items
// of k elements.
func checkBatch(op string, n int, buf Vector, k int) {
	if n <= 0 || k <= 0 || len(buf) != Groups(n)*k*Lanes {
		panic(fmt.Sprintf("tensor: %s buffer of %d elements for %d items of %d", op, len(buf), n, k))
	}
}

// MatVecBatch computes y = m·x for the n items of the lane buffers x
// (m.Cols elements per item) and y (m.Rows per item), dead lanes
// included. Each output sums its columns in ascending order from +0, the
// products and order of MatVec on that item. y and x must not overlap
// (checked).
func MatVecBatch(y Vector, m *Matrix, x Vector, n int) {
	m.checkData("MatVecBatch")
	checkBatch("MatVecBatch", n, x, m.Cols)
	checkBatch("MatVecBatch", n, y, m.Rows)
	if slicesOverlap(y, x) {
		panic("tensor: MatVecBatch y aliases x")
	}
	matVecBatch(y, m, x, Groups(n))
}

// MatTVecBatch computes dx = mᵀ·dz for the n items of the lane buffers dz
// (m.Rows elements per item) and dx (m.Cols per item), dead lanes
// included. Each output sums its rows in ascending order from +0. dx and
// dz must not overlap (checked).
func MatTVecBatch(dx Vector, m *Matrix, dz Vector, n int) {
	m.checkData("MatTVecBatch")
	checkBatch("MatTVecBatch", n, dz, m.Rows)
	checkBatch("MatTVecBatch", n, dx, m.Cols)
	if slicesOverlap(dx, dz) {
		panic("tensor: MatTVecBatch dx aliases dz")
	}
	matTVecBatch(dx, m, dz, Groups(n))
}

// OuterBatch sets gw[r][c] to the sum over the n items of the lane
// buffers dz (gw.Rows elements per item) and x (gw.Cols per item) of
// dzᵢ[r]·xᵢ[c], and gb[r] to the sum of dzᵢ[r]: each sum starts from +0
// and adds items in order, so it is bitwise what zeroing gw and gb and
// accumulating item by item gives. The dead lanes past n are in no sum.
// gw and gb are written, never read; neither may overlap an operand or
// the other (checked).
func OuterBatch(gw *Matrix, gb Vector, dz, x Vector, n int) {
	gw.checkData("OuterBatch")
	checkBatch("OuterBatch", n, dz, gw.Rows)
	checkBatch("OuterBatch", n, x, gw.Cols)
	if len(gb) != gw.Rows {
		panic(fmt.Sprintf("tensor: OuterBatch gb of %d for %d rows", len(gb), gw.Rows))
	}
	for _, v := range []Vector{dz, x, gb} {
		if slicesOverlap(gw.Data, v) {
			panic("tensor: OuterBatch gw aliases an operand")
		}
	}
	if slicesOverlap(gb, dz) || slicesOverlap(gb, x) {
		panic("tensor: OuterBatch gb aliases an operand")
	}
	outerBatch(gw, dz, x, n)
	sumBatch(gb, dz, n)
}

// group returns lane group g of buf, whose items have k elements.
func group(buf Vector, g, k int) Vector { return buf[g*k*Lanes:][:k*Lanes] }

// matVecBatchGo is the portable MatVecBatch kernel over groups lane
// groups.
func matVecBatchGo(y Vector, m *Matrix, x Vector, groups int) {
	for g := range groups {
		matVecGroupGo(group(y, g, m.Rows), m, group(x, g, m.Cols), 0, m.Rows, 0)
	}
}

// matTVecBatchGo is the portable MatTVecBatch kernel over groups lane
// groups.
func matTVecBatchGo(dx Vector, m *Matrix, dz Vector, groups int) {
	for g := range groups {
		matTVecGroupGo(group(dx, g, m.Cols), m, group(dz, g, m.Rows), 0, m.Cols)
	}
}

// matVecGroupGo computes rows [lo, hi) of one group of y = m·x over
// columns [from, Cols). From column 0 each lane's sum starts at +0;
// from a later column it continues the partial sum y holds. The four
// lanes are four independent chains.
func matVecGroupGo(y Vector, m *Matrix, x Vector, lo, hi, from int) {
	cols := m.Cols
	xs := x[from*Lanes : cols*Lanes]
	for r := lo; r < hi; r++ {
		row := m.Data[r*cols+from : (r+1)*cols][:len(xs)/Lanes]
		yw := y[r*Lanes : r*Lanes+Lanes : r*Lanes+Lanes]
		var s0, s1, s2, s3 float32
		if from > 0 {
			s0, s1, s2, s3 = yw[0], yw[1], yw[2], yw[3]
		}
		for c, w := range row {
			xw := xs[c*Lanes : c*Lanes+Lanes : c*Lanes+Lanes]
			s0 += float32(w * xw[0])
			s1 += float32(w * xw[1])
			s2 += float32(w * xw[2])
			s3 += float32(w * xw[3])
		}
		yw[0], yw[1], yw[2], yw[3] = s0, s1, s2, s3
	}
}

// matTVecGroupGo computes columns [lo, hi) of one group of dx = mᵀ·dz,
// each lane adding rows in ascending order from +0.
func matTVecGroupGo(dx Vector, m *Matrix, dz Vector, lo, hi int) {
	cols := m.Cols
	dz = dz[:m.Rows*Lanes]
	for c := lo; c < hi; c++ {
		var s0, s1, s2, s3 float32
		for r := 0; r < m.Rows; r++ {
			w := m.Data[r*cols+c]
			dw := dz[r*Lanes : r*Lanes+Lanes : r*Lanes+Lanes]
			s0 += float32(w * dw[0])
			s1 += float32(w * dw[1])
			s2 += float32(w * dw[2])
			s3 += float32(w * dw[3])
		}
		dxw := dx[c*Lanes : c*Lanes+Lanes : c*Lanes+Lanes]
		dxw[0], dxw[1], dxw[2], dxw[3] = s0, s1, s2, s3
	}
}

// outerBatchGo computes columns [lo, hi) of OuterBatch's gw: per row,
// four columns per pass, each summing the n items in order from +0.
func outerBatchGo(gw *Matrix, dz, x Vector, n, lo, hi int) {
	rows, cols := gw.Rows, gw.Cols
	for r := 0; r < rows; r++ {
		out := gw.Data[r*cols : (r+1)*cols]
		c := lo
		for ; c+4 <= hi; c += 4 {
			var s0, s1, s2, s3 float32
			for i := 0; i < n; i++ {
				d := dz[(i/Lanes*rows+r)*Lanes+i%Lanes]
				k := (i/Lanes*cols+c)*Lanes + i%Lanes
				xw := x[k : k+3*Lanes+1 : k+3*Lanes+1]
				s0 += float32(d * xw[0])
				s1 += float32(d * xw[Lanes])
				s2 += float32(d * xw[2*Lanes])
				s3 += float32(d * xw[3*Lanes])
			}
			ow := out[c : c+4 : c+4]
			ow[0], ow[1], ow[2], ow[3] = s0, s1, s2, s3
		}
		for ; c < hi; c++ {
			var s float32
			for i := 0; i < n; i++ {
				s += float32(dz[(i/Lanes*rows+r)*Lanes+i%Lanes] * x[(i/Lanes*cols+c)*Lanes+i%Lanes])
			}
			out[c] = s
		}
	}
}

// sumBatch sets gb[r] to the sum of the first n items' dz[r], in item
// order from +0, one group after another. A row's adds are one chain,
// so four rows share a pass to overlap four chains.
func sumBatch(gb, dz Vector, n int) {
	rows := len(gb)
	for g := 0; g*Lanes < n; g++ {
		live := min(n-g*Lanes, Lanes)
		dg := group(dz, g, rows)
		r := 0
		for ; r+4 <= rows; r += 4 {
			gw := gb[r : r+4 : r+4]
			var s0, s1, s2, s3 float32
			if g > 0 {
				s0, s1, s2, s3 = gw[0], gw[1], gw[2], gw[3]
			}
			w := dg[r*Lanes : (r+4)*Lanes : (r+4)*Lanes]
			for l := range live {
				s0 += w[l]
				s1 += w[Lanes+l]
				s2 += w[2*Lanes+l]
				s3 += w[3*Lanes+l]
			}
			gw[0], gw[1], gw[2], gw[3] = s0, s1, s2, s3
		}
		for ; r < rows; r++ {
			var s float32
			if g > 0 {
				s = gb[r]
			}
			for _, v := range dg[r*Lanes : r*Lanes+live] {
				s += v
			}
			gb[r] = s
		}
	}
}
