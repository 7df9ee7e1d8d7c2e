//go:build !amd64 || race

package tensor

// fastPath names the kernels MatVec, OuterAccum, the three batch
// kernels, AXPY, MatAXPY, Tanh and TanhGrad run here: the portable Go
// loops, as on every GOARCH but amd64 and in every race build (the race
// detector cannot see memory that assembly touches).
const fastPath = "go"

func matVec(dst Vector, m *Matrix, x Vector)                   { matVecGo(dst, m, x, 0, m.Rows) }
func outerAccum(dst *Matrix, a, b Vector, scale float32)       { outerAccumGo(dst, a, b, scale) }
func axpy(d []float32, alpha float32, s []float32)             { axpyGo(d, alpha, s) }
func tanhGrad(dst, g, y Vector)                                { tanhGradGo(dst, g, y) }
func tanh(dst, x Vector)                                       { tanhGo(dst, x) }
func tanhPairs(g Vector, rows int)                             { tanhPairsGo(g, rows) }
func matVecBatch(y Vector, m *Matrix, x Vector, groups int)    { matVecBatchGo(y, m, x, groups) }
func matTVecBatch(dx Vector, m *Matrix, dz Vector, groups int) { matTVecBatchGo(dx, m, dz, groups) }
func outerBatch(gw *Matrix, dz, x Vector, n int)               { outerBatchGo(gw, dz, x, n, 0, gw.Cols) }
