//go:build !amd64 || race

package tensor

// fastPath names the kernels MatVec, MatTVec, OuterAccum, AXPY, MatAXPY,
// Tanh and TanhGrad run here: the portable Go loops, as on every GOARCH
// but amd64 and in every race build (the race detector cannot see
// memory that assembly touches).
const fastPath = "go"

func matVec(dst Vector, m *Matrix, x Vector)             { matVecGo(dst, m, x, 0, m.Rows) }
func matTVec(dst Vector, m *Matrix, x Vector)            { matTVecGo(dst, m, x, 0, m.Cols) }
func outerAccum(dst *Matrix, a, b Vector, scale float32) { outerAccumGo(dst, a, b, scale) }
func axpy(d []float32, alpha float32, s []float32)       { axpyGo(d, alpha, s) }
func tanhGrad(dst, g, y Vector)                          { tanhGradGo(dst, g, y) }
func tanh(dst, x Vector)                                 { tanhGo(dst, x) }
