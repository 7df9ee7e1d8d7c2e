package tensor

import "math"

// The tanh kernel. Every layer's forward pass ends in Tanh, so its bits
// are checksum arithmetic like any product or sum: the package owns the
// function instead of calling libm, whose amd64 Exp is assembly picked
// at run time by CPUID. The contract is bit-equality with
// float32(math.Tanh(float64(x))) as amd64 computes it, checked on all
// 2³² float32 inputs by the exhaustive test (go test -tags exhaustive).
//
// The method is RLIBM's (Lim & Nagarakatte, POPL 2021): build the
// approximation for the float32 result, then check it on every float32
// input. Each element is first evaluated in float64 as t, with relative
// error below 2⁻⁴⁴:
//
//   - |x| < 1/16: the odd Taylor polynomial x + x³p(x²), so that
//     1 − e^(−2|x|) never cancels. Below 2⁻¹³ its correction is under
//     half a float32 ulp, so a tiny x comes back exactly.
//   - |x| ≥ 9.1: ±1, which every such input rounds to.
//   - otherwise: e = e^(−2|x|) from a 32-entry 2^(j/32) table and a
//     degree-5 polynomial, then t = (1 − e)/(1 + e).
//
// Rounding t·(1 ∓ 2⁻³⁶) to float32 brackets the reference, whose own
// error is a few float64 ulps: when both ends round alike, so does the
// reference. An element whose ends differ sits within 2⁻³⁶ of a float32
// rounding boundary (or is a NaN) and takes tanhPort, a port of the
// standard library's portable tanh and exp. Both kernel paths — SSE2
// assembly on amd64 outside race builds, tanhGo elsewhere — evaluate t
// by the same operations in the same order, so they agree bit for bit
// before the guard, and each product is written float64(a*b), which no
// target may fuse.

const (
	signBit = 1 << 63

	tanhPolyMax = 0x1p-4 // below this |x|, the odd polynomial
	tanhOneMin  = 9.1    // at and above this |x|, ±1

	// The odd Taylor coefficients of tanh: x − x³/3 + 2x⁵/15 − 17x⁷/315
	// + 62x⁹/2835. The first omitted term is below 2⁻⁴⁶ of x.
	tanhC3 = -1.0 / 3
	tanhC5 = 2.0 / 15
	tanhC7 = -17.0 / 315
	tanhC9 = 62.0 / 2835

	// e^y = 2^(n/32) · e^r with n = round(32y/ln 2), r = y − n·ln2/32
	// and |r| ≤ ln2/64. Adding expShift rounds to an integer held in the
	// low mantissa bits; ln2/32 is split so n·expStepHi is exact.
	expShift    = 0x1.8p52
	expInvStep  = 32 / math.Ln2
	expStepHi   = 6.93147180369123816490e-01 / 32
	expStepLo   = 1.90821492927058770002e-10 / 32
	expShiftLow = 0x4338000000000000 // math.Float64bits(expShift)

	// Degree-5 Taylor polynomial of e^r; on |r| ≤ ln2/64 its error is
	// under 2⁻⁴⁸.
	expQ2 = 1.0 / 2
	expQ3 = 1.0 / 6
	expQ4 = 1.0 / 24
	expQ5 = 1.0 / 120

	// The guard: t's error is far below 2⁻³⁶ of t.
	tanhGuardLo = 1 - 0x1p-36
	tanhGuardHi = 1 + 0x1p-36
)

// expTable holds 2^(j/32) for j < 32, correctly rounded to float64
// (the square root of 2^j taken five times at 300 bits).
var expTable = [32]uint64{
	0x3ff0000000000000, 0x3ff059b0d3158574, 0x3ff0b5586cf9890f, 0x3ff11301d0125b51,
	0x3ff172b83c7d517b, 0x3ff1d4873168b9aa, 0x3ff2387a6e756238, 0x3ff29e9df51fdee1,
	0x3ff306fe0a31b715, 0x3ff371a7373aa9cb, 0x3ff3dea64c123422, 0x3ff44e086061892d,
	0x3ff4bfdad5362a27, 0x3ff5342b569d4f82, 0x3ff5ab07dd485429, 0x3ff6247eb03a5585,
	0x3ff6a09e667f3bcd, 0x3ff71f75e8ec5f74, 0x3ff7a11473eb0187, 0x3ff82589994cce13,
	0x3ff8ace5422aa0db, 0x3ff93737b0cdc5e5, 0x3ff9c49182a3f090, 0x3ffa5503b23e255d,
	0x3ffae89f995ad3ad, 0x3ffb7f76f2fb5e47, 0x3ffc199bdd85529c, 0x3ffcb720dcef9069,
	0x3ffd5818dcfba487, 0x3ffdfc97337b9b5f, 0x3ffea4afa2a490da, 0x3fff50765b6e4540,
}

// Tanh applies tanh elementwise into dst. x may be dst itself but may
// not overlap it otherwise (checked).
func Tanh(dst, x Vector) {
	if len(dst) != len(x) {
		panic("tensor: Tanh length mismatch")
	}
	if overlapsShifted(dst, x) {
		panic("tensor: Tanh dst overlaps x")
	}
	tanh(dst, x)
}

// tanhApprox returns t, the fast float64 evaluation of tanh(v) described
// at the top of this file. A NaN v gives a NaN t. It takes the float32:
// the conversion then reads the register it writes, where converting
// before the call would wait on whatever that register last held.
func tanhApprox(v float32) float64 {
	x := float64(v)
	a := math.Float64frombits(math.Float64bits(x) &^ signBit)
	var t float64
	switch {
	case a < tanhPolyMax:
		s := float64(a * a)
		p := tanhC7 + float64(s*tanhC9)
		p = tanhC5 + float64(s*p)
		p = tanhC3 + float64(s*p)
		t = a + float64(float64(a*s)*p)
	case a >= tanhOneMin:
		t = 1
	default:
		e := expNeg2(a)
		t = (1 - e) / (1 + e)
	}
	return math.Float64frombits(math.Float64bits(t) | math.Float64bits(x)&signBit)
}

// expNeg2 returns e^(−2a) for tanhPolyMax ≤ a < tanhOneMin.
func expNeg2(a float64) float64 {
	y := float64(-2 * a)
	kf := float64(y*expInvStep) + expShift
	n := math.Float64bits(kf) - expShiftLow // n mod 2⁶⁴, n ∈ [−840, −6]
	nf := kf - expShift
	r := (y - float64(nf*expStepHi)) - float64(nf*expStepLo)
	q := expQ4 + float64(r*expQ5)
	q = expQ3 + float64(r*q)
	q = expQ2 + float64(r*q)
	q = 1 + float64(r*q)
	q = 1 + float64(r*q)
	// 2^(n/32) = 2^(n>>5) · 2^((n&31)/32): add n>>5 to the table entry's
	// exponent, which stays normal.
	scale := math.Float64frombits(expTable[n&31] + (n&^31)<<47)
	return float64(scale * q)
}

// tanhGuarded rounds t to float32 if t·(1 ∓ 2⁻³⁶) round alike, and
// otherwise returns the owned port's result for x.
func tanhGuarded(t float64, x float32) float32 {
	lo, hi := float32(float64(t*tanhGuardLo)), float32(float64(t*tanhGuardHi))
	if lo != hi {
		return float32(tanhPort(float64(x)))
	}
	return lo
}

// tanhGo is the portable Tanh kernel. Four elements share a pass: each
// evaluation is a chain of dependent float64 operations, and four
// independent chains overlap where one would wait out its latency. It
// reads x[i] before it writes dst[i], so dst may be x.
func tanhGo(dst, x Vector) {
	x = x[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		xw := x[i : i+4 : i+4]
		x0, x1, x2, x3 := xw[0], xw[1], xw[2], xw[3]
		t0 := tanhApprox(x0)
		t1 := tanhApprox(x1)
		t2 := tanhApprox(x2)
		t3 := tanhApprox(x3)
		dw := dst[i : i+4 : i+4]
		dw[0] = tanhGuarded(t0, x0)
		dw[1] = tanhGuarded(t1, x1)
		dw[2] = tanhGuarded(t2, x2)
		dw[3] = tanhGuarded(t3, x3)
	}
	for ; i < len(dst); i++ {
		v := x[i]
		dst[i] = tanhGuarded(tanhApprox(v), v)
	}
}

// tanhPort is the standard library's portable tanh (math/tanh.go),
// which math.Tanh runs on every GOARCH but s390x, with each product
// written float64(a*b). It is the slow path for the elements the guard
// sends here: 96 768 finite float32 inputs, and every NaN.
func tanhPort(x float64) float64 {
	const (
		maxLog = 8.8029691931113054295988e+01 // log(2**127)
		p0     = -9.64399179425052238628e-1
		p1     = -9.92877231001918586564e1
		p2     = -1.61468768441708447952e3
		q0     = 1.12811678491632931402e2
		q1     = 2.23548839060100448583e3
		q2     = 4.84406305325125486048e3
	)
	z := math.Float64frombits(math.Float64bits(x) &^ signBit)
	switch {
	case z > 0.5*maxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := expPort(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := float64(x * x)
		num := float64(float64(float64(p0*s)+p1)*s) + p2
		den := float64(float64(float64((s+q0)*s)+q1)*s) + q2
		z = x + float64(float64(x*s)*num)/den
	}
	return z
}

// expPort is the standard library's portable exp (math/exp.go) over the
// arguments tanhPort passes it, 1.25 ≤ x ≤ 88.03: no special case is
// reachable, k = round(x/ln 2) lies in [2, 127], and the final Ldexp is
// an exact multiply by 2^k.
func expPort(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
		log2e = 1.44269504088896338700e+00

		p1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		p2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		p3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		p4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		p5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)
	k := int(float64(log2e*x) + 0.5)
	hi := x - float64(float64(k)*ln2Hi)
	lo := float64(float64(k) * ln2Lo)

	r := hi - lo
	t := float64(r * r)
	c := r - float64(t*(p1+float64(t*(p2+float64(t*(p3+float64(t*(p4+float64(t*p5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	return float64(y * math.Float64frombits(uint64(k+1023)<<52))
}
