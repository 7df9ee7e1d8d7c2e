package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// tanhScan is the result of checking Tanh over a set of float32 inputs.
type tanhScan struct {
	inputs    uint64 // inputs checked
	fallbacks uint64 // non-NaN inputs whose guard sent them to tanhPort
	err       error  // the first mismatch, if any
}

// scanTanh checks both kernel paths (into a separate dst and in place)
// and tanhPort against tanhRef, bit for bit, on the inputs 0, stride,
// 2·stride, … below 2³² (every input when stride is 1), plus ±0, the
// extremes of each class and a sample of NaN payloads. Chunks of 64
// inputs go to GOMAXPROCS workers, each kernel seeing the chunk as one
// call, as a layer's forward pass does.
func scanTanh(stride uint64) tanhScan {
	const chunk = 64
	specials := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
		0x00800000, 0x80800000, // smallest normals
		0x7f7fffff, 0xff7fffff, // largest finite
		0x7f800000, 0xff800000, // ±Inf
		0x7f800001, 0xff800001, 0x7fbfffff, 0x7fc00000, 0xffc00000, 0x7fffffff, 0xffffffff, // NaNs
	}
	paths := kernelPaths()
	var (
		scan      tanhScan
		mu        sync.Mutex
		next      atomic.Uint64
		inputs    atomic.Uint64
		fallbacks atomic.Uint64
		failed    atomic.Bool
		wg        sync.WaitGroup
	)
	total := (1<<32 + stride - 1) / stride
	fail := func(err error) {
		mu.Lock()
		if scan.err == nil {
			scan.err = err
		}
		mu.Unlock()
		failed.Store(true)
	}
	check := func(x, want, got, pairs Vector) bool {
		for _, k := range paths {
			// As the first two lanes of lane-layout rows, in place.
			rows := len(x) / 2
			for i := range pairs[:rows*Lanes] {
				pairs[i] = float32(math.NaN()) // lanes 2 and 3 must be left alone
				if l := i % Lanes; l < 2 {
					pairs[i] = x[i/Lanes*2+l]
				}
			}
			k.tanhPairs(pairs, rows)
			for i := range pairs[:rows*Lanes] {
				wantBits := uint32(0x7fc00000)
				if l := i % Lanes; l < 2 {
					wantBits = math.Float32bits(want[i/Lanes*2+l])
				}
				if math.Float32bits(pairs[i]) != wantBits {
					fail(fmt.Errorf("%s tanhPairs element %d = %#08x, want %#08x", k.name, i, math.Float32bits(pairs[i]), wantBits))
					return false
				}
			}
			// Into a separate dst, then in place (the fallback must read
			// the input, not a result written over it).
			for _, inPlace := range []bool{false, true} {
				if inPlace {
					copy(got, x)
					k.tanh(got, got)
				} else {
					clear(got)
					k.tanh(got, x)
				}
				for i := range x {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						fail(fmt.Errorf("%s Tanh(%#08x) = %#08x (in place: %v), math.Tanh gives %#08x",
							k.name, math.Float32bits(x[i]), math.Float32bits(got[i]), inPlace, math.Float32bits(want[i])))
						return false
					}
				}
			}
		}
		var n uint64
		for i, v := range x {
			t := tanhApprox(v)
			if v == v && float32(float64(t*tanhGuardLo)) != float32(float64(t*tanhGuardHi)) {
				n++
			}
			if got := float32(tanhPort(float64(v))); math.Float32bits(got) != math.Float32bits(want[i]) {
				fail(fmt.Errorf("tanhPort(%#08x) = %#08x, math.Tanh gives %#08x",
					math.Float32bits(v), math.Float32bits(got), math.Float32bits(want[i])))
				return false
			}
		}
		inputs.Add(uint64(len(x)))
		fallbacks.Add(n)
		return true
	}
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, want, got, pairs := make(Vector, chunk), make(Vector, chunk), make(Vector, chunk), make(Vector, 2*chunk)
			for {
				first := next.Add(chunk) - chunk
				if first >= total || failed.Load() {
					return
				}
				n := min(chunk, total-first)
				for i := range x[:n] {
					x[i] = math.Float32frombits(uint32((first + uint64(i)) * stride))
				}
				tanhRef(want[:n], x[:n])
				if !check(x[:n], want[:n], got[:n], pairs) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if scan.err == nil {
		x := make(Vector, len(specials))
		for i, b := range specials {
			x[i] = math.Float32frombits(b)
		}
		want := make(Vector, len(x))
		tanhRef(want, x)
		check(x, want, make(Vector, len(x)), make(Vector, 2*len(x)))
	}
	scan.inputs, scan.fallbacks = inputs.Load(), fallbacks.Load()
	return scan
}

// TestTanhStride runs the exhaustive scan's checks on every 1021st
// float32 input (a prime stride, so the inputs walk every exponent and
// scatter over the mantissas) and on the special values. The full scan
// is TestTanhExhaustive, behind the exhaustive build tag.
func TestTanhStride(t *testing.T) {
	scan := scanTanh(1021)
	if scan.err != nil {
		t.Fatal(scan.err)
	}
	if scan.fallbacks == 0 {
		t.Fatalf("no input of %d took the guarded fallback: tanhPort went unchecked", scan.inputs)
	}
	t.Logf("%d inputs, %d through tanhPort", scan.inputs, scan.fallbacks)
}
