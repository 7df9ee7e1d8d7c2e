//go:build exhaustive

package tensor

import (
	"testing"
	"time"
)

// TestTanhExhaustive checks both kernel paths and tanhPort against
// float32(math.Tanh(float64(x))) on all 2³² float32 inputs: ±0, every
// subnormal, ±Inf and every NaN payload included. Run it with
//
//	go test -tags exhaustive -run TestTanhExhaustive ./internal/tensor/
func TestTanhExhaustive(t *testing.T) {
	start := time.Now()
	scan := scanTanh(1)
	if scan.err != nil {
		t.Fatal(scan.err)
	}
	if scan.inputs < 1<<32 {
		t.Fatalf("checked %d inputs, want all 2^32", scan.inputs)
	}
	t.Logf("%d inputs in %v, %d through tanhPort", scan.inputs, time.Since(start).Round(time.Second), scan.fallbacks)
}
