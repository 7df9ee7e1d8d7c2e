package clock

import (
	"testing"
	"time"
)

// TestSleepNeverReturnsEarly covers both sides of the OS-wait threshold
// and the non-positive durations. Only the lower bound is asserted: how
// far a wait overshoots is the host's business.
func TestSleepNeverReturnsEarly(t *testing.T) {
	for _, d := range []time.Duration{
		-1, 0, time.Microsecond, 100 * time.Microsecond,
		1500 * time.Microsecond, 3 * time.Millisecond,
	} {
		start := time.Now()
		Sleep(d)
		if got := time.Since(start); got < d {
			t.Errorf("Sleep(%v) returned after %v", d, got)
		}
	}
}
