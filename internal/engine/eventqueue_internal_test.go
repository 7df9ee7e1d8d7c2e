package engine

import (
	"cmp"
	"slices"
	"testing"

	"naspipe/internal/rng"
)

// TestEventQueuePopsInKeyOrder: under random interleaved pushes and pops,
// with many equal times, every pop returns the least pending event by
// (time, order) — the order a stable sort of the pending set gives.
func TestEventQueuePopsInKeyOrder(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		var q eventQueue
		var pending []event
		var order uint64
		for step := 0; step < 400; step++ {
			if len(pending) == 0 || r.Intn(3) > 0 {
				ev := event{time: float64(r.Intn(20)) / 4, order: order, stage: r.Intn(8)}
				order++
				q.push(ev)
				pending = append(pending, ev)
				continue
			}
			slices.SortFunc(pending, func(a, b event) int {
				if c := cmp.Compare(a.time, b.time); c != 0 {
					return c
				}
				return cmp.Compare(a.order, b.order)
			})
			want := pending[0]
			pending = pending[1:]
			if got := q.pop(); got != want {
				t.Fatalf("trial %d step %d: popped %+v, want %+v", trial, step, got, want)
			}
		}
		if len(q) != len(pending) {
			t.Fatalf("trial %d: queue holds %d events, want %d", trial, len(q), len(pending))
		}
	}
}

// TestEventQueueDoesNotAllocate: a push and a pop on a queue at steady
// size box nothing.
func TestEventQueueDoesNotAllocate(t *testing.T) {
	var q eventQueue
	var order uint64
	push := func() {
		q.push(event{time: float64(order % 7), order: order})
		order++
	}
	for i := 0; i < 64; i++ {
		push()
	}
	if n := testing.AllocsPerRun(1000, func() {
		push()
		q.pop()
	}); n != 0 {
		t.Fatalf("push+pop allocates %v times, want 0", n)
	}
}
