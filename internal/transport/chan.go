package transport

import (
	"fmt"
	"sync/atomic"
)

// ChanTransport is the in-process Transport: one buffered queue per
// stage, no wire, no copies beyond the Msg value itself. It is the
// fabric every single-process run executes on — the engine builds a
// private one when no Dist config supplies a transport.
type ChanTransport struct {
	qs     []chan Msg
	closed atomic.Bool
}

// NewChanTransport returns a transport for `stages` stages whose
// per-stage queues hold `capacity` messages each (minimum 1). Capacity
// must cover the traffic that can land on a stage between two drains:
// Send never blocks, so an undersized queue fails the run instead of
// wedging it (see engine.DistQueueCap for the caller-side bound).
func NewChanTransport(stages, capacity int) *ChanTransport {
	if capacity < 1 {
		capacity = 1
	}
	t := &ChanTransport{qs: make([]chan Msg, stages)}
	for i := range t.qs {
		t.qs[i] = make(chan Msg, capacity)
	}
	return t
}

// Send delivers to m.To. It never blocks: a full destination queue is
// an error naming the stage pair, because a sender parked on a stage
// that is itself parked on a send is a silent pipeline deadlock.
func (t *ChanTransport) Send(m Msg) error {
	if m.To < 0 || m.To >= len(t.qs) {
		return decodeErrf(0, "stage %d outside the %d-stage pipeline", m.To, len(t.qs))
	}
	if t.closed.Load() {
		return ErrClosed
	}
	select {
	case t.qs[m.To] <- m:
		return nil
	default:
		return fmt.Errorf("transport: stage %d -> %d: delivery queue full (cap %d)", m.From, m.To, cap(t.qs[m.To]))
	}
}

// Recv returns stage k's delivery queue.
func (t *ChanTransport) Recv(stage int) <-chan Msg { return t.qs[stage] }

// Close refuses further sends; queued messages remain readable.
func (t *ChanTransport) Close() error {
	t.closed.Store(true)
	return nil
}
