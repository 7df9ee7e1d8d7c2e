package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"naspipe/internal/backoff"
	"naspipe/internal/fault"
	"naspipe/internal/telemetry"
)

// newLinkPair wires a dial-side and an accept-side link over real
// loopback TCP. The dial side carries the injector (transport faults
// are injected where the fleet view lives); the accept side re-attaches
// every connection the listener yields, healing cuts the way the
// coordinator does.
func newLinkPair(t *testing.T, plan string, tel *telemetry.Bus) (dial, accept *Link) {
	t.Helper()
	var inj *fault.Injector
	if plan != "" {
		p, err := fault.ParsePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		if inj, err = fault.NewInjector(*p, 0); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pol := backoff.Policy{Base: time.Millisecond, Max: 10 * time.Millisecond}
	accept = NewLink(LinkConfig{Local: 5, Peer: Coordinator, Backoff: pol})
	dial = NewLink(LinkConfig{Local: Coordinator, Peer: 5, Backoff: pol, Injector: inj, Tel: tel,
		Redial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", ln.Addr().String())
		}})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accept.Attach(c)
		}
	}()
	t.Cleanup(func() {
		dial.Close()
		accept.Close()
		ln.Close()
	})
	if err := dial.Connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	return dial, accept
}

// collect drains n sequenced frames from the link, asserting exactly-
// once in-order delivery (link seqnos 1..n with no gaps or repeats).
func collect(t *testing.T, l *Link, n int) []Frame {
	t.Helper()
	return collectFrom(t, l, 1, n)
}

// unackedLen is the sender's window: frames sent and not yet acked.
func (l *Link) unackedLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.unacked)
}

// collectFrom is collect for link seqnos first..first+n-1.
func collectFrom(t *testing.T, l *Link, first uint64, n int) []Frame {
	t.Helper()
	var got []Frame
	deadline := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case f, ok := <-l.In():
			if !ok {
				t.Fatalf("link closed after %d of %d frames", len(got), n)
			}
			if !f.Type.Sequenced() {
				continue
			}
			if want := first + uint64(len(got)); f.Seq != want {
				t.Fatalf("frame %d has link seq %d, want %d (dup or gap)", len(got), f.Seq, want)
			}
			got = append(got, f)
		case <-deadline:
			t.Fatalf("timed out with %d of %d frames delivered", len(got), n)
		}
	}
	return got
}

func TestLinkDeliversSequencedInOrder(t *testing.T) {
	checkLeaks(t)
	dial, accept := newLinkPair(t, "", nil)
	const n = 200
	for i := 0; i < n; i++ {
		if err := dial.Send(Msg{Type: FrameFwd, From: Coordinator, To: 5, Seq: i}.Frame()); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range collect(t, accept, n) {
		task, err := DecodeTask(f.Payload)
		if err != nil || task.Seq != i {
			t.Fatalf("frame %d decoded to (%+v, %v)", i, task, err)
		}
	}
	// The reverse direction works too, and unsequenced frames pass
	// through without touching the seqno space.
	if err := accept.Send(Frame{Type: FrameHeartbeat, From: 5, To: Coordinator,
		Payload: Heartbeat{Stage: 5, Frontier: 3}.Encode()}); err != nil {
		t.Fatal(err)
	}
	if err := accept.Send(Msg{Type: FrameBwd, From: 5, To: 4, Seq: 7}.Frame()); err != nil {
		t.Fatal(err)
	}
	sawHB := false
	for {
		f := <-dial.In()
		if f.Type == FrameHeartbeat {
			sawHB = true
			continue
		}
		if f.Type != FrameBwd || f.Seq != 1 {
			t.Fatalf("reverse frame = %+v, want bwd with link seq 1", f)
		}
		break
	}
	if !sawHB {
		t.Error("heartbeat did not arrive ahead of the sequenced frame")
	}
}

func TestLinkHealsInjectedCut(t *testing.T) {
	checkLeaks(t)
	tel := telemetry.NewBus(0)
	dial, accept := newLinkPair(t, "seed=3,disconnect=0:5:20", tel)
	const n = 100
	for i := 0; i < n; i++ {
		if err := dial.Send(Msg{Type: FrameFwd, From: Coordinator, To: 5, Seq: i}.Frame()); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, accept, n)
	snap := tel.Snapshot()
	if snap.LinkCuts != 1 {
		t.Errorf("LinkCuts = %d, want 1", snap.LinkCuts)
	}
	if snap.LinkReconnects < 1 {
		t.Errorf("LinkReconnects = %d, want >= 1 (the cut must heal through the redial loop)", snap.LinkReconnects)
	}
	if snap.LinkRetransmits < 1 {
		t.Errorf("LinkRetransmits = %d, want >= 1 (the unacked window rides the fresh conn)", snap.LinkRetransmits)
	}
}

func TestLinkRecoversDroppedFrames(t *testing.T) {
	checkLeaks(t)
	tel := telemetry.NewBus(0)
	// Drop one mid-stream frame (go-back-N via duplicate acks) and the
	// very last frame (only the timer backstop can recover the tail).
	dial, accept := newLinkPair(t, "seed=3,linkdropat=0:5:10,linkdropat=0:5:100", tel)
	const n = 100
	send := func(i int) {
		if err := dial.Send(Msg{Type: FrameFwd, From: Coordinator, To: 5, Seq: i}.Frame()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n-1; i++ {
		send(i)
	}
	// The tail goes out only once 1..99 have landed, so the go-back-N
	// that healed frame 10 cannot carry it: the backstop has to.
	collect(t, accept, n-1)
	send(n - 1)
	collectFrom(t, accept, n, 1)
	snap := tel.Snapshot()
	if snap.LinkDrops != 2 {
		t.Errorf("LinkDrops = %d, want 2", snap.LinkDrops)
	}
	if snap.LinkRetransmits < 2 {
		t.Errorf("LinkRetransmits = %d, want >= 2", snap.LinkRetransmits)
	}
}

func TestLinkUnsequencedIsBestEffort(t *testing.T) {
	checkLeaks(t)
	l := NewLink(LinkConfig{Local: 1, Peer: Coordinator})
	defer l.Close()
	err := l.Send(Frame{Type: FrameHeartbeat, From: 1, To: Coordinator})
	if err != ErrNotConnected {
		t.Fatalf("disconnected heartbeat Send = %v, want ErrNotConnected", err)
	}
	// A body no reader would accept is refused before it takes a seqno.
	var de *DecodeError
	if err := l.Send(Frame{Type: FrameFwd, Payload: make([]byte, MaxFrame)}); !errors.As(err, &de) {
		t.Fatalf("oversized Send = %v, want *DecodeError", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(Frame{Type: FrameFwd}); err != ErrClosed {
		t.Fatalf("post-close Send = %v, want ErrClosed", err)
	}
}

// TestLinkIdleThenSendDoesNotRetransmit pins the backstop's clock to the
// unacked window, not to the link: a frame sent after a long silence
// whose ack is merely in flight — withheld here for one backstop period,
// under retransmitAfter — must not be re-sent.
func TestLinkIdleThenSendDoesNotRetransmit(t *testing.T) {
	checkLeaks(t)
	for attempt := 0; attempt < 10; attempt++ {
		tel := telemetry.NewBus(0)
		l := NewLink(LinkConfig{Local: Coordinator, Peer: 5, Tel: tel})
		near, far := net.Pipe()
		l.Attach(near)
		arrivals := make(chan Frame, 8) // the test sends one frame; room for spurious copies
		go func() {
			defer close(arrivals)
			for {
				f, err := ReadFrame(far)
				if err != nil {
					return
				}
				arrivals <- f
			}
		}()
		l.mu.Lock()
		l.lastProgress = time.Now().Add(-time.Hour) // the link has been idle
		l.mu.Unlock()

		sent := time.Now()
		if err := l.Send(Msg{Type: FrameFwd, From: Coordinator, To: 5, Seq: 0}.Frame()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(retransmitAfter/2 + 5*time.Millisecond) // at least one backstop tick, ack withheld
		held := time.Since(sent)
		retransmits := tel.Snapshot().LinkRetransmits
		l.Close()
		far.Close()
		copies := 0
		for range arrivals {
			copies++
		}
		if held >= retransmitAfter {
			continue // the host stalled past the backstop: a retransmit would be legitimate
		}
		if retransmits != 0 || copies != 1 {
			t.Fatalf("ack withheld %v (< %v): %d retransmit events, %d copies on the wire, want 0 and 1",
				held, retransmitAfter, retransmits, copies)
		}
		return
	}
	t.Fatal("host never held a send-to-check window under retransmitAfter in 10 attempts")
}

// TestLinkTwoWayFloodDoesNotWedge floods both directions of a link pair
// over net.Pipe, which buffers nothing: a Write returns only once the
// peer's reader has taken the bytes. If a reader wrote its own acks, both
// readers could block in that Write at once and neither would read
// again. Only the writer goroutines write, and a reader never waits on
// one, so the flood drains.
func TestLinkTwoWayFloodDoesNotWedge(t *testing.T) {
	checkLeaks(t)
	const n = 2000
	a := NewLink(LinkConfig{Local: 0, Peer: 1})
	b := NewLink(LinkConfig{Local: 1, Peer: 0})
	ca, cb := net.Pipe()
	t.Cleanup(func() {
		// The pipe ends go first: they release any Write a wedged link
		// is stuck in, so the links can close.
		ca.Close()
		cb.Close()
		a.Close()
		b.Close()
	})
	a.Attach(ca)
	b.Attach(cb)

	finished := make(chan error, 4)
	for _, l := range []*Link{a, b} {
		go func(l *Link) { // consumer: in-order link seqnos 1..n
			want := uint64(1)
			for f := range l.In() {
				if !f.Type.Sequenced() {
					continue
				}
				if f.Seq != want {
					finished <- fmt.Errorf("link seq %d delivered, want %d", f.Seq, want)
					return
				}
				if want == n {
					finished <- nil
					return
				}
				want++
			}
			finished <- fmt.Errorf("delivery closed after %d of %d frames", want-1, n)
		}(l)
		go func(l *Link) { // producer: n frames, no echo awaited
			for i := 0; i < n; i++ {
				if err := l.Send(Msg{Type: FrameFwd, From: 0, To: 1, Seq: i}.Frame()); err != nil {
					finished <- err
					return
				}
			}
			finished <- nil
		}(l)
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < cap(finished); i++ {
		select {
		case err := <-finished:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("two-way flood of %d frames each way wedged", n)
		}
	}
}

// TestLinkCoalescesAcks drives a link from a raw peer over net.Pipe and
// reads every ack it writes. A burst of in-order frames is answered by
// fewer acks than frames, the last carrying the burst's cursor once the
// deferral bound has passed; a frame after a gap is still answered with
// the cursor, the duplicate ack the sender's go-back-N keys on.
func TestLinkCoalescesAcks(t *testing.T) {
	checkLeaks(t)
	const n = 1000
	l := NewLink(LinkConfig{Local: 5, Peer: Coordinator})
	near, far := net.Pipe()
	t.Cleanup(func() {
		far.Close()
		l.Close()
	})
	l.Attach(near)
	go func() {
		for range l.In() {
		}
	}()
	far.SetDeadline(time.Now().Add(10 * time.Second))
	frames := func(seqs ...uint64) []byte {
		var b []byte
		for _, s := range seqs {
			b = AppendFrame(b, Frame{Type: FrameFwd, From: Coordinator, To: 5, Seq: s})
		}
		return b
	}
	nextAck := func() uint64 {
		t.Helper()
		for {
			f, err := ReadFrame(far)
			if err != nil {
				t.Fatalf("reading acks: %v", err)
			}
			if f.Type == FrameAck {
				return f.Seq
			}
		}
	}

	// The link sends nothing else, so each ack is deferred: one per
	// ackEvery in-order frames, and the burst's tail once its deadline
	// passes.
	burst := make([]uint64, n)
	for i := range burst {
		burst[i] = uint64(i + 1)
	}
	if _, err := far.Write(frames(burst...)); err != nil {
		t.Fatal(err)
	}
	acks := 0
	for last := uint64(0); last != n; acks++ {
		if last = nextAck(); last > n {
			t.Fatalf("ack %d beyond the %d frames sent", last, n)
		}
	}
	if acks >= n {
		t.Errorf("%d in-order frames answered by %d acks, want fewer", n, acks)
	}

	// Frame n+1 is missing: n+2 is discarded and answered with n.
	if _, err := far.Write(frames(n + 2)); err != nil {
		t.Fatal(err)
	}
	if got := nextAck(); got != n {
		t.Fatalf("post-gap frame acked %d, want duplicate ack %d", got, n)
	}

}

// TestAckPassAnnouncesDiscardAsDuplicate takes the writer's passes by
// hand. A pass that moves the ack cursor and also answers a discarded
// frame queues the cursor twice: the sender has not seen the new cursor
// yet, so only a second copy reads as the duplicate that starts its
// go-back-N. A pass that only answers discards queues it once.
func TestAckPassAnnouncesDiscardAsDuplicate(t *testing.T) {
	checkLeaks(t)
	near, far := net.Pipe()
	defer far.Close()
	defer near.Close()
	// Built without its writer goroutine, so nothing races the test's
	// passes; a row's deadline stands in for the writer taking the ack
	// timer's tick.
	l := newLink(LinkConfig{Local: 5, Peer: Coordinator})
	defer l.Close()
	l.conn = near
	pass := func(deadline bool, arrivals ...uint64) []uint64 {
		for _, s := range arrivals {
			l.accept(Frame{Type: FrameFwd, Seq: s})
		}
		if deadline {
			l.ackDeadline()
		}
		_, b := l.takeBatch(nil)
		var acks []uint64
		for len(b) > 0 {
			f, n, err := ParseFrame(b)
			if err != nil || n == 0 || f.Type != FrameAck {
				t.Fatalf("queued bytes %x do not parse as acks (%+v, %d, %v)", b, f, n, err)
			}
			acks = append(acks, f.Seq)
			b = b[n:]
		}
		return acks
	}
	for _, c := range []struct {
		deadline       bool
		arrivals, acks []uint64
	}{
		{false, []uint64{1, 2, 3}, nil},         // in order, nothing to ride on: deferred
		{true, nil, []uint64{3}},                // ... until its deadline: one coalesced ack
		{false, []uint64{5}, []uint64{3}},       // post-gap: the cursor again, a duplicate
		{false, []uint64{4, 6}, []uint64{4, 4}}, // cursor moved and a discard: twice
		{false, []uint64{2}, []uint64{4}},       // stale duplicate: once
		{false, nil, nil},                       // nothing due, nothing queued
	} {
		if got := pass(c.deadline, c.arrivals...); !slices.Equal(got, c.acks) {
			t.Fatalf("frames %v (deadline %v) answered with acks %v, want %v", c.arrivals, c.deadline, got, c.acks)
		}
	}
}

// TestQuietReceiverAcksWithinDeferral: a receiver with nothing to send
// still acks, within the deferral bound, so the sender's window empties
// without its 40 ms backstop ever firing.
func TestQuietReceiverAcksWithinDeferral(t *testing.T) {
	checkLeaks(t)
	for attempt := 0; attempt < 10; attempt++ {
		tel := telemetry.NewBus(0)
		dial, accept := newLinkPair(t, "", tel)
		go func() {
			for range accept.In() {
			}
		}()
		var worst time.Duration
		for i := 0; i < 5; i++ { // each frame alone, well under ackEvery
			sent := time.Now()
			if err := dial.Send(Msg{Type: FrameFwd, From: Coordinator, To: 5, Seq: i}.Frame()); err != nil {
				t.Fatal(err)
			}
			for dial.unackedLen() > 0 {
				if time.Since(sent) > 10*time.Second {
					t.Fatal("a quiet receiver never acked")
				}
				time.Sleep(100 * time.Microsecond)
			}
			worst = max(worst, time.Since(sent))
		}
		if worst >= retransmitAfter {
			continue // the host stalled past the backstop: a retransmit would be legitimate
		}
		if n := tel.Snapshot().LinkRetransmits; n != 0 {
			t.Fatalf("acks landed within %v (< %v) yet the sender retransmitted %d times", worst, retransmitAfter, n)
		}
		return
	}
	t.Fatal("host never held a send-to-ack window under retransmitAfter in 10 attempts")
}

// TestOneWayFloodBoundsUnackedWindow floods one direction of a link pair
// whose receiver sends nothing back but acks. At every sample the
// sender's unacked window holds at most ackEvery frames beyond those in
// flight: frames the receiver has not taken yet, and frames it has
// acked whose ack the sender has not yet read.
func TestOneWayFloodBoundsUnackedWindow(t *testing.T) {
	checkLeaks(t)
	const n = 5000
	a := NewLink(LinkConfig{Local: 0, Peer: 1})
	b := NewLink(LinkConfig{Local: 1, Peer: 0})
	ca, cb := net.Pipe()
	t.Cleanup(func() {
		ca.Close()
		cb.Close()
		a.Close()
		b.Close()
	})
	a.Attach(ca)
	b.Attach(cb)
	go func() {
		for i := 0; i < n; i++ {
			if a.Send(Msg{Type: FrameFwd, From: 0, To: 1, Seq: i}.Frame()) != nil {
				return
			}
		}
	}()
	deadline := time.After(10 * time.Second)
	for got := 0; got < n; {
		select {
		case f := <-b.In():
			if !f.Type.Sequenced() {
				continue
			}
			got++
			// No other code holds both locks, so taking them nested is
			// safe and gives one consistent view of both ends.
			b.mu.Lock()
			a.mu.Lock()
			unacked := len(a.unacked)
			inFlight := int(a.nextSeq-b.recvSeq) + int(b.ackQueued-a.acked)
			a.mu.Unlock()
			b.mu.Unlock()
			if unacked > ackEvery+inFlight {
				t.Fatalf("after %d frames the sender holds %d unacked, %d in flight: more than ackEvery = %d beyond",
					got, unacked, inFlight, ackEvery)
			}
		case <-deadline:
			t.Fatalf("one-way flood stalled after %d of %d frames", got, n)
		}
	}
}
