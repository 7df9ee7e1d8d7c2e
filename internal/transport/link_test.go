package transport

import (
	"context"
	"net"
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
			if want := uint64(len(got) + 1); f.Seq != want {
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
	for i := 0; i < n; i++ {
		if err := dial.Send(Msg{Type: FrameFwd, From: Coordinator, To: 5, Seq: i}.Frame()); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, accept, n)
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
