package transport

import (
	"strings"
	"testing"
	"time"
)

func TestChanTransportRoutesAndBroadcasts(t *testing.T) {
	checkLeaks(t)
	tr := NewChanTransport(4, 8)
	defer tr.Close()

	if err := tr.Send(Msg{Type: FrameFwd, From: 0, To: 1, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	if m := <-tr.Recv(1); m.Seq != 5 || m.Type != FrameFwd {
		t.Fatalf("stage 1 received %+v", m)
	}

	// Broadcast reaches every stage but the sender.
	if err := tr.Send(Msg{Type: FrameNote, From: 2, To: Broadcast, Seq: 9, Finished: true}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 3} {
		select {
		case m := <-tr.Recv(k):
			if m.Seq != 9 || !m.Finished {
				t.Fatalf("stage %d received %+v", k, m)
			}
		case <-time.After(time.Second):
			t.Fatalf("stage %d never saw the broadcast", k)
		}
	}
	select {
	case m := <-tr.Recv(2):
		t.Fatalf("sender received its own broadcast: %+v", m)
	default:
	}

	if err := tr.Send(Msg{Type: FrameFwd, From: 0, To: 7}); err == nil {
		t.Error("send to a stage outside the pipeline succeeded")
	}
}

// TestChanTransportFullQueueAndClose pins Send's two refusals: a full
// destination queue is an immediate error naming the stage pair (never a
// blocked sender), and after Close every Send is ErrClosed while queued
// messages stay readable.
func TestChanTransportFullQueueAndClose(t *testing.T) {
	checkLeaks(t)
	tr := NewChanTransport(3, 1)
	if err := tr.Send(Msg{Type: FrameFwd, From: 0, To: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	err := tr.Send(Msg{Type: FrameFwd, From: 0, To: 1, Seq: 2})
	if err == nil || !strings.Contains(err.Error(), "stage 0 -> 1: delivery queue full") {
		t.Fatalf("Send to a full queue = %v, want an error naming stage 0 -> 1", err)
	}
	// A broadcast names the stage that overflowed, not Broadcast.
	err = tr.Send(Msg{Type: FrameNote, From: 2, To: Broadcast, Seq: 3})
	if err == nil || !strings.Contains(err.Error(), "stage 2 -> 1: delivery queue full") {
		t.Fatalf("broadcast into a full queue = %v, want an error naming stage 2 -> 1", err)
	}
	tr.Close()
	if m := <-tr.Recv(1); m.Seq != 1 {
		t.Fatalf("drained %+v, want seq 1", m)
	}
	if err := tr.Send(Msg{Type: FrameFwd, From: 0, To: 1}); err != ErrClosed {
		t.Fatalf("post-close Send = %v, want ErrClosed", err)
	}
}
