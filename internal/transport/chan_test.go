package transport

import (
	"strings"
	"testing"
	"time"
)

// TestChanTransportRoutes pins point-to-point delivery: a message lands
// on its destination's queue only, and an address outside the pipeline
// (−1, the coordinator's, one past the last stage) is refused.
func TestChanTransportRoutes(t *testing.T) {
	checkLeaks(t)
	tr := NewChanTransport(4, 8)
	defer tr.Close()

	if err := tr.Send(Msg{Type: FrameFwd, From: 0, To: 1, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(Msg{Type: FrameNote, From: 2, To: 3, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[int]Msg{1: {Type: FrameFwd, From: 0, To: 1, Seq: 5}, 3: {Type: FrameNote, From: 2, To: 3, Seq: 9}} {
		select {
		case m := <-tr.Recv(k):
			if m.Type != want.Type || m.From != want.From || m.Seq != want.Seq {
				t.Fatalf("stage %d received %+v, want %+v", k, m, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("stage %d never saw its message", k)
		}
	}
	for _, k := range []int{0, 2} {
		select {
		case m := <-tr.Recv(k):
			t.Fatalf("stage %d received %+v addressed elsewhere", k, m)
		default:
		}
	}

	for _, to := range []int{-1, Coordinator, 7} {
		if err := tr.Send(Msg{Type: FrameNote, From: 0, To: to}); err == nil {
			t.Errorf("send to stage %d outside the pipeline succeeded", to)
		}
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
	// Each sender is named: a note into the same full queue names its pair.
	err = tr.Send(Msg{Type: FrameNote, From: 2, To: 1, Seq: 3})
	if err == nil || !strings.Contains(err.Error(), "stage 2 -> 1: delivery queue full") {
		t.Fatalf("note into a full queue = %v, want an error naming stage 2 -> 1", err)
	}
	tr.Close()
	if m := <-tr.Recv(1); m.Seq != 1 {
		t.Fatalf("drained %+v, want seq 1", m)
	}
	if err := tr.Send(Msg{Type: FrameFwd, From: 0, To: 1}); err != ErrClosed {
		t.Fatalf("post-close Send = %v, want ErrClosed", err)
	}
}
