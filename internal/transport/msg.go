package transport

import (
	"fmt"

	"naspipe/internal/csp"
	"naspipe/internal/supernet"
)

// Coordinator is the stage address of the fleet's coordinator
// (naspiped dist), which carries control traffic only; it never appears
// in engine-level traffic.
const Coordinator = -2

// Msg is the engine-facing message: what one stage says to another,
// independent of how it travels. Exactly one payload family is
// populated, keyed by Type: Fwd carries Seq; Bwd carries Seq + Carried;
// Note carries Seq + IDs; Fetch carries Seq.
type Msg struct {
	Type    FrameType
	From    int
	To      int
	Seq     int
	Carried []csp.PendingBackward // FrameBwd: Algorithm 2's carried releases
	IDs     []supernet.LayerID    // FrameNote: layers the backward wrote
}

// Transport moves Msgs between pipeline stages. Send is safe for
// concurrent use; Recv returns the stable per-stage delivery channel
// (same channel on every call). Implementations deliver each message
// exactly once per destination stage, in per-sender order. After Close,
// Send returns ErrClosed and delivery channels stop filling; they are
// not closed, so receivers must select against their own context.
type Transport interface {
	Send(m Msg) error
	Recv(stage int) <-chan Msg
	Close() error
}

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = fmt.Errorf("transport: closed")

// Frame encodes the message for the wire.
func (m Msg) Frame() Frame {
	f := Frame{Type: m.Type, From: m.From, To: m.To}
	switch m.Type {
	case FrameFwd, FrameBwd, FrameFetch:
		f.Payload = Task{Seq: m.Seq, Carried: m.Carried}.Encode()
	case FrameNote:
		f.Payload = Note{Seq: m.Seq, IDs: m.IDs}.Encode()
	}
	return f
}

// MsgFromFrame decodes a data-plane frame back into a Msg. Control
// frames (hello, assign, heartbeat, ...) are not Msgs and are rejected.
func MsgFromFrame(f Frame) (Msg, error) {
	m := Msg{Type: f.Type, From: f.From, To: f.To}
	switch f.Type {
	case FrameFwd, FrameBwd, FrameFetch:
		t, err := DecodeTask(f.Payload)
		if err != nil {
			return Msg{}, err
		}
		m.Seq, m.Carried = t.Seq, t.Carried
	case FrameNote:
		n, err := DecodeNote(f.Payload)
		if err != nil {
			return Msg{}, err
		}
		m.Seq, m.IDs = n.Seq, n.IDs
	default:
		return Msg{}, decodeErrf(0, "frame type %s is not engine traffic", f.Type)
	}
	return m, nil
}
