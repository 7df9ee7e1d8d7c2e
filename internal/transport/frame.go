// Package transport abstracts stage-to-stage links for the distributed
// execution plane. The engine speaks Msg (engine-facing, typed payloads)
// to a Transport; two implementations exist:
//
//   - ChanTransport: in-process per-stage queues — the verbatim fast path
//     the single-process concurrent executor uses, pinned byte-identical
//     against channel-direct execution.
//   - Link: a length-prefixed TCP link with a versioned frame codec,
//     sequence-numbered delivery, cumulative acks with go-back-N
//     retransmission, receiver-side dedup, and an interruptible
//     exponential-backoff reconnect loop (internal/backoff — the same
//     policy the supervision plane restarts with). Worker processes
//     (internal/distrib) compose Links into a mesh for engine traffic,
//     and each holds one more to the coordinator for control.
//     One writer goroutine per Link owns the socket's write side:
//     senders and go-back-N queue encoded frames, the reader never
//     writes, and each writer pass sends the queue in a single Write.
//     Acks are deferred: a cumulative ack rides the next data batch,
//     and with no data to carry it waits for ackEvery in-order frames
//     or ackDelay; an ack announcing a discard goes at once.
//
// The wire format is deliberately boring: every frame is
//
//	u32 length | u16 magic | u8 version | u8 type | i16 from | i16 to | u64 seq | u32 crc | payload
//
// with the length prefix counting everything after itself, and crc the
// CRC-32C (Castagnoli) of every other byte of the frame: length prefix,
// header and payload. A frame whose checksum does not match is refused
// with a *DecodeError, so a flipped bit never reaches a decoder as a
// plausible message. Frames are versioned so a coordinator can refuse a
// worker built from a different tree instead of silently mis-parsing it:
// version 3 added the checksum, version 4 the stage health row a
// heartbeat carries (csp.StageHealth, after the committed frontier).
package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire constants.
const (
	Magic       = 0x4E50 // "NP"
	Version     = 4
	headerBytes = 20      // magic..crc, after the length prefix
	crcOff      = 4 + 16  // the checksum's offset in the frame
	MaxFrame    = 1 << 22 // 4 MiB hard ceiling on a frame body
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC is the checksum of a frame whose first crcOff bytes are head.
func frameCRC(head, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(head[:crcOff], castagnoli), castagnoli, payload)
}

// FrameType identifies a frame's payload. The zero value is invalid on
// purpose: an all-zero buffer never parses as a frame.
type FrameType uint8

const (
	FrameHello     FrameType = iota + 1 // worker → coordinator or peer: identify (RunID, stage, incarnation, data-link address)
	FrameAssign                         // coordinator → worker: stage assignment + job spec suffix + peer address table
	FrameFwd                            // activation handoff: forward seq to the next stage
	FrameBwd                            // gradient handoff: backward seq + carried releases
	FrameNote                           // write note to the stage of a layer's next reader (scheduler bookkeeping)
	FrameFetch                          // cross-stage prefetch request
	FrameCut                            // stage-0 consistency cut → coordinator checkpoint
	FrameHeartbeat                      // worker liveness: committed frontier + its stage's health row (timer-driven)
	FrameDone                           // worker finished its stages (completed count + local trace)
	FrameFailed                         // worker hit a terminal error (structured crash fields)
	FrameAbort                          // coordinator → workers: tear the incarnation down
	FrameAck                            // cumulative ack of sequenced frames (reliability plane)

	frameTypeCount
)

var frameTypeNames = [frameTypeCount]string{
	"invalid", "hello", "assign", "fwd", "bwd", "note", "fetch", "cut",
	"heartbeat", "done", "failed", "abort", "ack",
}

func (t FrameType) String() string {
	if int(t) < len(frameTypeNames) {
		return frameTypeNames[t]
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// Sequenced reports whether the frame type rides the reliability plane:
// it is assigned a link seqno, buffered until cumulatively acked,
// retransmitted after reconnects, and deduplicated by the receiver.
// Timer-driven traffic (heartbeats, acks) and handshake frames are
// unsequenced so the sequenced-frame count stays a deterministic
// function of the engine's execution — that count is the fault plane's
// "after N frames" injection site.
func (t FrameType) Sequenced() bool {
	switch t {
	case FrameFwd, FrameBwd, FrameNote, FrameFetch, FrameCut, FrameDone, FrameFailed:
		return true
	}
	return false
}

// Frame is one wire frame. From/To are stage addresses: >= 0 is a
// pipeline stage and Coordinator (-2) addresses the fleet's coordinator. Seq is the link seqno
// for sequenced types (assigned by Link.Send; zero on unsequenced
// frames) and the cumulative ack cursor on FrameAck.
type Frame struct {
	Type    FrameType
	From    int
	To      int
	Seq     uint64
	Payload []byte
}

// DecodeError is the structured parse failure: where in the buffer the
// frame went bad and why. Corrupt input yields a DecodeError, never a
// panic — FuzzFrameDecode holds the codec to that.
type DecodeError struct {
	Off    int
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("transport: bad frame at byte %d: %s", e.Off, e.Reason)
}

func decodeErrf(off int, format string, args ...any) error {
	return &DecodeError{Off: off, Reason: fmt.Sprintf(format, args...)}
}

// EncodedLen returns the full on-wire size of the frame, length prefix
// included.
func (f Frame) EncodedLen() int { return 4 + headerBytes + len(f.Payload) }

// AppendFrame appends the frame's wire encoding to dst.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(headerBytes+len(f.Payload)))
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, byte(f.Type))
	dst = binary.BigEndian.AppendUint16(dst, uint16(int16(f.From)))
	dst = binary.BigEndian.AppendUint16(dst, uint16(int16(f.To)))
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = binary.BigEndian.AppendUint32(dst, frameCRC(dst[start:], f.Payload))
	return append(dst, f.Payload...)
}

// ParseFrame decodes one frame from the front of b. It returns the
// frame and the number of bytes consumed. A prefix of a valid frame
// consumes 0 bytes with a nil error (read more and retry); anything
// structurally wrong returns a *DecodeError.
func ParseFrame(b []byte) (Frame, int, error) {
	if len(b) < 4 {
		return Frame{}, 0, nil
	}
	body := int(binary.BigEndian.Uint32(b))
	if body < headerBytes {
		return Frame{}, 0, decodeErrf(0, "length %d shorter than the %d-byte header", body, headerBytes)
	}
	if body > MaxFrame {
		return Frame{}, 0, decodeErrf(0, "length %d exceeds the %d-byte frame ceiling", body, MaxFrame)
	}
	if len(b) < 4+body {
		return Frame{}, 0, nil
	}
	f, err := parseHeader(b[4 : 4+headerBytes])
	if err != nil {
		return Frame{}, 0, err
	}
	payload := b[4+headerBytes : 4+body]
	if err := checkCRC(b, payload); err != nil {
		return Frame{}, 0, err
	}
	if len(payload) > 0 {
		f.Payload = append([]byte(nil), payload...)
	}
	return f, 4 + body, nil
}

// checkCRC verifies the checksum of a frame whose header starts frame.
func checkCRC(frame, payload []byte) error {
	if got, want := binary.BigEndian.Uint32(frame[crcOff:]), frameCRC(frame, payload); got != want {
		return decodeErrf(crcOff, "checksum %#08x, frame hashes to %#08x", got, want)
	}
	return nil
}

// parseHeader decodes the headerBytes that follow the length prefix.
// Error offsets count from the start of the frame, length prefix
// included.
func parseHeader(h []byte) (Frame, error) {
	if m := binary.BigEndian.Uint16(h); m != Magic {
		return Frame{}, decodeErrf(4, "magic %#04x, want %#04x", m, Magic)
	}
	if v := h[2]; v != Version {
		return Frame{}, decodeErrf(6, "frame version %d, this build speaks %d", v, Version)
	}
	t := FrameType(h[3])
	if t == 0 || t >= frameTypeCount {
		return Frame{}, decodeErrf(7, "unknown frame type %d", h[3])
	}
	return Frame{
		Type: t,
		From: int(int16(binary.BigEndian.Uint16(h[4:]))),
		To:   int(int16(binary.BigEndian.Uint16(h[6:]))),
		Seq:  binary.BigEndian.Uint64(h[8:]),
	}, nil
}

// checkPayload refuses a frame whose body would exceed the ceiling
// every reader enforces.
func checkPayload(f Frame) error {
	if len(f.Payload) > MaxFrame-headerBytes {
		return decodeErrf(0, "payload %d bytes exceeds the %d-byte frame ceiling", len(f.Payload), MaxFrame)
	}
	return nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	if err := checkPayload(f); err != nil {
		return err
	}
	buf := AppendFrame(make([]byte, 0, f.EncodedLen()), f)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads exactly one frame from r, refusing bodies larger than
// the frame ceiling before allocating for them.
func ReadFrame(r io.Reader) (Frame, error) {
	fr := frameReader{r: r}
	return fr.next()
}

// frameReader reads frames off one stream. The length prefix and header
// land in hdr, which lives as long as the reader, so a frame costs one
// allocation, its payload, and a frame without a payload costs none.
type frameReader struct {
	r   io.Reader
	hdr [4 + headerBytes]byte
}

func (fr *frameReader) next() (Frame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:4]); err != nil {
		return Frame{}, err
	}
	body := int(binary.BigEndian.Uint32(fr.hdr[:4]))
	if body < headerBytes || body > MaxFrame {
		return Frame{}, decodeErrf(0, "length %d outside [%d, %d]", body, headerBytes, MaxFrame)
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[4:]); err != nil {
		return Frame{}, err
	}
	f, err := parseHeader(fr.hdr[4:])
	if err != nil {
		return Frame{}, err
	}
	if body > headerBytes {
		f.Payload = make([]byte, body-headerBytes)
		if _, err := io.ReadFull(fr.r, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	if err := checkCRC(fr.hdr[:], f.Payload); err != nil {
		return Frame{}, err
	}
	return f, nil
}
