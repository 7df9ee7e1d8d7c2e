package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"naspipe/internal/supernet"
)

func TestFrameRoundTrip(t *testing.T) {
	checkLeaks(t)
	frames := []Frame{
		{Type: FrameFwd, From: 0, To: 1, Seq: 7, Payload: Task{Seq: 12}.Encode()},
		{Type: FrameNote, From: 3, To: 1, Seq: 9001, Payload: Note{Seq: 4, IDs: layerIDs(5)}.Encode()},
		{Type: FrameHello, From: 2, To: Coordinator, Payload: Hello{RunID: "r1", Stage: 2, Incarnation: 3}.Encode()},
		{Type: FrameAck, From: Coordinator, To: 1, Seq: 42},
	}
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f)
	}
	// Streamed parse: every frame comes back exactly.
	rest := wire
	for i, want := range frames {
		got, n, err := ParseFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != want.EncodedLen() {
			t.Fatalf("frame %d consumed %d bytes, want %d", i, n, want.EncodedLen())
		}
		if got.Type != want.Type || got.From != want.From || got.To != want.To ||
			got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after all frames", len(rest))
	}
	// Reader path sees the same stream.
	r := bytes.NewReader(wire)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Seq != want.Seq {
			t.Fatalf("ReadFrame %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("ReadFrame at EOF: %v", err)
	}
}

func layerIDs(n int) []supernet.LayerID {
	ids := make([]supernet.LayerID, n)
	for i := range ids {
		ids[i] = supernet.LayerID(i * 3)
	}
	return ids
}

func TestParseFrameIncompleteNeedsMore(t *testing.T) {
	checkLeaks(t)
	full := AppendFrame(nil, Frame{Type: FrameFwd, From: 1, To: 2, Seq: 5, Payload: []byte("abc")})
	for cut := 0; cut < len(full); cut++ {
		f, n, err := ParseFrame(full[:cut])
		if err != nil || n != 0 || f.Type != 0 {
			t.Fatalf("prefix of %d bytes: got (%+v, %d, %v), want incomplete", cut, f, n, err)
		}
	}
}

func TestParseFrameCorruptionIsStructured(t *testing.T) {
	checkLeaks(t)
	good := AppendFrame(nil, Frame{Type: FrameBwd, From: 2, To: 1, Seq: 8, Payload: []byte{1, 2, 3, 4}})
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":    corrupt(func(b []byte) { b[4] = 0xFF }),
		"bad version":  corrupt(func(b []byte) { b[6] = 99 }),
		"zero type":    corrupt(func(b []byte) { b[7] = 0 }),
		"unknown type": corrupt(func(b []byte) { b[7] = byte(frameTypeCount) }),
		"short length": corrupt(func(b []byte) { binary.BigEndian.PutUint32(b, 3) }),
		"giant length": corrupt(func(b []byte) { binary.BigEndian.PutUint32(b, MaxFrame+1) }),
	}
	for name, wire := range cases {
		_, _, err := ParseFrame(wire)
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Errorf("%s: ParseFrame error = %v, want *DecodeError", name, err)
		}
		if _, err := ReadFrame(bytes.NewReader(wire)); err == nil {
			t.Errorf("%s: ReadFrame accepted the corrupt frame", name)
		}
	}
}

// TestFrameChecksumRejectsFlippedBits flips every bit of a version-3
// frame that the structural checks let through — payload, seq, stage
// addresses, the checksum itself — and holds both decoders to a
// *DecodeError for each: a corrupted frame never decodes.
func TestFrameChecksumRejectsFlippedBits(t *testing.T) {
	checkLeaks(t)
	good := AppendFrame(nil, Frame{Type: FrameNote, From: 2, To: 1, Seq: 41, Payload: Note{Seq: 7, IDs: layerIDs(4)}.Encode()})
	if _, _, err := ParseFrame(good); err != nil {
		t.Fatalf("intact frame: %v", err)
	}
	for bit := 8 * 8; bit < 8*len(good); bit++ { // past the length, magic, version and type
		wire := append([]byte(nil), good...)
		wire[bit/8] ^= 1 << (bit % 8)
		var de *DecodeError
		if _, _, err := ParseFrame(wire); !errors.As(err, &de) {
			t.Fatalf("bit %d flipped: ParseFrame error = %v, want *DecodeError", bit, err)
		}
		if _, err := ReadFrame(bytes.NewReader(wire)); !errors.As(err, &de) {
			t.Fatalf("bit %d flipped: ReadFrame error = %v, want *DecodeError", bit, err)
		}
	}
}

// FuzzFrameDecode holds the codec to its contract: decoding never
// panics, structurally-bad input yields a *DecodeError, and anything
// that decodes re-encodes to the identical bytes (decode∘encode is a
// fixed point).
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Type: FrameFwd, From: 0, To: 1, Seq: 3, Payload: Task{Seq: 9}.Encode()}))
	f.Add(AppendFrame(nil, Frame{Type: FrameAck, From: 1, To: 0, Seq: 77}))
	f.Add(AppendFrame(nil, Frame{Type: FrameCut, From: 0, To: Coordinator, Seq: 1, Payload: []byte{0, 0, 0}}))
	f.Add([]byte{0, 0, 0, 16, 0x4E, 0x50, 1, 0xFF})
	f.Add([]byte("not a frame at all"))
	note := AppendFrame(nil, Frame{Type: FrameNote, From: 3, To: 1, Seq: 12, Payload: Note{Seq: 4, IDs: layerIDs(2)}.Encode()})
	f.Add(note)
	flipped := append([]byte(nil), note...)
	flipped[len(flipped)-1] ^= 0x10 // a payload bit the checksum catches
	f.Add(flipped)
	v2 := binary.BigEndian.AppendUint32(nil, uint32(16+len(note)-24)) // the version-2 layout: no checksum
	v2 = append(append(v2, note[4:20]...), note[24:]...)
	v2[6] = 2
	f.Add(v2)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := ParseFrame(data)
		// The stream reader agrees with the buffer parser: it reads a
		// frame exactly when ParseFrame decodes one, and the same frame.
		rf, rerr := ReadFrame(bytes.NewReader(data))
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("non-structured decode error %T: %v", err, err)
			}
			if rerr == nil {
				t.Fatalf("ReadFrame accepted %+v where ParseFrame failed: %v", rf, err)
			}
			return
		}
		if n == 0 {
			if rerr == nil {
				t.Fatalf("ReadFrame returned %+v from an incomplete prefix", rf)
			}
			return // incomplete prefix
		}
		if rerr != nil {
			t.Fatalf("ReadFrame failed where ParseFrame decoded %+v: %v", fr, rerr)
		}
		if rf.Type != fr.Type || rf.From != fr.From || rf.To != fr.To || rf.Seq != fr.Seq ||
			!bytes.Equal(rf.Payload, fr.Payload) {
			t.Fatalf("ReadFrame %+v, ParseFrame %+v", rf, fr)
		}
		if got := AppendFrame(nil, fr); !bytes.Equal(got, data[:n]) {
			t.Fatalf("decode∘encode not a fixed point:\n in  %x\n out %x", data[:n], got)
		}
		// Data-plane frames must also survive the Msg layer without
		// panicking; malformed payloads surface as structured errors.
		if m, err := MsgFromFrame(fr); err == nil {
			rt := m.Frame()
			if !bytes.Equal(rt.Payload, fr.Payload) {
				t.Fatalf("msg payload round trip: in %x out %x", fr.Payload, rt.Payload)
			}
		} else {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("MsgFromFrame non-structured error %T: %v", err, err)
			}
		}
	})
}

// TestReadFrameAllocatesOnlyThePayload pins the receive path at one
// allocation per frame: the length prefix and header are read into the
// reader's own array, and only the payload gets a buffer of its own.
// A payloadless frame (every ack) costs nothing.
func TestReadFrameAllocatesOnlyThePayload(t *testing.T) {
	checkLeaks(t)
	wire := AppendFrame(nil, Frame{Type: FrameFwd, From: 0, To: 1, Seq: 3, Payload: Task{Seq: 9}.Encode()})
	wire = AppendFrame(wire, Frame{Type: FrameAck, From: 1, To: 0, Seq: 3})
	r := bytes.NewReader(nil)
	fr := &frameReader{r: r}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(wire)
		for i := 0; i < 2; i++ {
			if _, err := fr.next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 1 {
		t.Fatalf("reading a data frame and an ack allocated %.1f times, want 1 (the payload)", allocs)
	}
}
