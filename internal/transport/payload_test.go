package transport

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"naspipe/internal/csp"
	"naspipe/internal/fault"
	"naspipe/internal/trace"
)

func TestPayloadRoundTrips(t *testing.T) {
	checkLeaks(t)
	hello := Hello{RunID: "run-77", Stage: 3, Incarnation: 2, Addr: "127.0.0.1:4100"}
	if got, err := DecodeHello(hello.Encode()); err != nil || got != hello {
		t.Errorf("Hello round trip = (%+v, %v)", got, err)
	}
	assign := Assign{Stage: 1, D: 4, Cursor: 24, Incarnation: 2, Spec: []byte(`{"gpus":4}`),
		Peers: []string{"127.0.0.1:4100", "127.0.0.1:4101", "127.0.0.1:4102", "127.0.0.1:4103"}}
	if got, err := DecodeAssign(assign.Encode()); err != nil || !reflect.DeepEqual(got, assign) {
		t.Errorf("Assign round trip = (%+v, %v)", got, err)
	}
	task := Task{Seq: 9, Carried: []csp.PendingBackward{{Seq: 4, Precedence: 9}, {Seq: 6, Precedence: 9}}}
	if got, err := DecodeTask(task.Encode()); err != nil || !reflect.DeepEqual(got, task) {
		t.Errorf("Task round trip = (%+v, %v)", got, err)
	}
	note := Note{Seq: 5, IDs: layerIDs(3)}
	if got, err := DecodeNote(note.Encode()); err != nil || !reflect.DeepEqual(got, note) {
		t.Errorf("Note round trip = (%+v, %v)", got, err)
	}
	cut := fault.Cut{Cursor: 17, Finished: []int{1, 4, 9}}
	if got, err := DecodeCut(EncodeCut(cut)); err != nil || !reflect.DeepEqual(got, cut) {
		t.Errorf("Cut round trip = (%+v, %v)", got, err)
	}
	for _, hb := range []Heartbeat{
		{Frontier: 31, Health: csp.StageHealth{Stage: 2, FwdDone: 40, BwdDone: 33, QueueLen: 3, BwdQueueLen: 1,
			BlockedHead: 41, OwnerSubnet: 37, CacheResidentBytes: 1 << 33, LastTaskNs: 1_700_000_000_123_456_789, Wedged: true}},
		{Frontier: 0, Health: csp.StageHealth{Stage: 0, BlockedHead: -1, OwnerSubnet: -1}},
	} {
		if got, err := DecodeHeartbeat(hb.Encode()); err != nil || got != hb {
			t.Errorf("Heartbeat round trip = (%+v, %v), want %+v", got, err, hb)
		}
	}
	done := Done{Stage: 1, Completed: 64, Trace: []trace.Event{
		{Order: 0, TimeMs: 1.5, Layer: 7, Subnet: 0, Stage: 1, Kind: trace.Read},
		{Order: 3, TimeMs: 2.25, Layer: 9, Subnet: 1, Stage: 1, Kind: trace.Write},
	}}
	if got, err := DecodeDone(done.Encode()); err != nil || !reflect.DeepEqual(got, done) {
		t.Errorf("Done round trip = (%+v, %v)", got, err)
	}
	failed := Failed{Stage: 2, Seq: 11, Incarnation: 1, Kind: "crash", Msg: "injected"}
	if got, err := DecodeFailed(failed.Encode()); err != nil || got != failed {
		t.Errorf("Failed round trip = (%+v, %v)", got, err)
	}
	abort := Abort{Reason: "fleet restart"}
	if got, err := DecodeAbort(abort.Encode()); err != nil || got != abort {
		t.Errorf("Abort round trip = (%+v, %v)", got, err)
	}
}

func TestPayloadDecodeRejectsCorruption(t *testing.T) {
	checkLeaks(t)
	full := Done{Stage: 1, Completed: 2, Trace: []trace.Event{{Order: 1, Layer: 3}}}.Encode()
	structured := func(err error) bool {
		var de *DecodeError
		return errors.As(err, &de)
	}
	// Every truncation of every payload fails with a structured error.
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeDone(full[:cut]); !structured(err) {
			t.Fatalf("DecodeDone(%d-byte prefix) error = %v, want *DecodeError", cut, err)
		}
	}
	// Trailing garbage is corruption, not slack.
	beat := Heartbeat{Health: csp.StageHealth{Stage: 1}}.Encode()
	if _, err := DecodeHeartbeat(append(beat, 0xAB)); !structured(err) {
		t.Errorf("trailing byte accepted: %v", err)
	}
	// The wedged flag is one byte, 0 or 1: anything else is corruption,
	// so decode∘encode stays a fixed point.
	beat[len(beat)-1] = 2
	if _, err := DecodeHeartbeat(beat); !structured(err) {
		t.Errorf("flag byte 2 accepted: %v", err)
	}
	// A hostile repeat count cannot drive a giant allocation.
	huge := appendI64(appendInt(nil, 1), 1<<40) // Task{Seq: 1} claiming 2^40 carried releases
	if _, err := DecodeTask(huge); !structured(err) {
		t.Errorf("hostile repeat count accepted: %v", err)
	}
}

// payloadCodecs is every payload decoder paired with its encoder, keyed
// by the fuzzer's selector byte.
var payloadCodecs = []struct {
	name string
	// roundTrip decodes b and, when that succeeds, re-encodes the value.
	roundTrip func(b []byte) ([]byte, error)
}{
	{"hello", func(b []byte) ([]byte, error) { v, err := DecodeHello(b); return v.Encode(), err }},
	{"assign", func(b []byte) ([]byte, error) { v, err := DecodeAssign(b); return v.Encode(), err }},
	{"task", func(b []byte) ([]byte, error) { v, err := DecodeTask(b); return v.Encode(), err }},
	{"note", func(b []byte) ([]byte, error) { v, err := DecodeNote(b); return v.Encode(), err }},
	{"cut", func(b []byte) ([]byte, error) { v, err := DecodeCut(b); return EncodeCut(v), err }},
	{"heartbeat", func(b []byte) ([]byte, error) { v, err := DecodeHeartbeat(b); return v.Encode(), err }},
	{"done", func(b []byte) ([]byte, error) { v, err := DecodeDone(b); return v.Encode(), err }},
	{"failed", func(b []byte) ([]byte, error) { v, err := DecodeFailed(b); return v.Encode(), err }},
	{"abort", func(b []byte) ([]byte, error) { v, err := DecodeAbort(b); return v.Encode(), err }},
}

// FuzzPayloadDecode holds every payload decoder to the frame codec's
// contract: decoding never panics, a failure is a *DecodeError, and a
// successful decode re-encodes to the identical bytes. The first byte
// picks the decoder; the rest is its payload.
func FuzzPayloadDecode(f *testing.F) {
	for i, p := range [][]byte{
		Hello{RunID: "run-1", Stage: 2, Incarnation: 1, Addr: "127.0.0.1:4100"}.Encode(),
		Assign{Stage: 1, D: 2, Cursor: 3, Incarnation: 1, Spec: []byte("{}"), Peers: []string{"a:1", "b:2"}}.Encode(),
		Task{Seq: 9, Carried: []csp.PendingBackward{{Seq: 4, Precedence: 9}}}.Encode(),
		Note{Seq: 5, IDs: layerIDs(3)}.Encode(),
		EncodeCut(fault.Cut{Cursor: 4, Finished: []int{1, 3}}),
		Heartbeat{Frontier: 8, Health: csp.StageHealth{Stage: 1, FwdDone: 9, BwdDone: 8, QueueLen: 2,
			BlockedHead: 10, OwnerSubnet: 7, CacheResidentBytes: 4096, LastTaskNs: 12345, Wedged: true}}.Encode(),
		Done{Stage: 1, Completed: 2, Trace: []trace.Event{{Order: 1, TimeMs: 0.5, Layer: 3, Subnet: 1, Kind: trace.Write}}}.Encode(),
		Failed{Stage: 2, Seq: 11, Kind: "crash", Msg: "injected"}.Encode(),
		Abort{Reason: "complete"}.Encode(),
	} {
		f.Add(append([]byte{byte(i)}, p...))
	}
	// A version-2 note payload, whose flag byte after the seq reads as the
	// first byte of the ID count now: structured rejection, not a decode.
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 5, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := payloadCodecs[int(data[0])%len(payloadCodecs)]
		in := data[1:]
		out, err := c.roundTrip(in)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("%s: non-structured decode error %T: %v", c.name, err, err)
			}
			return
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("%s: decode∘encode not a fixed point:\n in  %x\n out %x", c.name, in, out)
		}
	})
}
