package transport

import (
	"encoding/binary"
	"math"

	"naspipe/internal/csp"
	"naspipe/internal/fault"
	"naspipe/internal/supernet"
	"naspipe/internal/trace"
)

// Payload codecs: fixed-width big-endian fields, length-prefixed
// repeats, no reflection. Every Decode* returns a *DecodeError on
// malformed input (including trailing garbage) and never panics —
// the payloads share the frame codec's fuzz contract.

type pr struct {
	b   []byte
	off int
	err error
}

func (r *pr) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.b)-r.off < n {
		r.err = decodeErrf(r.off, "payload truncated: need %d bytes, have %d", n, len(r.b)-r.off)
		return false
	}
	return true
}

func (r *pr) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *pr) i64() int64 { return int64(r.u64()) }

// flag decodes a one-byte bool; any byte but 0 or 1 is corruption.
func (r *pr) flag() bool {
	if !r.need(1) {
		return false
	}
	v := r.b[r.off]
	if v > 1 {
		r.err = decodeErrf(r.off, "flag byte %d is neither 0 nor 1", v)
		return false
	}
	r.off++
	return v == 1
}

// intv decodes an int64 that must fit the host int.
func (r *pr) intv() int { return int(r.i64()) }

// count decodes a repeat count and sanity-bounds it by the bytes that
// remain, so a corrupt length cannot drive a huge allocation.
func (r *pr) count(elemBytes int) int {
	n := r.i64()
	if r.err != nil {
		return 0
	}
	if n < 0 || elemBytes > 0 && n > int64(len(r.b)-r.off)/int64(elemBytes) {
		r.err = decodeErrf(r.off-8, "repeat count %d does not fit the remaining %d bytes", n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

func (r *pr) bytes() []byte {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	v := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return v
}

func (r *pr) str() string { return string(r.bytes()) }

// done finishes a decode: any unconsumed suffix is corruption.
func (r *pr) done() error {
	if r.err == nil && r.off != len(r.b) {
		r.err = decodeErrf(r.off, "payload has %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

func appendI64(b []byte, v int64) []byte  { return binary.BigEndian.AppendUint64(b, uint64(v)) }
func appendInt(b []byte, v int) []byte    { return appendI64(b, int64(v)) }
func appendBytes(b, v []byte) []byte      { return append(appendInt(b, len(v)), v...) }
func appendStr(b []byte, s string) []byte { return appendBytes(b, []byte(s)) }

// Hello identifies a worker on a fresh connection: which run it belongs
// to, which stage it serves, and which incarnation launched it. The
// receiving end — the coordinator, or a peer worker — refuses helloes
// from stale incarnations: a zombie from before a fleet restart cannot
// rejoin. Addr is where the worker accepts its peers' data links; a
// worker sends it to the coordinator and leaves it empty towards peers.
type Hello struct {
	RunID       string
	Stage       int
	Incarnation int
	Addr        string
}

func (h Hello) Encode() []byte {
	b := appendStr(nil, h.RunID)
	b = appendInt(b, h.Stage)
	b = appendInt(b, h.Incarnation)
	return appendStr(b, h.Addr)
}

func DecodeHello(b []byte) (Hello, error) {
	r := &pr{b: b}
	h := Hello{RunID: r.str(), Stage: r.intv(), Incarnation: r.intv(), Addr: r.str()}
	return h, r.done()
}

// Assign is the coordinator's stage assignment: the job spec (JSON, the
// versioned JobSpec the service API already speaks), the stage this
// worker owns, the pipeline depth, the resume point — the committed
// checkpoint cursor the suffix run renumbers from (SeqBase) plus the
// incarnation whose fault schedule it replays — and Peers, every
// stage's data-link address by stage, from the fleet's Hellos.
type Assign struct {
	Stage       int
	D           int
	Cursor      int
	Incarnation int
	Spec        []byte
	Peers       []string
}

func (a Assign) Encode() []byte {
	b := appendInt(nil, a.Stage)
	b = appendInt(b, a.D)
	b = appendInt(b, a.Cursor)
	b = appendInt(b, a.Incarnation)
	b = appendBytes(b, a.Spec)
	b = appendInt(b, len(a.Peers))
	for _, p := range a.Peers {
		b = appendStr(b, p)
	}
	return b
}

func DecodeAssign(b []byte) (Assign, error) {
	r := &pr{b: b}
	a := Assign{Stage: r.intv(), D: r.intv(), Cursor: r.intv(), Incarnation: r.intv(), Spec: r.bytes()}
	if n := r.count(8); n > 0 {
		a.Peers = make([]string, n)
		for i := range a.Peers {
			a.Peers[i] = r.str()
		}
	}
	return a, r.done()
}

// Task is the payload of FrameFwd and FrameBwd: the subnet sequence
// being handed to the peer stage, plus — backwards only — the carried
// releases (Algorithm 2's L_blocked hand-off) that travel with the
// gradient.
type Task struct {
	Seq     int
	Carried []csp.PendingBackward
}

func (t Task) Encode() []byte {
	b := appendInt(nil, t.Seq)
	b = appendInt(b, len(t.Carried))
	for _, c := range t.Carried {
		b = appendInt(b, c.Seq)
		b = appendInt(b, c.Precedence)
	}
	return b
}

func DecodeTask(b []byte) (Task, error) {
	r := &pr{b: b}
	t := Task{Seq: r.intv()}
	if n := r.count(16); n > 0 {
		t.Carried = make([]csp.PendingBackward, n)
		for i := range t.Carried {
			t.Carried[i] = csp.PendingBackward{Seq: r.intv(), Precedence: r.intv()}
		}
	}
	return t, r.done()
}

// Note is a write note: the subnet whose backward finished on the
// sending stage and the layers it wrote there.
type Note struct {
	Seq int
	IDs []supernet.LayerID
}

func (n Note) Encode() []byte {
	b := appendInt(nil, n.Seq)
	b = appendInt(b, len(n.IDs))
	for _, id := range n.IDs {
		b = appendInt(b, int(id))
	}
	return b
}

func DecodeNote(b []byte) (Note, error) {
	r := &pr{b: b}
	n := Note{Seq: r.intv()}
	if c := r.count(8); c > 0 {
		n.IDs = make([]supernet.LayerID, c)
		for i := range n.IDs {
			n.IDs[i] = supernet.LayerID(r.intv())
		}
	}
	return n, r.done()
}

// EncodeCut / DecodeCut carry a stage-0 consistency cut (the engine's
// fault.Cut) to the coordinator's checkpoint recorder.
func EncodeCut(c fault.Cut) []byte {
	b := appendInt(nil, c.Cursor)
	b = appendInt(b, len(c.Finished))
	for _, s := range c.Finished {
		b = appendInt(b, s)
	}
	return b
}

func DecodeCut(b []byte) (fault.Cut, error) {
	r := &pr{b: b}
	c := fault.Cut{Cursor: r.intv()}
	if n := r.count(8); n > 0 {
		c.Finished = make([]int, n)
		for i := range c.Finished {
			c.Finished[i] = r.intv()
		}
	}
	return c, r.done()
}

// Heartbeat is the worker's timer-driven liveness beacon: the committed
// frontier it has observed and its stage's health row as the worker's
// own probe last holds it — the record the in-process plane publishes,
// blocked head and precedence owner included. The coordinator publishes
// the row into the run probe and declares a worker dead when its
// beacons stop arriving before the deadline.
type Heartbeat struct {
	Frontier int
	Health   csp.StageHealth
}

func (hb Heartbeat) Encode() []byte {
	h := hb.Health
	b := appendInt(nil, hb.Frontier)
	for _, v := range [...]int{h.Stage, h.FwdDone, h.BwdDone, h.QueueLen, h.BwdQueueLen, h.BlockedHead, h.OwnerSubnet} {
		b = appendInt(b, v)
	}
	b = appendI64(b, h.CacheResidentBytes)
	b = appendI64(b, h.LastTaskNs)
	if h.Wedged {
		return append(b, 1)
	}
	return append(b, 0)
}

func DecodeHeartbeat(b []byte) (Heartbeat, error) {
	r := &pr{b: b}
	hb := Heartbeat{Frontier: r.intv(), Health: csp.StageHealth{
		Stage: r.intv(), FwdDone: r.intv(), BwdDone: r.intv(), QueueLen: r.intv(), BwdQueueLen: r.intv(),
		BlockedHead: r.intv(), OwnerSubnet: r.intv(),
		CacheResidentBytes: r.i64(), LastTaskNs: r.i64(), Wedged: r.flag(),
	}}
	return hb, r.done()
}

// Done reports a worker's clean finish: how many subnets completed on
// stage 0 (zero elsewhere) and the stage-local parameter-access trace,
// which the coordinator k-way-merges into the global observed trace for
// end-to-end verification against the sequential reference.
type Done struct {
	Stage     int
	Completed int
	Trace     []trace.Event
}

func (d Done) Encode() []byte {
	b := appendInt(nil, d.Stage)
	b = appendInt(b, d.Completed)
	b = appendInt(b, len(d.Trace))
	for _, ev := range d.Trace {
		b = appendInt(b, ev.Order)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(ev.TimeMs))
		b = appendInt(b, int(ev.Layer))
		b = appendInt(b, ev.Subnet)
		b = appendInt(b, ev.Stage)
		b = appendInt(b, int(ev.Kind))
	}
	return b
}

func DecodeDone(b []byte) (Done, error) {
	r := &pr{b: b}
	d := Done{Stage: r.intv(), Completed: r.intv()}
	if n := r.count(48); n > 0 {
		d.Trace = make([]trace.Event, n)
		for i := range d.Trace {
			d.Trace[i] = trace.Event{
				Order:  r.intv(),
				TimeMs: math.Float64frombits(r.u64()),
				Layer:  supernet.LayerID(r.intv()),
				Subnet: r.intv(),
				Stage:  r.intv(),
				Kind:   trace.AccessKind(r.intv()),
			}
		}
	}
	return d, r.done()
}

// Failed reports a worker's terminal error with the structured crash
// fields the supervision plane classifies on (mirrors fault.CrashError).
type Failed struct {
	Stage       int
	Seq         int
	Incarnation int
	Kind        string
	Msg         string
}

func (f Failed) Encode() []byte {
	b := appendInt(nil, f.Stage)
	b = appendInt(b, f.Seq)
	b = appendInt(b, f.Incarnation)
	b = appendStr(b, f.Kind)
	return appendStr(b, f.Msg)
}

func DecodeFailed(b []byte) (Failed, error) {
	r := &pr{b: b}
	f := Failed{Stage: r.intv(), Seq: r.intv(), Incarnation: r.intv(), Kind: r.str(), Msg: r.str()}
	return f, r.done()
}

// Abort tells workers to tear the incarnation down (fleet restart or
// operator stop). The reason is for the worker's log line only.
type Abort struct {
	Reason string
}

func (a Abort) Encode() []byte { return appendStr(nil, a.Reason) }

func DecodeAbort(b []byte) (Abort, error) {
	r := &pr{b: b}
	a := Abort{Reason: r.str()}
	return a, r.done()
}
