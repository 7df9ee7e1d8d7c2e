package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestDisabledBusIsFreeAndNilSafe(t *testing.T) {
	var b *Bus
	allocs := testing.AllocsPerRun(1000, func() {
		b.Emit(Event{Op: OpTaskStart, Phase: PhaseBegin, Stage: 1, Subnet: 2})
		b.EmitAt(7, Event{Op: OpTaskComplete, Phase: PhaseEnd})
	})
	if allocs != 0 {
		t.Fatalf("disabled bus allocates %v per emit", allocs)
	}
	if b.Dropped() != 0 || b.Now() != 0 || b.Events() != nil {
		t.Fatal("nil bus leaked state")
	}
	if s := b.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil bus snapshot not zero: %+v", s)
	}
}

// TestRingDropCountingUnderRace hammers a tiny ring from many goroutines
// (run with -race): every emission must land in either the buffer or the
// drop counter, never blocking and never losing count, and the live op
// counters must see all of them.
func TestRingDropCountingUnderRace(t *testing.T) {
	const (
		capacity  = 64
		writers   = 8
		perWriter = 500
	)
	b := NewBus(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Hit/miss events are Arg-weighted (layer count per acquire).
				b.Emit(Event{Op: OpCacheHit, Phase: PhaseInstant, Stage: int32(w), Subnet: int32(i), Kind: KindNone, Arg: 1})
			}
		}(w)
	}
	wg.Wait()
	total := writers * perWriter
	if got := len(b.Events()); got != capacity {
		t.Fatalf("ring kept %d events, want capacity %d", got, capacity)
	}
	if got := int(b.Dropped()); got != total-capacity {
		t.Fatalf("dropped %d, want %d", got, total-capacity)
	}
	if got := b.Count(OpCacheHit); got != int64(total) {
		t.Fatalf("live counter saw %d, want %d (counters must advance past a full ring)", got, total)
	}
	if s := b.Snapshot(); s.Emitted != uint64(total) || s.CacheHits != int64(total) {
		t.Fatalf("snapshot disagrees: %+v", s)
	}
}

func TestSnapshotProgressLine(t *testing.T) {
	b := NewBus(16)
	b.Emit(Event{Op: OpTaskStart, Phase: PhaseBegin, Subnet: 0, Kind: KindForward})
	b.Emit(Event{Op: OpCacheHit, Phase: PhaseInstant, Subnet: -1, Kind: KindNone, Arg: 1})
	b.Emit(Event{Op: OpCacheMiss, Phase: PhaseInstant, Subnet: -1, Kind: KindNone, Arg: 1})
	b.EmitAt(b.Now(), Event{Op: OpCacheStall, Phase: PhaseInstant, Arg: 3_000_000})
	s := b.Snapshot()
	if s.Started != 1 || s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("counters wrong: %+v", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", got)
	}
	if (Snapshot{}).HitRate() != -1 {
		t.Fatal("no-access hit rate must be the -1 N/A sentinel")
	}
	line := s.String()
	for _, want := range []string{"tasks 1/0", "cache 50.0% hit", "3.0 stall ms", "events 4 (0 dropped)"} {
		if !strings.Contains(line, want) {
			t.Fatalf("progress line %q missing %q", line, want)
		}
	}
}

func TestOpAndPhaseWireNamesRoundTrip(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Fatalf("op %v does not round-trip (got %v ok=%v)", op, got, ok)
		}
	}
	for _, ph := range []Phase{PhaseInstant, PhaseBegin, PhaseEnd, PhaseFlowBegin, PhaseFlowEnd} {
		got, ok := PhaseByName(ph.String())
		if !ok || got != ph {
			t.Fatalf("phase %v does not round-trip", ph)
		}
	}
	if _, ok := OpByName("nope"); ok {
		t.Fatal("unknown op resolved")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{TsNs: 10, Op: OpTaskStart, Phase: PhaseBegin, Stage: 0, Worker: WorkerStage, Subnet: 3, Kind: KindForward},
		{TsNs: 20, Op: OpCacheStall, Phase: PhaseInstant, Stage: 1, Worker: WorkerMem, Subnet: -1, Kind: KindNone, Arg: 42},
		{TsNs: 30, Op: OpTransferSend, Phase: PhaseFlowBegin, Stage: 0, Worker: WorkerStage, Subnet: 3, Kind: KindBackward, Arg: FlowID(KindBackward, 3, 0)},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("event %d changed: %+v -> %+v", i, in[i], out[i])
		}
	}
	if _, err := ReadJSONL(strings.NewReader(`{"op":"made-up","ph":"i"}`)); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestFlowIDDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for _, kind := range []int8{KindForward, KindBackward} {
		for subnet := int32(0); subnet < 20; subnet++ {
			for stage := int32(0); stage < 8; stage++ {
				id := FlowID(kind, subnet, stage)
				if seen[id] {
					t.Fatalf("flow id collision at kind=%d subnet=%d stage=%d", kind, subnet, stage)
				}
				seen[id] = true
			}
		}
	}
}
