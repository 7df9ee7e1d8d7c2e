package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// stream builds a small two-stage run by hand: a forward span with a
// nested stall on stage 0, a preempted/resumed forward on stage 1, and a
// flow arrow between them.
func testStream() []Event {
	f := func(ts int64, op Op, ph Phase, stage, subnet int32, kind int8, arg int64) Event {
		return Event{TsNs: ts, Op: op, Phase: ph, Stage: stage, Worker: WorkerStage, Subnet: subnet, Kind: kind, Arg: arg}
	}
	flow := FlowID(KindForward, 7, 0)
	return []Event{
		f(100, OpTaskStart, PhaseBegin, 0, 7, KindForward, 0),
		f(120, OpCacheStall, PhaseBegin, 0, 7, KindForward, 30),
		f(150, OpCacheStall, PhaseEnd, 0, 7, KindForward, 30),
		f(190, OpTransferSend, PhaseFlowBegin, 0, 7, KindForward, flow),
		f(200, OpTaskComplete, PhaseEnd, 0, 7, KindForward, 0),
		f(210, OpTaskStart, PhaseBegin, 1, 7, KindForward, 0),
		f(215, OpTransferRecv, PhaseFlowEnd, 1, 7, KindForward, flow),
		f(230, OpTaskPreempt, PhaseEnd, 1, 7, KindForward, 0),
		f(231, OpTaskStart, PhaseBegin, 1, 5, KindBackward, 0),
		f(260, OpTaskComplete, PhaseEnd, 1, 5, KindBackward, 0),
		f(261, OpTaskResume, PhaseBegin, 1, 7, KindForward, 0),
		f(300, OpTaskComplete, PhaseEnd, 1, 7, KindForward, 0),
		f(305, OpSchedDelay, PhaseInstant, 1, 9, KindForward, 5),
	}
}

func TestChromeTraceExportAndValidate(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, testStream()); err != nil {
		t.Fatal(err)
	}
	st, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exporter output does not validate: %v\n%s", err, buf.String())
	}
	// Spans: F7@0, stall@0, B5@1, and F7@1 split into two slices by the
	// preemption = 5 complete events, 4 of them tasks.
	if st.Complete != 5 || st.TaskX != 4 {
		t.Fatalf("complete=%d taskX=%d, want 5/4\n%s", st.Complete, st.TaskX, buf.String())
	}
	if st.FlowBegin != 1 || st.FlowEnd != 1 {
		t.Fatalf("flows %d/%d, want 1/1", st.FlowBegin, st.FlowEnd)
	}
	if st.Stages != 2 {
		t.Fatalf("stages %d, want 2", st.Stages)
	}
	if st.Instant != 1 {
		t.Fatalf("instants %d, want 1", st.Instant)
	}
	for _, want := range []string{`"F7"`, `"B5"`, `"stall"`, `"stage 0"`, `"stage 1"`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("trace missing %s", want)
		}
	}
}

func TestChromeTraceClosesUnmatchedSpans(t *testing.T) {
	evs := []Event{
		{TsNs: 10, Op: OpTaskStart, Phase: PhaseBegin, Stage: 0, Subnet: 1, Kind: KindForward},
		{TsNs: 50, Op: OpSchedDelay, Phase: PhaseInstant, Stage: 0, Subnet: -1, Kind: KindNone},
		// End without begin (ring dropped the begin): must be ignored.
		{TsNs: 60, Op: OpTaskComplete, Phase: PhaseEnd, Stage: 0, Subnet: 2, Kind: KindBackward},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	st, err := ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Complete != 1 {
		t.Fatalf("complete=%d, want 1 (open span closed at last ts)", st.Complete)
	}
}

// A crash or cancellation can leave a transfer sent and never received;
// the arrow missing its head is dropped, so the trace still validates.
func TestChromeTraceDropsUnmatchedFlows(t *testing.T) {
	sent, lost := FlowID(KindForward, 1, 0), FlowID(KindForward, 2, 0)
	evs := []Event{
		{TsNs: 10, Op: OpTaskStart, Phase: PhaseBegin, Stage: 0, Subnet: 1, Kind: KindForward},
		{TsNs: 20, Op: OpTransferSend, Phase: PhaseFlowBegin, Stage: 0, Subnet: 1, Kind: KindForward, Arg: sent},
		{TsNs: 30, Op: OpTaskComplete, Phase: PhaseEnd, Stage: 0, Subnet: 1, Kind: KindForward},
		{TsNs: 40, Op: OpTaskStart, Phase: PhaseBegin, Stage: 0, Subnet: 2, Kind: KindForward},
		{TsNs: 50, Op: OpTransferSend, Phase: PhaseFlowBegin, Stage: 0, Subnet: 2, Kind: KindForward, Arg: lost},
		{TsNs: 60, Op: OpTaskComplete, Phase: PhaseEnd, Stage: 0, Subnet: 2, Kind: KindForward},
		{TsNs: 70, Op: OpTaskStart, Phase: PhaseBegin, Stage: 1, Subnet: 1, Kind: KindForward},
		{TsNs: 80, Op: OpTransferRecv, Phase: PhaseFlowEnd, Stage: 1, Subnet: 1, Kind: KindForward, Arg: sent},
		{TsNs: 90, Op: OpTaskComplete, Phase: PhaseEnd, Stage: 1, Subnet: 1, Kind: KindForward},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	st, err := ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.FlowBegin != 1 || st.FlowEnd != 1 {
		t.Fatalf("flows %d/%d, want the one matched arrow", st.FlowBegin, st.FlowEnd)
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	if _, err := ValidateChromeTrace(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ValidateChromeTrace(strings.NewReader("[]")); err == nil {
		t.Fatal("empty trace accepted (no complete events)")
	}
	backwards := `[
{"name":"a","ph":"X","ts":100,"dur":1,"pid":0,"tid":0},
{"name":"b","ph":"X","ts":50,"dur":1,"pid":0,"tid":0}
]`
	if _, err := ValidateChromeTrace(strings.NewReader(backwards)); err == nil {
		t.Fatal("non-monotonic per-thread timestamps accepted")
	}
}
