package engine_test

import (
	"strings"
	"testing"

	"naspipe/internal/csp"
	"naspipe/internal/engine"
)

// stageRow extracts the painted cells of one stage row from the rendered
// timeline.
func stageRow(t *testing.T, out string, stage int) string {
	t.Helper()
	prefix := "stage " + string(rune('0'+stage)) + " |"
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimSuffix(strings.TrimPrefix(line, prefix), "|")
		}
	}
	t.Fatalf("stage %d row missing in:\n%s", stage, out)
	return ""
}

// Back-to-back spans must not overlap: the end column is exclusive, so a
// task ending at t and its successor starting at t split the axis cleanly.
func TestRenderTimelineExclusiveEnd(t *testing.T) {
	spans := []engine.TaskSpan{
		{Task: csp.Task{Subnet: 1, Stage: 0, Kind: csp.Forward}, StartMs: 0, EndMs: 50},
		{Task: csp.Task{Subnet: 2, Stage: 0, Kind: csp.Forward}, StartMs: 50, EndMs: 100},
	}
	row := stageRow(t, engine.RenderTimeline(spans, 1, 10, 100), 0)
	if row != "1111122222" {
		t.Fatalf("adjacent spans overlap or leave gaps: %q", row)
	}
}

// A zero-duration (or sub-column) span still needs one visible cell, and
// a span ending exactly at totalMs must not run past the axis.
func TestRenderTimelineTinyAndEdgeSpans(t *testing.T) {
	spans := []engine.TaskSpan{
		{Task: csp.Task{Subnet: 3, Stage: 0, Kind: csp.Forward}, StartMs: 20, EndMs: 20},
		{Task: csp.Task{Subnet: 4, Stage: 1, Kind: csp.Backward}, StartMs: 90, EndMs: 100},
	}
	out := engine.RenderTimeline(spans, 2, 10, 100)
	if row := stageRow(t, out, 0); row != "..3......." {
		t.Fatalf("zero-duration span painted %q, want one cell at column 2", row)
	}
	if row := stageRow(t, out, 1); row != ".........e" {
		t.Fatalf("axis-edge span painted %q, want one cell at the last column", row)
	}
}
