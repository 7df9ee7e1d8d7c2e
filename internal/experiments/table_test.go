package experiments

import (
	"strings"
	"testing"

	"naspipe/internal/engine"
	"naspipe/internal/memctx"
)

func TestGigabytes(t *testing.T) {
	if Gigabytes(0) != "0" {
		t.Fatal("zero bytes")
	}
	if got := Gigabytes(57<<30 + 1<<29); got != "57.5G" {
		t.Fatalf("got %q", got)
	}
}

func TestParams(t *testing.T) {
	if got := Params(4 * 1327 * 1000 * 1000); got != "1327M" {
		t.Fatalf("got %q", got)
	}
	if got := Params(4 * 14_800_000_000); got != "14.8B" {
		t.Fatalf("got %q", got)
	}
	if got := Params(4 * 900_000); got != "900K" {
		t.Fatalf("got %q", got)
	}
}

func TestFactorAndPercent(t *testing.T) {
	if Factor(7.84) != "7.8x" {
		t.Fatal("factor format")
	}
	if Percent(0.943) != "94.3%" {
		t.Fatal("percent format")
	}
	if Percent(-1) != "N/A" {
		t.Fatal("negative percent must render N/A")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "Space", "System", "Value")
	tb.AddRow("NLP.c1", "NASPipe", 1.5)
	tb.AddRow("NLP.c1", "GPipe", 42)
	tb.AddNote("calibrated against Table 2")
	out := tb.Render()
	for _, want := range []string{"== Demo ==", "Space", "NASPipe", "1.50", "42", "note: calibrated"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: header and first row's second column start at the
	// same offset.
	lines := strings.Split(out, "\n")
	if strings.Index(lines[1], "System") != strings.Index(lines[3], "NASPipe") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestSeriesRender(t *testing.T) {
	var s Series
	s.Name = "throughput"
	s.Add("a", 10)
	s.Add("b", 40)
	out := s.Render()
	if !strings.Contains(out, "throughput") || !strings.Contains(out, "########") {
		t.Fatalf("series render:\n%s", out)
	}
	if strings.Count(strings.Split(out, "\n")[2], "#") != 40 {
		t.Fatalf("max bar should be 40 hashes:\n%s", out)
	}
}

func TestSeriesEmptySafe(t *testing.T) {
	var s Series
	s.Name = "empty"
	if out := s.Render(); !strings.Contains(out, "empty") {
		t.Fatal("empty series render broken")
	}
}

// TestCacheTable pins the rendered bytes: an idle stage's hit-rate cell is
// N/A (not 0% or 100%) and the totals row aggregates only active stages.
func TestCacheTable(t *testing.T) {
	got := CacheTable([]engine.StageCache{
		{Stage: 0, Stats: memctx.Stats{Hits: 90, Misses: 10, Prefetches: 80, LatePrefetches: 4,
			DroppedPrefetches: 3, EvictionsForced: 7, StallMs: 1.25, PeakBytes: 1 << 30}},
		{Stage: 1},
	})
	const want = "== per-stage memory context (concurrent execution plane) ==\n" +
		"Stage  Hits  Misses  Hit rate  Prefetches  Late  Dropped  Evictions  Stall (ms)  Peak\n" +
		"-----  ----  ------  --------  ----------  ----  -------  ---------  ----------  ----\n" +
		"0      90    10      90.0%     80          4     3        7          1.25        1.0G\n" +
		"1      0     0       N/A       0           0     0        0          0.00        0   \n" +
		"total  90    10      90.0%     80          4     3        7          1.25        1.0G\n"
	if got != want {
		t.Fatalf("cache table changed:\n%s\nwant:\n%s", got, want)
	}
}

func TestContentionTableCarriedColumn(t *testing.T) {
	out := ContentionTable([]engine.StageContention{
		{Stage: 0, Tasks: 4},
		{Stage: 1, Tasks: 4, Carried: 7},
	})
	if !strings.Contains(out, "Carried") || !strings.Contains(out, "7") {
		t.Fatalf("contention table missing carried column:\n%s", out)
	}
}
