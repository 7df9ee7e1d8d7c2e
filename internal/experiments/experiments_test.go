package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestNamesDispatch(t *testing.T) {
	for _, name := range Names() {
		if _, err := Run(name, Quick()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Run("nope", Quick()); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// TestFigureCCDrawsThePipeline: figure-cc renders its timeline from its
// own bus, on an axis from the first task (stage 0's first forward) to
// the last (subnet 7's backward on stage 0), so every stage row shows
// the stream's backward passes rather than one crowded cell.
func TestFigureCCDrawsThePipeline(t *testing.T) {
	out := FigureCC(context.Background(), Quick())
	rows := 0
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "stage ") {
			continue
		}
		rows++
		if cells, ok := strings.CutPrefix(l, "stage 0 |"); ok && (cells[0] == '.' || !strings.HasSuffix(cells, "h|")) {
			t.Errorf("stage 0 row %q does not run from the first task to subnet 7's backward", l)
		}
		backward := map[rune]bool{}
		for _, c := range l {
			if c >= 'a' && c <= 'h' {
				backward[c] = true
			}
		}
		if len(backward) < 4 {
			t.Errorf("row %q shows %d of 8 backward passes", l, len(backward))
		}
	}
	if rows != 3 {
		t.Fatalf("figure-cc drew %d stage rows, want 3:\n%s", rows, out)
	}
}

func TestTable1ListsSevenSpaces(t *testing.T) {
	out := Table1(context.Background(), Quick())
	for _, sp := range []string{"NLP.c0", "NLP.c1", "NLP.c2", "NLP.c3", "CV.c1", "CV.c2", "CV.c3"} {
		if !strings.Contains(out, sp) {
			t.Errorf("Table 1 missing %s", sp)
		}
	}
}

func TestTable5ListsEightLayers(t *testing.T) {
	out := Table5(context.Background(), Quick())
	for _, l := range []string{"Conv 3x1", "Sep Conv 7x1", "Light Conv 5x1", "8 Head Attention",
		"Conv 3x3", "Sep Conv 3x3", "Sep Conv 5x5", "Dil Conv 3x3"} {
		if !strings.Contains(out, l) {
			t.Errorf("Table 5 missing %s", l)
		}
	}
	// The Conv 3x1 swap time must reproduce the measured 1.76 ms.
	if !strings.Contains(out, "1.76") {
		t.Error("Table 5 swap column lost calibration")
	}
}

func TestFigure1CSPOnlyPreserves(t *testing.T) {
	out := Figure1(context.Background(), Quick())
	lines := strings.Split(out, "\n")
	sawCSPYes, sawBSPNo := false, false
	for _, l := range lines {
		if strings.Contains(l, "CSP") && strings.Contains(l, "yes") {
			sawCSPYes = true
		}
		if strings.Contains(l, "BSP") && strings.Contains(l, "NO") {
			sawBSPNo = true
		}
	}
	if !sawCSPYes || !sawBSPNo {
		t.Errorf("Figure 1 verdicts wrong:\n%s", out)
	}
}

func TestTable3CSPReproducibleOthersNot(t *testing.T) {
	out := Table3(context.Background(), Quick())
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "CSP") && !strings.Contains(line, "yes") {
			t.Errorf("CSP row not reproducible: %s", line)
		}
		if (strings.Contains(line, "BSP") || strings.Contains(line, "ASP")) &&
			strings.Contains(line, "yes") {
			t.Errorf("baseline row claims reproducibility: %s", line)
		}
	}
}

func TestTable4SequentialOrderForNASPipe(t *testing.T) {
	out := Table4(context.Background(), Quick())
	var nasLine, seqNote string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "NASPipe") {
			nasLine = line
		}
		if strings.Contains(line, "sequential semantics:") {
			seqNote = line
		}
	}
	if nasLine == "" || seqNote == "" {
		t.Fatalf("Table 4 output malformed:\n%s", out)
	}
	seq := strings.TrimSpace(strings.SplitAfter(seqNote, "sequential semantics:")[1])
	if strings.Count(nasLine, seq) != 2 {
		t.Errorf("NASPipe orders must equal sequential on both GPU counts:\n%s", out)
	}
}

func TestArtifactCompareMatches(t *testing.T) {
	out := ArtifactCompare(context.Background(), Quick())
	if !strings.Contains(out, "50/50") {
		t.Errorf("artifact compare did not match all steps:\n%s", out)
	}
	if !strings.Contains(out, "true") {
		t.Errorf("artifact compare weights not equal:\n%s", out)
	}
}

func TestArtifactThroughputOrderingHolds(t *testing.T) {
	o := Default() // ordering needs steady-state runs; Quick is too noisy
	o.Subnets = 160
	out := ArtifactThroughput(context.Background(), o)
	if !strings.Contains(out, "HOLDS") {
		t.Errorf("throughput ordering failed:\n%s", out)
	}
}

func TestFigure5NASPipeOnlySurvivorOnC0(t *testing.T) {
	o := Quick()
	out := Figure5(context.Background(), o)
	if !strings.Contains(out, "exceeds GPU memory") {
		t.Errorf("Figure 5 should show baseline failures on NLP.c0:\n%s", out)
	}
}
