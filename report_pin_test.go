package naspipe

// Report pins: the simulated plane reproduces the paper's tables and
// figures as a pure function of the schedule, so the rendered experiment
// report is a byte-for-byte fingerprint of the simulator. The quick-scale
// report is committed as a golden file, so a change shows as a diff; the
// default-scale report is pinned by length and hash. Regenerate the
// golden only for an intentional model change, and say which figures
// moved:
//
//	go test -run TestQuickReportGolden -update-report .

import (
	"context"
	"flag"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

var updateReport = flag.Bool("update-report", false, "rewrite testdata/experiments_quick.golden")

func TestQuickReportGolden(t *testing.T) {
	got := allReport(t, QuickExperimentOptions())
	path := filepath.Join("testdata", "experiments_quick.golden")
	if *updateReport {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		diffReport(t, string(want), got)
	}
}

func TestDefaultReportHash(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale report takes seconds")
	}
	got := allReport(t, DefaultExperimentOptions())
	h := fnv.New64a()
	h.Write([]byte(got))
	if n, sum := len(got), h.Sum64(); n != 20024 || sum != 0x29ec6f4dae27f317 {
		t.Fatalf("default-scale report changed: %d bytes, fnv64a %016x (pinned: 20024 bytes, 29ec6f4dae27f317)", n, sum)
	}
}

// allReport renders the whole evaluation suite.
func allReport(t *testing.T, o ExperimentOptions) string {
	t.Helper()
	out, err := AllExperimentsContext(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// diffReport fails with the first differing line of two reports.
func diffReport(t *testing.T, want, got string) {
	t.Helper()
	line, i := 1, 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		if want[i] == '\n' {
			line++
		}
		i++
	}
	t.Fatalf("quick-scale report differs from the golden at line %d:\nwant: %q\n got: %q",
		line, excerpt(want, i), excerpt(got, i))
}

// excerpt returns the line of s containing byte offset i.
func excerpt(s string, i int) string {
	lo, hi := i, i
	for lo > 0 && s[lo-1] != '\n' {
		lo--
	}
	for hi < len(s) && s[hi] != '\n' {
		hi++
	}
	return s[lo:hi]
}
