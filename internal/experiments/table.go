// The units and table rendering the experiment harness prints the
// paper's tables and figure series with; naspipe-bench renders the
// concurrent plane's per-stage tables with them too.

package experiments

import (
	"fmt"
	"strings"

	"naspipe/internal/engine"
)

// Gigabytes renders a byte count like the paper's CPU-memory column
// ("57.8G").
func Gigabytes(b int64) string {
	if b == 0 {
		return "0"
	}
	return fmt.Sprintf("%.1fG", float64(b)/float64(1<<30))
}

// Params renders a parameter byte count as a parameter-count label, the
// paper's "P.S." units (float32 parameters: bytes/4), e.g. "1327M" or
// "14.8B".
func Params(bytes int64) string {
	params := float64(bytes) / 4
	switch {
	// The paper prints subnet contexts in M up to four digits ("1327M")
	// and whole supernets in B ("14.8B"); switch units at 10B-ish.
	case params >= 5e9:
		return fmt.Sprintf("%.1fB", params/1e9)
	case params >= 1e6:
		return fmt.Sprintf("%.0fM", params/1e6)
	default:
		return fmt.Sprintf("%.0fK", params/1e3)
	}
}

// Factor renders a normalized multiple like the paper's "7.8x".
func Factor(x float64) string { return fmt.Sprintf("%.1fx", x) }

// Percent renders a ratio as "94.3%".
func Percent(x float64) string {
	if x < 0 {
		return "N/A"
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// NewTable creates a table with the given title and headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render returns the aligned text table.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ContentionTable renders per-stage contention counters with totals.
func ContentionTable(cs []engine.StageContention) string {
	tb := NewTable("per-stage contention (concurrent execution plane)",
		"Stage", "Tasks", "Parks", "Notes", "Blocked scans", "Carried")
	var tasks, parks, notes, blocked, carried int64
	for _, c := range cs {
		tb.AddRow(c.Stage, c.Tasks, c.Parks, c.Notes, c.BlockedScans, c.Carried)
		tasks += c.Tasks
		parks += c.Parks
		notes += c.Notes
		blocked += c.BlockedScans
		carried += c.Carried
	}
	tb.AddRow("total", tasks, parks, notes, blocked, carried)
	return tb.Render()
}

// CacheTable renders per-stage memory-context counters with totals and
// an aggregate hit rate. Stages with no accesses render their hit-rate
// cell as N/A rather than 0% or 100%.
func CacheTable(cs []engine.StageCache) string {
	tb := NewTable("per-stage memory context (concurrent execution plane)",
		"Stage", "Hits", "Misses", "Hit rate", "Prefetches", "Late", "Dropped", "Evictions", "Stall (ms)", "Peak")
	var tot engine.StageCache
	for _, c := range cs {
		rate := "N/A"
		if c.Hits+c.Misses > 0 {
			rate = Percent(c.HitRate())
		}
		tb.AddRow(c.Stage, c.Hits, c.Misses, rate, c.Prefetches,
			c.LatePrefetches, c.DroppedPrefetches, c.EvictionsForced,
			fmt.Sprintf("%.2f", c.StallMs), Gigabytes(c.PeakBytes))
		tot.Hits += c.Hits
		tot.Misses += c.Misses
		tot.Prefetches += c.Prefetches
		tot.LatePrefetches += c.LatePrefetches
		tot.DroppedPrefetches += c.DroppedPrefetches
		tot.EvictionsForced += c.EvictionsForced
		tot.StallMs += c.StallMs
		tot.PeakBytes += c.PeakBytes
	}
	totalRate := "N/A"
	if tot.Hits+tot.Misses > 0 {
		totalRate = Percent(tot.HitRate())
	}
	tb.AddRow("total", tot.Hits, tot.Misses, totalRate, tot.Prefetches,
		tot.LatePrefetches, tot.DroppedPrefetches, tot.EvictionsForced,
		fmt.Sprintf("%.2f", tot.StallMs), Gigabytes(tot.PeakBytes))
	return tb.Render()
}

// Series is a named sequence of (label, value) points, used for figure
// reproduction output.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Add appends a point.
func (s *Series) Add(label string, value float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, value)
}

// Render prints the series with a crude text bar per point (scaled to the
// series maximum) so figure shapes are visible in terminal output.
func (s *Series) Render() string {
	var max float64
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s --\n", s.Name)
	for i, v := range s.Values {
		bar := 0
		if max > 0 {
			bar = int(40 * v / max)
		}
		fmt.Fprintf(&b, "%-12s %10.2f  %s\n", s.Labels[i], v, strings.Repeat("#", bar))
	}
	return b.String()
}
