package engine

import (
	"fmt"
	"strings"

	"naspipe/internal/csp"
)

// RenderTimeline draws an ASCII Gantt chart of a run's task spans, one
// row per stage, like the paper's Figure 1 pipeline diagrams. Forward
// tasks print their subnet's digit ('0'–'9', modulo 10), backward tasks
// the corresponding letter ('a'–'j'), and idle time '.'; preemption shows
// as overlapping spans resolved in favour of the later (backward) task.
// width is the number of character columns for the time axis.
func RenderTimeline(spans []TaskSpan, stages, width int, totalMs float64) string {
	if width <= 0 {
		width = 72
	}
	if totalMs <= 0 {
		for _, s := range spans {
			if s.EndMs > totalMs {
				totalMs = s.EndMs
			}
		}
	}
	if totalMs <= 0 {
		return "(empty timeline)\n"
	}
	rows := make([][]byte, stages)
	for k := range rows {
		rows[k] = []byte(strings.Repeat(".", width))
	}
	col := func(t float64) int {
		c := int(t / totalMs * float64(width))
		if c < 0 {
			c = 0
		}
		if c > width {
			c = width
		}
		return c
	}
	glyph := func(t csp.Task) byte {
		if t.Kind == csp.Forward {
			return byte('0' + t.Subnet%10)
		}
		return byte('a' + t.Subnet%10)
	}
	// Paint forwards first so backwards (which preempt) overwrite them.
	for pass := 0; pass < 2; pass++ {
		for _, s := range spans {
			if (pass == 0) != (s.Task.Kind == csp.Forward) {
				continue
			}
			if s.Task.Stage < 0 || s.Task.Stage >= stages {
				continue
			}
			g := glyph(s.Task)
			// Exclusive end column: a span owns [lo, hi) so back-to-back
			// tasks never overwrite each other's last cell, with a one-cell
			// minimum so short tasks stay visible.
			lo, hi := col(s.StartMs), col(s.EndMs)
			if lo >= width {
				lo = width - 1
			}
			if hi <= lo {
				hi = lo + 1
			}
			for c := lo; c < hi; c++ {
				rows[s.Task.Stage][c] = g
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time -> 0 .. %.0f ms  (digits: forward of subnet N, letters: backward, '.': idle)\n", totalMs)
	for k := stages - 1; k >= 0; k-- {
		fmt.Fprintf(&b, "stage %d |%s|\n", k, rows[k])
	}
	return b.String()
}
