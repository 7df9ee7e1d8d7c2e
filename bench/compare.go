package main

import (
	"fmt"
	"os"
	"sort"
)

// minSpreadRuns is the fewest runs a set's spread is estimated from:
// with two the quartiles are an extrapolation, with three the full range.
const minSpreadRuns = 4

// quartileSpread is the distance between the first and third quartile
// of xs (exclusive method, as Python's statistics.quantiles(n=4))
// relative to the median. It needs minSpreadRuns values.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		return -spread
	}
	return spread
}

// series collects one metric's value on one workload across a ledger's
// runs. pick selects the metric from a workload result.
func series(l ledger, workload string, pick func(*result) (float64, bool)) []float64 {
	var xs []float64
	for _, r := range l.Runs {
		for _, w := range r.Workloads {
			if w.Workload != workload {
				continue
			}
			if v, ok := pick(w); ok {
				xs = append(xs, v)
			}
		}
	}
	return xs
}

// verdict judges set B against baseline set A for one metric on one
// workload: regressed when B's median is worse than A's by more than
// the bound; unresolved when it is not but either set's own spread is
// wider than the bound, or unknown because the set has fewer than
// minSpreadRuns runs, so "no worse" cannot be told from noise. A metric
// with bound 0 is exact and needs no spread.
func verdict(a, b []float64, d def) string {
	ma, mb := median(a), median(b)
	worse := mb - ma
	if d.Better == higher {
		worse = ma - mb
	}
	switch {
	case worse > d.Bound*ma:
		return "regressed"
	case d.Bound == 0:
		return "ok"
	case len(a) < minSpreadRuns || len(b) < minSpreadRuns:
		return "unresolved"
	case quartileSpread(a) > d.Bound || quartileSpread(b) > d.Bound:
		return "unresolved"
	}
	return "ok"
}

// compareLedgers prints one row per (workload, end-to-end metric) and
// returns the process exit code: 1 if any row regressed.
func compareLedgers(pathA, pathB string) int {
	a, err := readLedger(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readLedger(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareSets(a, b)
}

func compareSets(a, b ledger) int {
	// failed_ops_share may not rise at all.
	defs := append([]def{{Name: "failed_ops_share", Unit: "share", Better: lower}}, endToEndDefs...)
	regressed := 0
	fmt.Printf("%-12s %-20s %14s %14s %6s  %s\n", "workload", "metric", "median A", "median B", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range defs {
			d := d
			pick := func(r *result) (float64, bool) {
				if d.Name == "failed_ops_share" {
					return r.FailedShare(), r.Attempted > 0
				}
				v, ok := r.EndToEnd[d.Name]
				return v.Value, ok
			}
			xa, xb := series(a, w.name, pick), series(b, w.name, pick)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := verdict(xa, xb, d)
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("%-12s %-20s %14.6g %14.6g %5.0f%%  %s (%d vs %d runs)\n",
				w.name, d.Name, median(xa), median(xb), d.Bound*100, v, len(xa), len(xb))
		}
	}
	if regressed > 0 {
		fmt.Printf("%d rows regressed\n", regressed)
		return 1
	}
	return 0
}
