package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named measurement. Every number the benchmark prints is
// one of these, so the ledger file, the driver line, and -compare all
// read the same shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// quantile returns the q-quantile of xs by nearest rank on a sorted
// copy; 0 for an empty sample so an unexercised layer reads as 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is a point-in-time copy of the process counters the end-to-end
// cost metrics are deltas of.
type usage struct {
	mallocs, bytes uint64
	gcPauseNs      uint64
	cpu            time.Duration // user+sys
	maxRSSKB       int64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs,
		cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSKB: int64(ru.Maxrss),
	}
}

// span is one timed call made by the benchmark into a layer. Spans of
// one op share Op; Parent names the enclosing span ("" for the op
// itself). They are kept in memory and written once, at exit.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}

// timeLoop calls f repeatedly for at least minIters iterations and
// minDur of wall time and returns the mean nanoseconds per call — the
// standalone-probe timer. Per-call clocks would dominate calls this
// short, so the loop is timed as a whole.
func timeLoop(minIters int, minDur time.Duration, f func()) float64 {
	f() // warm caches and lazy pools
	n := 0
	start := time.Now()
	for {
		for i := 0; i < minIters; i++ {
			f()
		}
		n += minIters
		if el := time.Since(start); el >= minDur {
			return float64(el.Nanoseconds()) / float64(n)
		}
	}
}
