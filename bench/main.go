// Command bench is the repository's performance ledger: seven workloads
// that each load a different set of layers, eight end-to-end metrics
// per workload measured with telemetry off, and a separate traced pass
// plus standalone timed calls that break an op down by layer. Every
// layer is measured from outside, through its public functions and the
// telemetry bus the program already has; nothing in the program knows
// it is being benchmarked. See README.md beside this file.
//
//	go run ./bench -seed 1                      # all workloads, both passes
//	go run ./bench -seed 1 -workload pipe-local # one workload
//	go run ./bench -seed 1 -out set1.json       # append the run to a ledger file
//	go run ./bench -compare set1.json set2.json # judge two sets of runs
//
// The driver contract (see BENCHMARK.json) is the single-workload form:
// -workload W -seed N -seconds S -trace 0|1, whose last stdout line is
// one JSON object {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// minOps is how many ops every pass runs at least, however short the
// window: one op's time is not a median.
const minOps = 2

// buildDir is where everything the benchmark writes goes: temp dirs,
// the default span file, and (via run.sh) the binary and build cache.
const buildDir = ".bench_build"

// host describes where a run was taken; numbers from different hosts
// are not comparable.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func readHost() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown",
	}
	// Outside a git checkout (the driver's copy) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// run is one invocation's record in a ledger file.
type run struct {
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Host      host      `json:"host"`
	Workloads []*result `json:"workloads"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// ledger is a set of runs: what -out appends to and -compare reads.
type ledger struct {
	Runs []run `json:"runs"`
}

func readLedger(path string) (ledger, error) {
	var l ledger
	buf, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(buf, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

func appendLedger(path string, r run) error {
	l, err := readLedger(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	l.Runs = append(l.Runs, r)
	buf, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func printMetrics(workload string, m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-12s %-42s %16.6g %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "workload seed; streams use seed..seed+7")
		name     = flag.String("workload", "", "run only this workload (default: all)")
		seconds  = flag.Float64("seconds", 10, "timed window per workload")
		trace    = flag.String("trace", "", "0: end-to-end metrics only, 1: per-layer metrics only (default: both)")
		out      = flag.String("out", "", "append this run to a ledger file")
		traceOut = flag.String("trace-out", filepath.Join(buildDir, "spans.jsonl"), "write the traced pass's spans here at exit (empty: don't)")
		compare  = flag.Bool("compare", false, "compare two ledger files given as arguments; exit 1 on a regression")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareLedgers(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != "" && *trace != "0" && *trace != "1") {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fatal(err)
	}

	pr := params{
		seed: *seed, seconds: *seconds, minOps: minOps, setups: 1, tmp: tmp,
		e2e: *trace != "1", layers: *trace != "0",
	}
	if pr.e2e { // setup_s is reported: make it a median
		pr.setups, pr.setupFill = 3, time.Second
	}
	rec := run{Seed: *seed, Seconds: *seconds, Host: readHost()}
	var spans []span
	failed := 0
	for _, w := range selected {
		res, err := runWorkload(w, pr)
		if err != nil {
			fatal(err)
		}
		printMetrics(w.name, res.EndToEnd)
		fmt.Printf("%-12s %-42s %16.6g share (%d of %d ops; %d timed)\n",
			w.name, "failed_ops_share", res.FailedShare(), res.Failed, res.Attempted, res.Ops)
		printMetrics(w.name, res.PerLayer)
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
		}
		failed += res.Failed
		spans = append(spans, res.spans...)
		rec.Workloads = append(rec.Workloads, res)
	}
	if pr.layers && *traceOut != "" {
		if err := writeSpans(*traceOut, spans); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := appendLedger(*out, rec); err != nil {
			fatal(err)
		}
	}
	if len(selected) == 1 {
		printDriverLine(rec.Workloads[0])
	} else {
		fmt.Printf("host: %+v\n", rec.Host)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// printDriverLine prints the single-workload result in the driver's
// shape. The metrics are whichever passes ran: end-to-end with -trace 0,
// per-layer with -trace 1.
func printDriverLine(res *result) {
	m := metrics{}
	for k, v := range res.EndToEnd {
		m[k] = v
	}
	for k, v := range res.PerLayer {
		m[k] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, m})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
