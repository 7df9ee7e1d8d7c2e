package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []def `json:"end_to_end"`
	PerLayer []def `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode pins BENCHMARK.json to the definitions the
// binary measures and compares by, so the two cannot drift.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs from endToEndDefs:\n%+v\n%+v", m.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs from perLayerDefs")
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, code {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
}

// exercised lists, per workload, per-layer metrics its traced pass or
// its probes must produce. A probe that silently did not run reads 0,
// the best value of a lower-is-better metric, so the smoke test requires
// these to be non-zero. Counts that may be 0 by chance at smoke size
// (parks, dropped prefetches, retransmits) are left out.
var exercised = map[string][]string{
	"pipe-local": {
		"supernet.sample_us_per_subnet", "engine.new_world_us_per_subnet", "csp.admit_ns_per_subnet",
		"engine.stage_busy_share", "engine.transfers_per_subnet", "engine.merge_stage_traces_us_per_event",
		"trace.per_layer_equal_ns_per_event", "trace.canonical_ns_per_event",
		"train.step_us_dim8", "train.step_us_dim64", "train.sequential_us_per_subnet",
		"train.replay_us_per_subnet", "train.replay_share",
	},
	"pipe-numeric": {
		"supernet.sample_us_per_subnet", "engine.new_world_us_per_subnet",
		"train.step_us_dim8", "train.step_us_dim64", "train.sequential_us_per_subnet",
		"train.replay_us_per_subnet", "train.replay_share",
		"tensor.matvec_ns_dim64", "tensor.outer_accum_ns_dim64", "tensor.checksum_ns_per_kib",
	},
	"pipe-cache": {
		"supernet.sample_us_per_subnet", "engine.new_world_us_per_subnet",
		"prefetch.hit_rate", "prefetch.swap_in_bytes_per_subnet", "prefetch.acquire_release_ns",
	},
	"pipe-thrash": {
		"supernet.sample_us_per_subnet", "engine.new_world_us_per_subnet",
		"prefetch.hit_rate", "prefetch.swap_in_bytes_per_subnet", "prefetch.acquire_release_ns",
	},
	"fleet-tcp": {
		"transport.frame_encode_ns", "transport.frame_parse_ns", "transport.chan_hop_ns",
		"transport.link_rtt_us_p50", "transport.link_frames_per_s",
		"distrib.job_fixed_ms", "distrib.link_frames_per_subnet",
		"trace.per_layer_equal_ns_per_event", "trace.canonical_ns_per_event",
		"engine.merge_stage_traces_us_per_event", "train.replay_us_per_subnet",
	},
	"ckpt-crash": {
		"fault.checkpoint_encode_ns", "fault.checkpoint_save_us", "fault.saves_per_subnet",
		"supervise.recovery_ms_p50", "supervise.restarts_per_op",
		"engine.stage_busy_share", "train.replay_us_per_subnet",
	},
	"sim-sweep": {
		"engine.new_world_us_per_subnet", "csp.admit_ns_per_subnet", "csp.sched_delay_events_per_subnet",
		"sim.run_ms_p50.naspipe", "sim.run_ms_p50.gpipe", "sim.run_ms_p50.pipedream", "sim.run_ms_p50.vpipe",
		"sim.bubble_ratio.naspipe", "sim.bubble_ratio.gpipe", "sim.bubble_ratio.pipedream", "sim.bubble_ratio.vpipe",
		"sim.samples_per_s.naspipe", "sim.samples_per_s.gpipe", "sim.samples_per_s.pipedream", "sim.samples_per_s.vpipe",
	},
}

// everyWorkload's metrics come from the passes themselves.
var everyWorkload = []string{
	"engine.run_ms_p50", "engine.run_untraced_ms_p50", "telemetry.events_per_subnet", "process.peak_rss_mb",
}

// TestSmoke runs every workload at smoke size — one untraced and one
// traced op after the warm-up — and checks that each emits exactly the
// metrics BENCHMARK.json lists, with nothing failing, and that the
// layers it is documented to exercise did report. It asserts no timing.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		res, err := runWorkload(w, params{
			seed: 1, minOps: 1, setups: 1, small: true, e2e: true, layers: true, tmp: t.TempDir(),
		})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted != 2 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		for _, c := range []struct {
			got  metrics
			want []def
		}{{res.EndToEnd, m.EndToEnd}, {res.PerLayer, m.PerLayer}} {
			if len(c.got) != len(c.want) {
				t.Errorf("%s: %d metrics emitted, %d listed", w.name, len(c.got), len(c.want))
			}
			for _, d := range c.want {
				v, ok := c.got[d.Name]
				switch {
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q is malformed", d.Name)
				case !ok:
					t.Errorf("%s: %s not emitted", w.name, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, listed %q", w.name, d.Name, v.Unit, d.Unit)
				}
			}
		}
		for _, name := range append(exercised[w.name], everyWorkload...) {
			if res.PerLayer[name].Value == 0 {
				t.Errorf("%s: %s reads 0, but the workload exercises it", w.name, name)
			}
		}
		for name, v := range res.EndToEnd {
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w.name, name, v.Value)
			}
		}
		if got := res.PerLayer["telemetry.dropped_events"].Value; got != 0 {
			t.Errorf("%s: %v telemetry events dropped", w.name, got)
		}
	}
}

// TestVerdict pins -compare's three outcomes.
func TestVerdict(t *testing.T) {
	low := def{Name: "op_ms_p50", Better: lower, Bound: 0.10}
	high := def{Name: "subnets_per_s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		d    def
		want string
	}{
		{"same", steady, steady, low, "ok"},
		{"slower", steady, []float64{112, 113, 111, 112}, low, "regressed"},
		{"faster", steady, []float64{80, 81, 79, 80}, low, "ok"},
		{"less throughput", steady, []float64{88, 89, 87, 88}, high, "regressed"},
		{"more throughput", steady, []float64{120, 121, 119, 120}, high, "ok"},
		{"too noisy to tell", []float64{80, 100, 120, 100}, steady, low, "unresolved"},
		{"too few runs to tell", []float64{100}, []float64{101}, low, "unresolved"},
		{"too few runs, but worse", []float64{100}, []float64{120}, low, "regressed"},
		{"zero bound", []float64{0}, []float64{0.1}, def{Better: lower}, "regressed"},
	} {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestTailMs pins what op_ms_p90 sees and what it ignores: ops that
// stall by themselves show, an episode that slows whole segments does
// not.
func TestTailMs(t *testing.T) {
	build := func(slowSegs, stalledOps int) []segment {
		var segs []segment
		for i := 0; i < 10; i++ {
			seg := segment{subnets: 1}
			for j := 0; j < 10; j++ {
				switch {
				case i < slowSegs:
					seg.opMs = append(seg.opMs, 20)
				case j < stalledOps:
					seg.opMs = append(seg.opMs, 50)
				default:
					seg.opMs = append(seg.opMs, 10)
				}
			}
			segs = append(segs, seg)
		}
		return segs
	}
	if got := tailMs(build(0, 2)); got != 50 {
		t.Errorf("two stalled ops in ten: op_ms_p90 = %v, want 50", got)
	}
	if got := tailMs(build(4, 0)); got != 10 {
		t.Errorf("four slow segments in ten: op_ms_p90 = %v, want 10", got)
	}
	if got := tailMs(nil); got != 0 {
		t.Errorf("no segments: op_ms_p90 = %v, want 0", got)
	}
}
