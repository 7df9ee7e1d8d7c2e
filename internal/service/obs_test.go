package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"regexp"
	"strings"
	"testing"

	"naspipe/internal/obs"
	"naspipe/internal/telemetry"
)

// sampleSet indexes a scrape for assertion lookups.
type sampleSet []obs.Sample

func (ss sampleSet) find(name string, labels map[string]string) (obs.Sample, bool) {
	for _, s := range ss {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s, true
		}
	}
	return obs.Sample{}, false
}

func (ss sampleSet) value(t *testing.T, name string, labels map[string]string) float64 {
	t.Helper()
	s, ok := ss.find(name, labels)
	if !ok {
		t.Fatalf("scrape is missing %s%v", name, labels)
	}
	return s.Value
}

// TestMetricsEndToEnd is the acceptance check in test form: one daemon
// with the full observability plane, a crash-injected supervised job
// and a plain one from two tenants, then a single GET /metrics scrape
// that must cover the service, scheduler, supervision, and telemetry
// planes with per-tenant labels — and a log stream where every record
// about a job carries its API job ID.
func TestMetricsEndToEnd(t *testing.T) {
	reg := obs.New()
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	sched, err := NewScheduler(SchedulerConfig{
		StateDir: t.TempDir(), Workers: 2,
		Metrics: reg, Logger: logger,
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	addr, shutdown, err := telemetry.Serve("127.0.0.1:0", NewServer(sched).WithObs(reg, logger))
	if err != nil {
		sched.Close()
		t.Fatalf("Serve: %v", err)
	}
	defer func() { shutdown(); sched.Close() }()
	c := NewClient("http://" + addr)
	ctx := context.Background()

	crash := verifyJobSpec("tenant-a", 41)
	crash.Faults = "seed=7,crashat=2:5:F"
	crashSt, err := c.Submit(ctx, crash)
	if err != nil {
		t.Fatalf("submit crash job: %v", err)
	}
	plainSt, err := c.Submit(ctx, verifyJobSpec("tenant-b", 42))
	if err != nil {
		t.Fatalf("submit plain job: %v", err)
	}
	for _, id := range []string{crashSt.ID, plainSt.ID} {
		final, err := c.Wait(ctx, id, 0)
		if err != nil || final.State != StateDone {
			t.Fatalf("job %s: state %v err %v", id, final.State, err)
		}
	}

	samples, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	ss := sampleSet(samples)

	// Scheduler plane, with per-tenant labels.
	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		if v := ss.value(t, "naspipe_sched_submitted_total", map[string]string{"tenant": tenant}); v != 1 {
			t.Errorf("submitted_total{tenant=%s} = %v, want 1", tenant, v)
		}
		if v := ss.value(t, "naspipe_sched_jobs_total", map[string]string{"tenant": tenant, "state": "done"}); v != 1 {
			t.Errorf("jobs_total{tenant=%s,state=done} = %v, want 1", tenant, v)
		}
	}
	if v := ss.value(t, "naspipe_sched_run_seconds_count", nil); v < 2 {
		t.Errorf("run_seconds_count = %v, want >= 2", v)
	}
	if v := ss.value(t, "naspipe_sched_queue_wait_seconds_count", nil); v < 2 {
		t.Errorf("queue_wait_seconds_count = %v, want >= 2", v)
	}
	ss.value(t, "naspipe_sched_queue_depth", nil)
	ss.value(t, "naspipe_sched_worker_slots", nil)
	if v := ss.value(t, "naspipe_sched_run_ewma_seconds", nil); v <= 0 {
		t.Errorf("run_ewma_seconds = %v, want > 0 after completed runs", v)
	}

	// Supervision plane: the injected crash must show up as a restart,
	// an incident, and state-machine edges.
	if v := ss.value(t, "naspipe_supervise_restarts_total", nil); v < 1 {
		t.Errorf("restarts_total = %v, want >= 1", v)
	}
	if v := ss.value(t, "naspipe_supervise_incidents_total", map[string]string{"kind": "crash"}); v < 1 {
		t.Errorf("incidents_total{kind=crash} = %v, want >= 1", v)
	}
	if v := ss.value(t, "naspipe_supervise_transitions_total", map[string]string{"to": "recovering"}); v < 1 {
		t.Errorf("transitions_total{to=recovering} = %v, want >= 1", v)
	}

	// Telemetry plane rollup: both finished buses folded in.
	if v := ss.value(t, "naspipe_telemetry_events_emitted_total", nil); v <= 0 {
		t.Errorf("events_emitted_total = %v, want > 0", v)
	}
	ss.value(t, "naspipe_telemetry_events_dropped_total", nil)

	// Service plane: the HTTP layer counted its own requests, including
	// per-route templates (submit and status both ran).
	if v := ss.value(t, "naspipe_service_requests_total",
		map[string]string{"route": "/v1/jobs", "method": "POST", "code": "201"}); v != 2 {
		t.Errorf("requests_total{/v1/jobs,POST,201} = %v, want 2", v)
	}
	if _, ok := ss.find("naspipe_service_requests_total",
		map[string]string{"route": "/v1/jobs/{id}", "method": "GET", "code": "200"}); !ok {
		t.Error("scrape is missing requests_total for the status route template")
	}
	if v := ss.value(t, "naspipe_service_request_seconds_count", nil); v <= 0 {
		t.Errorf("request_seconds_count = %v, want > 0", v)
	}

	// Log correlation: every scheduler/supervision record about a job
	// carries its job ID, and both jobs' full lifecycles are greppable by
	// ID alone.
	perJob := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		msg, _ := rec["msg"].(string)
		switch msg {
		case "job submitted", "job running", "job finished", "job recovered",
			"resume queued", "cancel requested", "health transition", "incident":
			id, _ := rec["job"].(string)
			if id == "" {
				t.Errorf("log record %q lacks a job ID: %s", msg, line)
				continue
			}
			perJob[id] = append(perJob[id], msg)
		}
	}
	for _, id := range []string{crashSt.ID, plainSt.ID} {
		msgs := strings.Join(perJob[id], ",")
		for _, want := range []string{"job submitted", "job running", "job finished"} {
			if !strings.Contains(msgs, want) {
				t.Errorf("job %s lifecycle log is missing %q (got %s)", id, want, msgs)
			}
		}
	}
	if !strings.Contains(strings.Join(perJob[crashSt.ID], ","), "incident") {
		t.Errorf("crash job %s has no incident record (got %v)", crashSt.ID, perJob[crashSt.ID])
	}
}

// TestMetricNamingConvention lints every family a fully-wired daemon
// registers against the repo convention:
// naspipe_<plane>_<name>[_unit], plane ∈ {service, sched, supervise,
// telemetry}; counters end in _total; histograms measure durations and
// end in _seconds. Every op the bus counts is among them.
func TestMetricNamingConvention(t *testing.T) {
	reg := obs.New()
	sched, err := NewScheduler(SchedulerConfig{StateDir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	defer sched.Close()
	NewServer(sched).WithObs(reg, nil)

	nameRe := regexp.MustCompile(`^naspipe_(service|sched|supervise|telemetry)_[a-z0-9]+(_[a-z0-9]+)*$`)
	fams := reg.Families()
	if len(fams) < 15 {
		t.Fatalf("only %d families registered; the daemon wires more than that", len(fams))
	}
	names := strings.Join(reg.Names(), " ") + " "
	for op := telemetry.Op(0); !strings.HasPrefix(op.String(), "op("); op++ {
		want := "naspipe_telemetry_" + strings.ReplaceAll(op.String(), "-", "_") + "_total "
		if !strings.Contains(names, want) {
			t.Errorf("no family %sfor bus op %s", want, op)
		}
	}
	for _, want := range []string{"cache_stall_seconds", "events_emitted", "events_dropped", "batch_flushes"} {
		if !strings.Contains(names, "naspipe_telemetry_"+want+"_total ") {
			t.Errorf("no family naspipe_telemetry_%s_total for the bus-level counter", want)
		}
	}
	for _, f := range fams {
		if !nameRe.MatchString(f.Name) {
			t.Errorf("%s: not of the form naspipe_<plane>_<name>", f.Name)
		}
		if f.Help == "" {
			t.Errorf("%s: empty help string", f.Name)
		}
		switch f.Kind {
		case obs.KindCounter:
			if !strings.HasSuffix(f.Name, "_total") {
				t.Errorf("%s: counter without _total suffix", f.Name)
			}
		case obs.KindHistogram:
			if !strings.HasSuffix(f.Name, "_seconds") {
				t.Errorf("%s: duration histogram without _seconds suffix", f.Name)
			}
		case obs.KindGauge:
			if strings.HasSuffix(f.Name, "_total") {
				t.Errorf("%s: gauge with a counter's _total suffix", f.Name)
			}
		}
		for _, l := range f.Labels {
			if l == "le" || l == "quantile" {
				t.Errorf("%s: reserved label %q", f.Name, l)
			}
		}
	}
}

// TestListStatsExposure checks satellite (c): the /v1 list carries the
// scheduler's live Retry-After inputs and per-job statuses carry the
// tenant's quota arithmetic.
func TestListStatsExposure(t *testing.T) {
	sched, err := NewScheduler(SchedulerConfig{
		StateDir: t.TempDir(), Workers: 1, TenantQuota: 3, QueueLimit: 8,
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	addr, shutdown, err := telemetry.Serve("127.0.0.1:0", NewServer(sched))
	if err != nil {
		sched.Close()
		t.Fatalf("Serve: %v", err)
	}
	defer func() { shutdown(); sched.Close() }()
	c := NewClient("http://" + addr)
	ctx := context.Background()

	// Two slow jobs on one worker: one runs, one queues.
	var ids []string
	for i := 0; i < 2; i++ {
		spec := verifyJobSpec("stats-tenant", uint64(600+i))
		spec.Subnets = 64
		spec.Jitter = 0.9
		spec.JitterSeed = uint64(600 + i)
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
		if st.TenantActive != i+1 || st.TenantQuota != 3 {
			t.Errorf("submit %d: TenantActive/Quota = %d/%d, want %d/3", i, st.TenantActive, st.TenantQuota, i+1)
		}
	}
	jl, err := c.ListAll(ctx, "")
	if err != nil {
		t.Fatalf("ListAll: %v", err)
	}
	if jl.Stats == nil {
		t.Fatal("list response carries no stats")
	}
	st := jl.Stats
	if st.QueueLimit != 8 || st.Workers != 1 {
		t.Errorf("stats limits = queue %d workers %d, want 8/1", st.QueueLimit, st.Workers)
	}
	if got := st.ActiveJobs + st.QueueDepth; got != 2 {
		t.Errorf("active(%d)+queued(%d) = %d, want the 2 submitted jobs", st.ActiveJobs, st.QueueDepth, got)
	}
	found := false
	for _, ts := range st.Tenants {
		if ts.Tenant == "stats-tenant" {
			found = true
			if ts.Active != 2 || ts.Quota != 3 {
				t.Errorf("tenant stats = active %d quota %d, want 2/3", ts.Active, ts.Quota)
			}
		}
	}
	if !found {
		t.Errorf("stats.Tenants %v lacks stats-tenant", st.Tenants)
	}
	for _, id := range ids {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
		if _, err := sched.Wait(ctx, id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
	// Drained: stats empty again, terminal statuses show zero occupancy.
	jl, err = c.ListAll(ctx, "")
	if err != nil {
		t.Fatalf("ListAll after drain: %v", err)
	}
	if jl.Stats.ActiveJobs != 0 || jl.Stats.QueueDepth != 0 {
		t.Errorf("post-drain stats still active: %+v", jl.Stats)
	}
	if got := jl.Jobs[0].TenantActive; got != 0 {
		t.Errorf("post-drain TenantActive = %d, want 0", got)
	}
}
