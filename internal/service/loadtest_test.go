package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"naspipe"
	"naspipe/internal/obs"
)

// loadReport is the BENCH_service.json schema: the service plane's
// throughput and latency profile under concurrent multi-tenant load.
type loadReport struct {
	Date            string  `json:"date"`
	Clients         int     `json:"clients"`
	JobsSubmitted   int     `json:"jobs_submitted"`
	JobsCompleted   int     `json:"jobs_completed"`
	JobsVerified    int     `json:"jobs_verified"`
	CrashRestarts   int     `json:"crash_job_restarts"`
	Workers         int     `json:"workers"`
	TenantQuota     int     `json:"tenant_quota"`
	QuotaRejections int     `json:"quota_rejections_429"`
	WallSeconds     float64 `json:"wall_seconds"`
	JobsPerSecond   float64 `json:"throughput_jobs_per_sec"`
	SubmitP50Ms     float64 `json:"submit_p50_ms"`
	SubmitP99Ms     float64 `json:"submit_p99_ms"`
	StatusP50Ms     float64 `json:"status_p50_ms"`
	StatusP99Ms     float64 `json:"status_p99_ms"`
	GoroutinesLeft  int     `json:"goroutines_over_baseline_after_drain"`
	// Observability overhead gate: the same compact workload with the
	// metrics registry absent vs present, in alternating pairs (the walls
	// are each arm's median, the percentage the median per-pair ratio);
	// the enabled path must stay within 5% (+25ms) of disabled.
	ObsDisabledWall float64 `json:"obs_disabled_wall_seconds"`
	ObsEnabledWall  float64 `json:"obs_enabled_wall_seconds"`
	ObsOverheadPct  float64 `json:"obs_overhead_pct"`
}

// lat is a concurrency-safe latency recorder.
type lat struct {
	mu sync.Mutex
	ds []time.Duration
}

func (l *lat) add(d time.Duration) {
	l.mu.Lock()
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

func (l *lat) percentileMs(p float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.ds...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// median returns the middle of xs (the upper one for an even count),
// leaving xs unsorted.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// verifyJobSpec is the load-test workload: a small concurrent search
// job whose finished weights are verified bitwise against the
// sequential reference by the scheduler itself.
func verifyJobSpec(tenant string, seed uint64) naspipe.JobSpec {
	return naspipe.JobSpec{
		Tenant: tenant, Space: "NLP.c3", ScaleBlocks: 8, ScaleChoices: 3,
		Executor: "concurrent", GPUs: 4, Subnets: 8, Seed: seed,
		Train:  &naspipe.TrainSpec{Dim: 8, BatchSize: 2, LR: 0.05},
		Verify: true,
	}
}

// obsLoadTrial runs one compact HTTP workload — 4 clients × 3 verify
// jobs, each polled to completion — against a fresh daemon, with the
// observability plane absent or fully enabled (registry + HTTP
// instruments + a mid-run scrape, the realistic Prometheus shape), and
// returns the wall time.
func obsLoadTrial(t *testing.T, enabled bool) time.Duration {
	t.Helper()
	var reg *obs.Registry
	if enabled {
		reg = obs.New()
	}
	sched, err := NewScheduler(SchedulerConfig{
		StateDir: t.TempDir(), Workers: 4, QueueLimit: 64, Metrics: reg,
	})
	if err != nil {
		t.Fatalf("obs trial scheduler: %v", err)
	}
	srv := NewServer(sched)
	if enabled {
		srv = srv.WithObs(reg, nil)
	}
	addr, shutdown, err := ServeHandler("127.0.0.1:0", srv)
	if err != nil {
		sched.Close()
		t.Fatalf("obs trial serve: %v", err)
	}
	defer func() { shutdown(); sched.Close() }()
	base := "http://" + addr
	ctx := context.Background()

	t0 := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < 4; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := NewClient(base)
			c.HTTP = &http.Client{}
			defer c.HTTP.CloseIdleConnections()
			for jn := 0; jn < 3; jn++ {
				st, err := c.Submit(ctx, verifyJobSpec(fmt.Sprintf("obs-%d", ci), uint64(3000+ci*10+jn)))
				if err != nil {
					t.Errorf("obs trial submit: %v", err)
					return
				}
				if enabled && ci == 0 && jn == 1 {
					if _, err := c.Metrics(ctx); err != nil {
						t.Errorf("obs trial scrape: %v", err)
					}
				}
				for {
					got, err := c.Get(ctx, st.ID)
					if err != nil {
						t.Errorf("obs trial status: %v", err)
						return
					}
					if got.State.Terminal() {
						if got.State != StateDone {
							t.Errorf("obs trial job %s: %s (%s)", st.ID, got.State, got.Detail)
						}
						break
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(ci)
	}
	wg.Wait()
	return time.Since(t0)
}

// TestServiceLoad drives one daemon with 8 concurrent clients and 17
// jobs through the full submit/status/cancel/resume surface:
//
//   - every completed job's weights are bitwise-verified against the
//     sequential reference (Verify in each spec, checked by the daemon);
//   - one job carries an injected crash and must auto-resume under the
//     service's supervision with at least one restart, then verify;
//   - one job is canceled mid-run and resumed over the API;
//   - a greedy tenant is refused with 429 at its quota;
//   - after drain, no goroutines are left over (checked under -race in CI).
//
// The measured throughput and latency percentiles are written to the
// file named by NASPIPE_BENCH_OUT (the committed BENCH_service.json).
func TestServiceLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const (
		clients     = 8
		jobsPer     = 2
		workers     = 4
		tenantQuota = 4
	)
	stateDir := t.TempDir()
	sched, err := NewScheduler(SchedulerConfig{
		StateDir: stateDir, Workers: workers,
		TenantQuota: tenantQuota, QueueLimit: 64,
	})
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	addr, shutdown, err := Serve("127.0.0.1:0", sched)
	if err != nil {
		sched.Close()
		t.Fatalf("Serve: %v", err)
	}
	base := "http://" + addr
	ctx := context.Background()

	var (
		submitLat, statusLat lat
		mu                   sync.Mutex
		completed, verified  int
		crashRestarts        int
		submitted            int
	)
	t0 := time.Now()

	// Phase 1: 8 clients, each its own tenant and HTTP connection pool,
	// submit and drive 2 verify-jobs each. Client 0's first job carries a
	// deterministic injected crash; the daemon's supervision must resume
	// it from its own checkpoint with no operator involvement.
	var wg sync.WaitGroup
	transports := make([]*http.Client, clients)
	for ci := 0; ci < clients; ci++ {
		transports[ci] = &http.Client{}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := NewClient(base)
			c.HTTP = transports[ci]
			tenant := fmt.Sprintf("tenant-%d", ci)
			for jn := 0; jn < jobsPer; jn++ {
				spec := verifyJobSpec(tenant, uint64(100+ci*10+jn))
				crashJob := ci == 0 && jn == 0
				if crashJob {
					spec.Faults = "seed=7,crashat=2:5:F"
				}
				ts := time.Now()
				st, err := c.Submit(ctx, spec)
				submitLat.add(time.Since(ts))
				if err != nil {
					t.Errorf("client %d submit: %v", ci, err)
					return
				}
				mu.Lock()
				submitted++
				mu.Unlock()
				var final JobStatus
				for {
					ts := time.Now()
					got, err := c.Get(ctx, st.ID)
					statusLat.add(time.Since(ts))
					if err != nil {
						t.Errorf("client %d status: %v", ci, err)
						return
					}
					if got.State.Terminal() {
						final = got
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
				if final.State != StateDone {
					t.Errorf("client %d job %s: %s (%s), want done", ci, st.ID, final.State, final.Detail)
					return
				}
				mu.Lock()
				completed++
				if final.Verified {
					verified++
				}
				if crashJob {
					crashRestarts = final.Restarts
				}
				mu.Unlock()
				if !final.Verified {
					t.Errorf("client %d job %s finished unverified: %s", ci, st.ID, final.Detail)
				}
				if crashJob && final.Restarts < 1 {
					t.Errorf("crash-injected job %s auto-resumed %d times, want >= 1", st.ID, final.Restarts)
				}
			}
		}(ci)
	}
	wg.Wait()

	// Phase 2: cancel/resume over the API. A slow jittered job is
	// canceled mid-stream and resumed; it must complete verified from its
	// committed frontier.
	opsClient := NewClient(base)
	opsClient.HTTP = transports[0]
	slow := verifyJobSpec("tenant-ops", 500)
	slow.Subnets = 64
	slow.Jitter = 0.9
	slow.JitterSeed = 500
	ts := time.Now()
	st, err := opsClient.Submit(ctx, slow)
	submitLat.add(time.Since(ts))
	if err != nil {
		t.Fatalf("ops submit: %v", err)
	}
	mu.Lock()
	submitted++
	mu.Unlock()
	for {
		got, gerr := opsClient.Get(ctx, st.ID)
		if gerr != nil {
			t.Fatalf("ops status: %v", gerr)
		}
		if got.Cursor >= 2 && got.State == StateRunning {
			break
		}
		if got.State.Terminal() {
			t.Fatalf("ops job reached %s before mid-run cancel", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := opsClient.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("ops cancel: %v", err)
	}
	got, err := opsClient.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil || got.State != StateCanceled || !got.Resumable {
		t.Fatalf("ops cancel landed as %s resumable=%v err=%v", got.State, got.Resumable, err)
	}
	if _, err := opsClient.Resume(ctx, st.ID); err != nil {
		t.Fatalf("ops resume: %v", err)
	}
	final, err := opsClient.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil || final.State != StateDone || !final.Verified {
		t.Fatalf("ops resumed job: state %s verified %v err=%v (%s)", final.State, final.Verified, err, final.Detail)
	}
	mu.Lock()
	completed++
	verified++
	mu.Unlock()

	// Phase 3: quota enforcement. A greedy tenant fills its quota with
	// jobs that wedge on their second subnet, so none can finish before
	// the check (queued counts as active too), and the next submit must
	// be refused with 429 quota_exceeded.
	quotaRejections := 0
	var greedyIDs []string
	for i := 0; i < tenantQuota; i++ {
		spec := verifyJobSpec("greedy", uint64(900+i))
		spec.Faults = "seed=1,wedgeat=1:1:F"
		st, err := opsClient.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("greedy submit %d: %v", i, err)
		}
		greedyIDs = append(greedyIDs, st.ID)
	}
	_, err = opsClient.Submit(ctx, verifyJobSpec("greedy", 999))
	ae, ok := err.(*APIError)
	if !ok || ae.Code != CodeQuotaExceeded || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %v, want 429 %q", err, CodeQuotaExceeded)
	}
	quotaRejections++
	// Another tenant is unaffected by the greedy one's quota.
	if _, err := opsClient.Submit(ctx, verifyJobSpec("tenant-1", 777)); err != nil {
		t.Fatalf("unrelated tenant blocked by another's quota: %v", err)
	}
	mu.Lock()
	submitted++
	mu.Unlock()
	for _, id := range greedyIDs {
		if _, err := opsClient.Cancel(ctx, id); err != nil {
			t.Fatalf("canceling greedy job %s: %v", id, err)
		}
	}
	// Drain everything that is still in flight.
	for _, st := range sched.List("") {
		if _, err := sched.Wait(ctx, st.ID); err != nil {
			t.Fatalf("drain wait %s: %v", st.ID, err)
		}
	}
	wall := time.Since(t0)

	// Cross-check the API's list view against per-job status.
	listed := sched.List("")
	for _, ls := range listed {
		single, err := sched.Get(ls.ID)
		if err != nil {
			t.Fatalf("get %s: %v", ls.ID, err)
		}
		if single.State != ls.State || single.Cursor != ls.Cursor {
			t.Errorf("list/status disagree for %s: list %s@%d vs status %s@%d",
				ls.ID, ls.State, ls.Cursor, single.State, single.Cursor)
		}
	}

	// Drain the daemon and hunt goroutine leaks: everything the scheduler
	// and server spawned must exit.
	shutdown()
	sched.Close()
	for _, tr := range transports {
		tr.CloseIdleConnections()
	}
	left := 0
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		left = runtime.NumGoroutine() - baseline
		if left <= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if left > 2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines over baseline after drain:\n%s", left, buf[:runtime.Stack(buf, true)])
	}

	// Phase 4: observability overhead gate. The same compact workload
	// runs with the metrics registry absent and present; instrumenting
	// every admission, request, and supervision edge must cost at most 5%
	// wall time, plus a small absolute grace for sub-second runs. The arms
	// alternate (off, on, off, on, …), each from a collected heap, and the
	// verdict is the median per-pair ratio: a slow phase of the host slows
	// both arms of a pair alike instead of covering one arm whole. Pairs
	// come in blocks of three; another block runs only while the verdict
	// is over budget, three blocks at most. The grace stays because a
	// trial is ≈ 0.1s: two disabled arms alone differ by ±10% per pair.
	trial := func(enabled bool) float64 {
		runtime.GC()
		return obsLoadTrial(t, enabled).Seconds()
	}
	const grace = 0.025 // seconds
	var offs, ons, ratios []float64
	overBudget := func() bool { return median(ratios) > 1.05+grace/median(offs) }
	for block := 0; block < 3 && (block == 0 || overBudget()); block++ {
		for i := 0; i < 3; i++ {
			off, on := trial(false), trial(true)
			offs, ons, ratios = append(offs, off), append(ons, on), append(ratios, on/off)
		}
	}
	obsDisabled, obsEnabled := median(offs), median(ons)
	obsOverheadPct := 100 * (median(ratios) - 1)
	t.Logf("obs overhead: %+.2f%% (median on/off of %d alternating pairs; arm medians disabled %.3fs, enabled %.3fs)",
		obsOverheadPct, len(ratios), obsDisabled, obsEnabled)
	if overBudget() {
		t.Errorf("metrics-enabled load costs %.2f%% over disabled (median of %d alternating pairs) > 5%% + %.0fms overhead budget",
			obsOverheadPct, len(ratios), grace*1000)
	}

	mu.Lock()
	defer mu.Unlock()
	if completed < clients*jobsPer+1 {
		t.Fatalf("completed %d jobs, want >= %d", completed, clients*jobsPer+1)
	}
	if verified != completed {
		t.Fatalf("%d of %d completed jobs verified bitwise", verified, completed)
	}
	rep := loadReport{
		Date:            time.Now().UTC().Format("2006-01-02"),
		Clients:         clients,
		JobsSubmitted:   submitted,
		JobsCompleted:   completed,
		JobsVerified:    verified,
		CrashRestarts:   crashRestarts,
		Workers:         workers,
		TenantQuota:     tenantQuota,
		QuotaRejections: quotaRejections,
		WallSeconds:     wall.Seconds(),
		JobsPerSecond:   float64(completed) / wall.Seconds(),
		SubmitP50Ms:     submitLat.percentileMs(0.50),
		SubmitP99Ms:     submitLat.percentileMs(0.99),
		StatusP50Ms:     statusLat.percentileMs(0.50),
		StatusP99Ms:     statusLat.percentileMs(0.99),
		GoroutinesLeft:  left,
		ObsDisabledWall: obsDisabled,
		ObsEnabledWall:  obsEnabled,
		ObsOverheadPct:  obsOverheadPct,
	}
	t.Logf("load: %d jobs in %.2fs (%.1f jobs/s), submit p99 %.2fms, status p99 %.2fms",
		rep.JobsCompleted, rep.WallSeconds, rep.JobsPerSecond, rep.SubmitP99Ms, rep.StatusP99Ms)
	if out := os.Getenv("NASPIPE_BENCH_OUT"); out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatalf("encoding load report: %v", err)
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
		t.Logf("load report written to %s", out)
	}
}
