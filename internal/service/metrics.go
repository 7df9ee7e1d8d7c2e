package service

import (
	"naspipe"
	"naspipe/internal/obs"
	"naspipe/internal/supervise"
	"naspipe/internal/telemetry"
)

// schedMetrics holds every instrument the scheduler and its supervision
// hooks update. All fields are nil-safe: constructed against a nil
// registry they are nil instruments and every update is a free no-op,
// so the scheduler carries metric updates unconditionally.
//
// Naming: naspipe_<plane>_<name>[_unit], planes sched / supervise /
// telemetry here (the HTTP layer's service-plane metrics live on the
// Server). Counters end in _total, duration histograms in _seconds —
// the convention TestMetricNamingConvention lints.
type schedMetrics struct {
	submitted  *obs.CounterVec // naspipe_sched_submitted_total{tenant}
	resumed    *obs.CounterVec // naspipe_sched_resumed_total{tenant}
	recovered  *obs.Counter    // naspipe_sched_recovered_total
	finished   *obs.CounterVec // naspipe_sched_jobs_total{tenant,state}
	rejections *obs.CounterVec // naspipe_sched_rejections_total{cause}

	tenantActive *obs.GaugeVec // naspipe_sched_tenant_active_jobs{tenant}
	activeJobs   *obs.Gauge    // naspipe_sched_active_workers

	queueWait *obs.Histogram // naspipe_sched_queue_wait_seconds
	runTime   *obs.Histogram // naspipe_sched_run_seconds

	transitions *obs.CounterVec // naspipe_supervise_transitions_total{to}
	incidents   *obs.CounterVec // naspipe_supervise_incidents_total{kind}
	restarts    *obs.Counter    // naspipe_supervise_restarts_total
	watchdog    *obs.Counter    // naspipe_supervise_watchdog_fires_total
}

// runBuckets widens DefBuckets upward: supervised runs (crash + backoff
// + resume) regularly outlive 10s.
var runBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 300}

// newSchedMetrics registers the scheduler's instruments plus the
// scrape-time funcs that read live scheduler state (queue depth, run
// EWMA, the summed bus counters). With a nil registry everything
// is disabled. Called once from NewScheduler, before workers start.
func newSchedMetrics(r *obs.Registry, s *Scheduler) *schedMetrics {
	m := &schedMetrics{
		submitted:  r.CounterVec("naspipe_sched_submitted_total", "Jobs admitted via submit, by tenant.", "tenant"),
		resumed:    r.CounterVec("naspipe_sched_resumed_total", "Jobs re-queued via resume, by tenant.", "tenant"),
		recovered:  r.Counter("naspipe_sched_recovered_total", "Jobs re-queued by post-restart recovery."),
		finished:   r.CounterVec("naspipe_sched_jobs_total", "Jobs that reached a terminal state, by tenant and state.", "tenant", "state"),
		rejections: r.CounterVec("naspipe_sched_rejections_total", "Admissions refused with HTTP 429, by cause.", "cause"),

		tenantActive: r.GaugeVec("naspipe_sched_tenant_active_jobs", "Queued+running jobs per tenant (the quota denominator).", "tenant"),
		activeJobs:   r.Gauge("naspipe_sched_active_workers", "Executor-pool workers currently running a job."),

		queueWait: r.Histogram("naspipe_sched_queue_wait_seconds", "Time from admission (or resume) to execution start.", nil),
		runTime:   r.Histogram("naspipe_sched_run_seconds", "Wall time of one job execution, queue wait excluded.", runBuckets),

		transitions: r.CounterVec("naspipe_supervise_transitions_total", "Supervision state-machine edges, by target state.", "to"),
		incidents:   r.CounterVec("naspipe_supervise_incidents_total", "Recoverable incidents, by kind (crash or stall).", "kind"),
		restarts:    r.Counter("naspipe_supervise_restarts_total", "Incarnation restarts across all supervised jobs."),
		watchdog:    r.Counter("naspipe_supervise_watchdog_fires_total", "Watchdog stall diagnoses across all supervised jobs."),
	}
	if r == nil {
		return m
	}
	r.GaugeFunc("naspipe_sched_queue_depth", "Jobs admitted but not yet running (the backpressure input).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.queue))
		})
	r.GaugeFunc("naspipe_sched_queue_limit", "Admission-queue capacity.",
		func() float64 { return float64(s.cfg.QueueLimit) })
	r.GaugeFunc("naspipe_sched_worker_slots", "Configured executor-pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("naspipe_sched_run_ewma_seconds", "Smoothed wall time of completed runs (the Retry-After input).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.runEWMA.Seconds()
		})
	// The bus counters, summed over finished jobs' totals and every live
	// bus at scrape time.
	telemetry.Register(r, s.busTotals)
	return m
}

// superviseHooks builds the hooks the scheduler hands naspipe.RunJob for
// one job: its telemetry bus, the daemon's Log, and an Observer/OnIncident
// pair that turns transitions and incidents into counters immediately (not
// at job finish) and structured log lines carrying the job ID and
// incarnation — the correlation chain from /metrics and the daemon log
// back to one incarnation of one job.
func (s *Scheduler) superviseHooks(jobID string, bus *telemetry.Bus) naspipe.SuperviseConfig {
	observer := func(tr supervise.Transition) {
		s.met.transitions.With(tr.To.String()).Inc()
		if tr.To == supervise.Running && tr.Incarnation > 0 {
			s.met.restarts.Inc()
		}
		s.log("health transition", "job", jobID, "incarnation", tr.Incarnation,
			"from", tr.From.String(), "to", tr.To.String(), "reason", tr.Reason)
	}
	onIncident := func(in supervise.Incident) {
		kind := "crash"
		if in.Stall != nil {
			kind = "stall"
			s.met.watchdog.Inc()
		}
		s.met.incidents.With(kind).Inc()
		s.log("incident", "job", jobID, "incarnation", in.Incarnation, "kind", kind,
			"stage", in.Stage, "cursor_before", in.CursorBefore, "cursor_after", in.CursorAfter,
			"gpus", in.GPUs, "err", in.Err.Error())
	}
	return naspipe.SuperviseConfig{Telemetry: bus, Log: s.cfg.Log, Observer: observer, OnIncident: onIncident}
}

// busTotals sums the telemetry counters of every job this daemon has
// run: finished jobs' totals plus each live bus.
func (s *Scheduler) busTotals() telemetry.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.telTotals
	for _, id := range s.order {
		if b := s.jobs[id].bus; b != nil {
			for i, v := range b.Counters() {
				c[i] += v
			}
		}
	}
	return c
}
