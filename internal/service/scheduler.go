package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"naspipe"
	"naspipe/internal/fault"
	"naspipe/internal/obs"
	"naspipe/internal/telemetry"
)

// SchedulerConfig tunes the job scheduler. The zero value is usable
// except for StateDir, which is required (job specs, statuses, event
// logs, and checkpoints live under it — it is what makes a kill -9 of
// the daemon survivable).
type SchedulerConfig struct {
	// StateDir is the root of per-job state ({StateDir}/{jobID}/...).
	StateDir string
	// Workers bounds the executor pool: at most this many jobs run at
	// once. 0 = 2.
	Workers int
	// QueueLimit bounds jobs admitted but not yet running; submits
	// beyond it are refused with CodeBackpressure. 0 = 16.
	QueueLimit int
	// TenantQuota bounds one tenant's active (queued + running) jobs;
	// submits beyond it are refused with CodeQuotaExceeded. 0 = 8.
	TenantQuota int
	// EventBufSize is each job's telemetry ring capacity. 0 = 1<<16.
	EventBufSize int
	// Log, when non-nil, receives one line per scheduler decision.
	Log func(format string, args ...any)
	// Logger, when non-nil, receives structured per-job log records
	// (every record carries the job ID) and takes precedence over Log
	// for those records. The daemon passes its slog JSON logger.
	Logger *slog.Logger
	// Metrics, when non-nil, is the registry the scheduler publishes
	// into: queue depth, per-tenant job counts, queue-wait and
	// run-duration histograms, 429 causes, supervision transitions, and
	// the telemetry-bus rollup. Nil disables metrics at zero cost.
	Metrics *obs.Registry
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 16
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = 8
	}
	if c.EventBufSize <= 0 {
		c.EventBufSize = 1 << 16
	}
	return c
}

// job is one scheduled run and its full lifecycle state. The scheduler
// mutex (not a per-job one) guards the mutable fields — job counts are
// small and every mutation also touches scheduler-wide accounting.
type job struct {
	id   string
	spec naspipe.JobSpec
	dir  string

	state    JobState
	health   string
	detail   string
	restarts int
	fires    int
	cursor   int
	gpus     int
	verified bool
	checksum uint64
	resume   bool // next incarnation resumes from the checkpoint

	submitted, started, finished time.Time
	// queuedAt stamps the latest admission (submit, resume, or recovery)
	// so the queue-wait histogram measures this wait, not the job's
	// whole prior history.
	queuedAt time.Time

	bus        *telemetry.Bus     // live telemetry while running
	cancel     context.CancelFunc // cancels the running incarnation set
	wantCancel bool               // operator cancel requested (vs daemon shutdown)
	done       chan struct{}      // closed at every terminal transition
}

// persistedJob is the on-disk form of a job (status.json) — enough to
// rebuild the registry and re-queue interrupted work after a daemon
// restart.
type persistedJob struct {
	ID            string          `json:"id"`
	Spec          naspipe.JobSpec `json:"spec"`
	State         JobState        `json:"state"`
	Detail        string          `json:"detail,omitempty"`
	Restarts      int             `json:"restarts"`
	WatchdogFires int             `json:"watchdog_fires"`
	Verified      bool            `json:"verified"`
	Checksum      uint64          `json:"checksum"`
	Resume        bool            `json:"resume"`
	SubmittedAt   time.Time       `json:"submitted_at"`
	StartedAt     time.Time       `json:"started_at"`
	FinishedAt    time.Time       `json:"finished_at"`
}

// Scheduler multiplexes search jobs over a bounded executor pool with
// per-tenant quotas, admission control, and backpressure. Construct
// with NewScheduler, serve it over HTTP with NewServer, stop it with
// Close. All methods are safe for concurrent use.
type Scheduler struct {
	cfg SchedulerConfig

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string       // submission order, for List
	active  map[string]int // tenant → queued+running
	nextID  int
	queue   []*job        // admitted, not yet running, in FIFO order
	wake    sync.Cond     // on mu: signalled per queued job and at Close
	runEWMA time.Duration // smoothed wall time of completed runs
	closed  bool
	rootCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	// met holds the scheduler's metric instruments (nil-safe when
	// cfg.Metrics is nil); telTotals accumulates finished jobs' bus
	// counters for busTotals (guarded by mu).
	met       *schedMetrics
	telTotals telemetry.Counters
}

// NewScheduler builds the scheduler, recovers any persisted jobs from
// cfg.StateDir (re-queuing work a previous daemon left queued, running,
// or interrupted — the kill -9 story), and starts the executor pool.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("service: SchedulerConfig.StateDir is required")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		active:  make(map[string]int),
		rootCtx: ctx,
		stop:    cancel,
	}
	s.wake.L = &s.mu
	s.met = newSchedMetrics(cfg.Metrics, s)
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Scheduler) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// log emits one structured record (msg plus key/value attrs — per-job
// records always carry a "job" attr). With a Logger it is a real slog
// record; with only the legacy printf Log the attrs render as
// "key=value" suffixes so nothing is lost either way.
func (s *Scheduler) log(msg string, attrs ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, attrs...)
		return
	}
	if s.cfg.Log == nil {
		return
	}
	var b strings.Builder
	b.WriteString("service: ")
	b.WriteString(msg)
	for i := 0; i+1 < len(attrs); i += 2 {
		fmt.Fprintf(&b, " %v=%v", attrs[i], attrs[i+1])
	}
	s.cfg.Log("%s", b.String())
}

// tenantGaugeLocked mirrors one tenant's active count into the gauge.
// Caller holds s.mu.
func (s *Scheduler) tenantGaugeLocked(tenant string) {
	s.met.tenantActive.With(tenantName(tenant)).Set(float64(s.active[tenant]))
}

// recover scans the state dir for persisted jobs and re-queues the ones
// a previous daemon never finished. Jobs that were queued or running
// when the daemon died resume from their checkpoint when one exists and
// start over otherwise; terminal jobs load read-only.
func (s *Scheduler) recover() error {
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return fmt.Errorf("service: scanning state dir: %w", err)
	}
	var recovered []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.StateDir, e.Name())
		var p persistedJob
		buf, err := os.ReadFile(filepath.Join(dir, "status.json"))
		if err != nil {
			continue // not a job dir (or torn write before first persist)
		}
		if err := json.Unmarshal(buf, &p); err != nil {
			s.logf("service: %s: unreadable status.json, skipping: %v", e.Name(), err)
			continue
		}
		j := &job{
			id: p.ID, spec: p.Spec, dir: dir,
			state: p.State, detail: p.Detail,
			restarts: p.Restarts, fires: p.WatchdogFires,
			verified: p.Verified, checksum: p.Checksum,
			resume:    p.Resume,
			submitted: p.SubmittedAt, started: p.StartedAt, finished: p.FinishedAt,
			gpus: p.Spec.GPUs,
			done: make(chan struct{}),
		}
		if j.state.Terminal() {
			close(j.done)
		}
		recovered = append(recovered, j)
		if n := idNum(p.ID); n >= s.nextID {
			s.nextID = n + 1
		}
	}
	sort.Slice(recovered, func(a, b int) bool { return idNum(recovered[a].id) < idNum(recovered[b].id) })
	for _, j := range recovered {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if j.state.Terminal() {
			continue
		}
		// The previous daemon died with this job in flight. A standing
		// checkpoint means the committed frontier survived; continue from
		// it. Otherwise start over.
		j.resume = j.hasCheckpoint()
		if len(s.queue) >= s.cfg.QueueLimit {
			j.state = StateFailed
			j.detail = "recovery overflowed the admission queue"
			close(j.done)
			s.persistLocked(j)
			continue
		}
		j.state = StateQueued
		j.detail = "recovered after daemon restart"
		j.queuedAt = time.Now()
		s.active[j.spec.Tenant]++
		s.tenantGaugeLocked(j.spec.Tenant)
		s.persistLocked(j)
		s.enqueueLocked(j)
		s.met.recovered.Inc()
		s.log("job recovered", "job", j.id, "tenant", tenantName(j.spec.Tenant), "resume", j.resume)
	}
	return nil
}

// idNum extracts the numeric suffix of a job ID ("j0042" → 42).
func idNum(id string) int {
	n := 0
	for _, r := range strings.TrimPrefix(id, "j") {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int(r-'0')
	}
	return n
}

// checkpointPath is where a job's crash-consistent checkpoint lives.
func (j *job) checkpointPath() string { return filepath.Join(j.dir, "run.ckpt") }

// eventsPath is the job's persisted telemetry JSONL.
func (j *job) eventsPath() string { return filepath.Join(j.dir, "events.jsonl") }

func (j *job) hasCheckpoint() bool {
	_, err := os.Stat(j.checkpointPath())
	return err == nil
}

// resumable is the one rule for both JobStatus.Resumable and Resume: the
// job was canceled or interrupted — never done, failed or still active —
// and a loadable checkpoint holds its committed frontier (one at the end
// of the stream still counts: resume is then a no-op verify).
func (j *job) resumable() bool {
	if (j.state != StateCanceled && j.state != StateInterrupted) || j.spec.Checkpoint == "" {
		return false
	}
	_, err := fault.Load(j.checkpointPath())
	return err == nil
}

// Submit validates, normalizes, and admits a job. Admission control is
// synchronous: a tenant at quota gets *APIError CodeQuotaExceeded, a
// full queue CodeBackpressure — both mapping to HTTP 429 so clients
// back off and retry.
func (s *Scheduler) Submit(spec naspipe.JobSpec) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, &APIError{Code: CodeShuttingDown, Message: "scheduler is draining"}
	}
	id := fmt.Sprintf("j%04d", s.nextID)
	dir := filepath.Join(s.cfg.StateDir, id)
	normalizeSpec(&spec, dir)
	if err := spec.Validate(); err != nil {
		return JobStatus{}, &APIError{Code: CodeInvalidSpec, Message: err.Error(), Field: naspipe.SpecField(err)}
	}
	if s.active[spec.Tenant] >= s.cfg.TenantQuota {
		ra := s.retryAfterLocked(CodeQuotaExceeded, spec.Tenant)
		s.met.rejections.With(string(CodeQuotaExceeded)).Inc()
		return JobStatus{}, &APIError{Code: CodeQuotaExceeded, RetryAfterSec: ra,
			Message: fmt.Sprintf("tenant %q already has %d active jobs (quota %d); retry in ~%ds", tenantName(spec.Tenant), s.active[spec.Tenant], s.cfg.TenantQuota, ra)}
	}
	if err := s.queueFullLocked(spec.Tenant); err != nil {
		return JobStatus{}, err
	}
	now := time.Now()
	j := &job{
		id: id, spec: spec, dir: dir,
		state: StateQueued, submitted: now, queuedAt: now,
		gpus: spec.GPUs,
		done: make(chan struct{}),
	}
	s.enqueueLocked(j)
	s.nextID++
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.active[spec.Tenant]++
	s.met.submitted.With(tenantName(spec.Tenant)).Inc()
	s.tenantGaugeLocked(spec.Tenant)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.logf("service: %s: state dir: %v", id, err)
	}
	s.persistLocked(j)
	s.log("job submitted", "job", id, "tenant", tenantName(spec.Tenant),
		"space", spec.Space, "gpus", spec.GPUs, "subnets", spec.Subnets)
	return s.statusLocked(j, true), nil
}

// normalizeSpec pins the parts of a spec the daemon owns: every
// concurrent job checkpoints into its own state dir and runs under
// supervision (that is the service's crash-resume contract).
func normalizeSpec(spec *naspipe.JobSpec, dir string) {
	if spec.APIVersion == "" {
		spec.APIVersion = naspipe.JobSpecVersion
	}
	if spec.Executor == "concurrent" {
		spec.Checkpoint = filepath.Join(dir, "run.ckpt")
		if spec.Supervise == nil {
			spec.Supervise = &naspipe.SuperviseSpec{}
		}
	}
}

func tenantName(t string) string {
	if t == "" {
		return "default"
	}
	return t
}

// Get returns one job's status (with its effective spec).
func (s *Scheduler) Get(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, &APIError{Code: CodeNotFound, Message: fmt.Sprintf("no job %q", id)}
	}
	return s.statusLocked(j, true), nil
}

// List returns all jobs in submission order, optionally filtered by
// tenant. Specs are omitted to keep the listing light.
func (s *Scheduler) List(tenant string) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if tenant != "" && j.spec.Tenant != tenant {
			continue
		}
		out = append(out, s.statusLocked(j, false))
	}
	return out
}

// Stats snapshots the scheduler's live admission state — the inputs
// retryAfterLocked derives every Retry-After estimate from, plus each
// tenant's slot occupancy. List responses embed it so one poll of /v1
// shows both the jobs and the admission math.
func (s *Scheduler) Stats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

// statsLocked renders SchedStats. Caller holds s.mu.
func (s *Scheduler) statsLocked() SchedStats {
	st := SchedStats{
		QueueDepth: len(s.queue),
		QueueLimit: s.cfg.QueueLimit,
		Workers:    s.cfg.Workers,
		RunEWMASec: s.runEWMA.Seconds(),
	}
	running := make(map[string]int)
	for _, id := range s.order {
		if s.jobs[id].state == StateRunning {
			st.ActiveJobs++
			running[s.jobs[id].spec.Tenant]++
		}
	}
	tenants := make([]string, 0, len(s.active))
	for t, n := range s.active {
		if n > 0 || running[t] > 0 {
			tenants = append(tenants, t)
		}
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		st.Tenants = append(st.Tenants, TenantStats{
			Tenant:  tenantName(t),
			Active:  s.active[t],
			Running: running[t],
			Quota:   s.cfg.TenantQuota,
		})
	}
	return st
}

// Cancel stops a queued or running job. Canceling a job that already
// reached a terminal state is idempotent: it returns the current status
// with no error and no state change.
func (s *Scheduler) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, &APIError{Code: CodeNotFound, Message: fmt.Sprintf("no job %q", id)}
	}
	switch j.state {
	case StateQueued:
		// Out of the queue at once: its admission slot is free again.
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.finishLocked(j, StateCanceled, "canceled while queued")
	case StateRunning:
		j.wantCancel = true
		if j.cancel != nil {
			j.cancel()
		}
		s.log("cancel requested", "job", id)
	default:
		// Terminal already — idempotent success.
	}
	return s.statusLocked(j, true), nil
}

// Resume re-queues a job that resumable admits — canceled or
// interrupted, with a loadable checkpoint — to continue from that
// checkpoint. Any other job is a CodeConflict (HTTP 409). A refusal,
// 409 or 429, leaves the job exactly as it was.
func (s *Scheduler) Resume(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, &APIError{Code: CodeNotFound, Message: fmt.Sprintf("no job %q", id)}
	}
	if s.closed {
		return JobStatus{}, &APIError{Code: CodeShuttingDown, Message: "scheduler is draining"}
	}
	if !j.resumable() {
		return JobStatus{}, &APIError{Code: CodeConflict,
			Message: fmt.Sprintf("job %s is %s; only a canceled or interrupted job with a loadable checkpoint resumes", id, j.state)}
	}
	if s.active[j.spec.Tenant] >= s.cfg.TenantQuota {
		ra := s.retryAfterLocked(CodeQuotaExceeded, j.spec.Tenant)
		s.met.rejections.With(string(CodeQuotaExceeded)).Inc()
		return JobStatus{}, &APIError{Code: CodeQuotaExceeded, RetryAfterSec: ra,
			Message: fmt.Sprintf("tenant %q already has %d active jobs (quota %d); retry in ~%ds", tenantName(j.spec.Tenant), s.active[j.spec.Tenant], s.cfg.TenantQuota, ra)}
	}
	if err := s.queueFullLocked(j.spec.Tenant); err != nil {
		return JobStatus{}, err
	}
	j.resume = true
	j.wantCancel = false
	j.state = StateQueued
	j.detail = "resume requested"
	j.queuedAt = time.Now()
	j.done = make(chan struct{})
	s.active[j.spec.Tenant]++
	s.met.resumed.With(tenantName(j.spec.Tenant)).Inc()
	s.tenantGaugeLocked(j.spec.Tenant)
	s.persistLocked(j)
	s.enqueueLocked(j)
	s.log("resume queued", "job", id, "tenant", tenantName(j.spec.Tenant))
	return s.statusLocked(j, true), nil
}

// Events returns the job's telemetry: the live bus while it runs, the
// persisted JSONL after. The returned wait channel is closed when the
// job reaches a terminal state (for follow streaming); it is nil for
// jobs recovered without in-memory telemetry.
func (s *Scheduler) Events(id string) (events []telemetry.Event, done <-chan struct{}, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, &APIError{Code: CodeNotFound, Message: fmt.Sprintf("no job %q", id)}
	}
	if j.bus != nil {
		return j.bus.Events(), j.done, nil
	}
	f, ferr := os.Open(j.eventsPath())
	if ferr != nil {
		return nil, j.done, nil // no telemetry yet — empty stream
	}
	defer f.Close()
	evs, rerr := telemetry.ReadJSONL(f)
	if rerr != nil {
		return nil, nil, &APIError{Code: CodeInternal, Message: fmt.Sprintf("reading %s: %v", j.eventsPath(), rerr)}
	}
	return evs, j.done, nil
}

// CheckpointFile returns the path of the job's checkpoint for the fetch
// endpoint; CodeNotFound when none has been cut yet.
func (s *Scheduler) CheckpointFile(id string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", &APIError{Code: CodeNotFound, Message: fmt.Sprintf("no job %q", id)}
	}
	if !j.hasCheckpoint() {
		return "", &APIError{Code: CodeNotFound, Message: fmt.Sprintf("job %s has no checkpoint on disk", id)}
	}
	return j.checkpointPath(), nil
}

// Wait blocks until the job reaches a terminal state or ctx ends.
// (Primarily for tests and the CLI's submit -wait.)
func (s *Scheduler) Wait(ctx context.Context, id string) (JobStatus, error) {
	for {
		s.mu.Lock()
		j, ok := s.jobs[id]
		if !ok {
			s.mu.Unlock()
			return JobStatus{}, &APIError{Code: CodeNotFound, Message: fmt.Sprintf("no job %q", id)}
		}
		done := j.done
		if j.state.Terminal() {
			st := s.statusLocked(j, true)
			s.mu.Unlock()
			return st, nil
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		case <-done:
		}
	}
}

// Close drains the scheduler: no new admissions, running jobs are
// canceled (their checkpoints stand, so they recover on restart), and
// the executor pool exits. Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.wake.Broadcast()
	s.mu.Unlock()
	s.stop() // cancels every running incarnation
	s.wg.Wait()
}

// enqueueLocked appends j to the admission queue and wakes a worker.
// Caller holds s.mu.
func (s *Scheduler) enqueueLocked(j *job) {
	s.queue = append(s.queue, j)
	s.wake.Signal()
}

// queueFullLocked refuses an admission into a full queue with
// CodeBackpressure (HTTP 429), counting the rejection. Caller holds s.mu.
func (s *Scheduler) queueFullLocked(tenant string) error {
	if len(s.queue) < s.cfg.QueueLimit {
		return nil
	}
	ra := s.retryAfterLocked(CodeBackpressure, tenant)
	s.met.rejections.With(string(CodeBackpressure)).Inc()
	return &APIError{Code: CodeBackpressure, RetryAfterSec: ra,
		Message: fmt.Sprintf("admission queue full (%d queued); retry in ~%ds", s.cfg.QueueLimit, ra)}
}

// worker is one executor-pool goroutine: it owns at most one job at a
// time, end to end. After Close it drains what is still queued; each of
// those runs under the canceled root context and ends interrupted.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.queue) == 0 && !s.closed {
			s.wake.Wait()
		}
		if len(s.queue) == 0 {
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		s.runJob(j)
	}
}

// statusLocked renders a job's API view. Caller holds s.mu.
func (s *Scheduler) statusLocked(j *job, withSpec bool) JobStatus {
	resumable := j.resumable()
	st := JobStatus{
		ID: j.id, Tenant: j.spec.Tenant, Name: j.spec.Name,
		State: j.state, Health: j.health, Detail: j.detail,
		Restarts: j.restarts, WatchdogFires: j.fires,
		Cursor: j.liveCursor(), Total: j.spec.Subnets, GPUs: j.gpus,
		Verified: j.verified, Resumable: resumable,
		ExitCode:     j.state.ExitCode(resumable),
		TenantActive: s.active[j.spec.Tenant],
		TenantQuota:  s.cfg.TenantQuota,
		SubmittedAt:  j.submitted, StartedAt: j.started, FinishedAt: j.finished,
	}
	if j.checksum != 0 {
		st.Checksum = fmt.Sprintf("%016x", j.checksum)
	}
	if st.ExitCode >= 0 {
		st.ExitName = naspipe.ExitCode(st.ExitCode).String()
	}
	if withSpec {
		spec := j.spec
		st.Spec = &spec
	}
	return st
}

// liveCursor reads the job's frontier from its checkpoint file — the
// durable frontier, which trails the committed one by what the recorder
// commits during one save until the incarnation ends (fault.FileRecorder).
func (j *job) liveCursor() int {
	if j.state == StateDone {
		return j.spec.Subnets
	}
	if j.spec.Checkpoint == "" {
		return j.cursor
	}
	if ck, err := fault.Load(j.checkpointPath()); err == nil {
		return ck.Cursor
	}
	return j.cursor
}

// retryAfterLocked estimates, in whole seconds, when a refused submit
// or resume is worth retrying, from the smoothed wall time of completed
// runs. Backpressure clears as the pool drains the queue (queue depth /
// worker throughput); a quota slot frees when the tenant's
// longest-running job finishes. With no completed run on record yet the
// estimate is the 1-second floor. Clamped to [1, 300]. Caller holds
// s.mu.
func (s *Scheduler) retryAfterLocked(code ErrorCode, tenant string) int {
	avg := s.runEWMA
	if avg <= 0 {
		return 1
	}
	var wait time.Duration
	switch code {
	case CodeBackpressure:
		queued := len(s.queue)
		if queued < 1 {
			queued = 1
		}
		wait = avg * time.Duration(queued) / time.Duration(s.cfg.Workers)
	case CodeQuotaExceeded:
		// Default: everything is still queued, so a full run must
		// complete before a slot frees.
		wait = avg
		for _, id := range s.order {
			j := s.jobs[id]
			if j.spec.Tenant != tenant || j.state != StateRunning {
				continue
			}
			if left := avg - time.Since(j.started); left < wait {
				wait = left
			}
		}
	}
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// finishLocked moves a job to a terminal state, releases its quota
// slot, persists, and wakes waiters. Completed runs feed the wall-time
// EWMA that retryAfterLocked derives retry hints from. Caller holds
// s.mu.
func (s *Scheduler) finishLocked(j *job, state JobState, detail string) {
	if j.state == StateRunning && !j.started.IsZero() {
		run := time.Since(j.started)
		if s.runEWMA <= 0 {
			s.runEWMA = run
		} else {
			s.runEWMA = (7*s.runEWMA + 3*run) / 10
		}
		s.met.runTime.Observe(run.Seconds())
	}
	j.state = state
	j.detail = detail
	j.finished = time.Now()
	j.cancel = nil
	s.active[j.spec.Tenant]--
	s.met.finished.With(tenantName(j.spec.Tenant), string(state)).Inc()
	s.tenantGaugeLocked(j.spec.Tenant)
	s.persistLocked(j)
	close(j.done)
	s.log("job finished", "job", j.id, "tenant", tenantName(j.spec.Tenant),
		"state", string(state), "restarts", j.restarts, "detail", detail)
}

// persistLocked writes status.json atomically (tmp+rename), mirroring
// the checkpoint plane's crash discipline. Caller holds s.mu.
func (s *Scheduler) persistLocked(j *job) {
	p := persistedJob{
		ID: j.id, Spec: j.spec, State: j.state, Detail: j.detail,
		Restarts: j.restarts, WatchdogFires: j.fires,
		Verified: j.verified, Checksum: j.checksum, Resume: j.resume,
		SubmittedAt: j.submitted, StartedAt: j.started, FinishedAt: j.finished,
	}
	buf, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		s.logf("service: %s: persisting status: %v", j.id, err)
		return
	}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		s.logf("service: %s: persisting status: %v", j.id, err)
		return
	}
	tmp := filepath.Join(j.dir, "status.json.tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		s.logf("service: %s: persisting status: %v", j.id, err)
		return
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, "status.json")); err != nil {
		s.logf("service: %s: persisting status: %v", j.id, err)
	}
}

// runJob executes one job through naspipe.RunJob — a concurrent job
// under the supervision plane, verified there when the spec asks — and
// classifies its outcome into the service lifecycle. Caller holds s.mu,
// which runJob releases for the run itself.
func (s *Scheduler) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.rootCtx)
	defer cancel()
	bus := telemetry.NewBus(s.cfg.EventBufSize)
	j.state = StateRunning
	j.health = "running"
	j.started = time.Now()
	j.cancel = cancel
	j.bus = bus
	resume := j.resume
	spec := j.spec
	if !j.queuedAt.IsZero() {
		s.met.queueWait.Observe(time.Since(j.queuedAt).Seconds())
	}
	s.met.activeJobs.Inc()
	s.persistLocked(j)
	s.mu.Unlock()
	s.log("job running", "job", j.id, "tenant", tenantName(spec.Tenant), "resume", resume)

	res, rep, err := naspipe.RunJob(ctx, spec, resume, s.superviseHooks(j.id, bus))

	s.mu.Lock()
	s.met.activeJobs.Dec()
	if rep != nil {
		j.restarts += rep.Restarts
		j.fires += rep.WatchdogFires
		j.gpus = rep.FinalGPUs
		j.health = rep.FinalState.String()
	}
	// Fold the finished bus into the totals before it is dropped, so the
	// naspipe_telemetry_* families keep counting completed jobs' events.
	for i, v := range bus.Counters() {
		s.telTotals[i] += v
	}
	j.flushEvents(s, bus)
	j.bus = nil
	j.cancel = nil

	switch {
	case err == nil:
		j.resume = false
		if spec.Verify {
			j.verified = true
			j.checksum = res.Checksum
			s.finishLocked(j, StateDone, fmt.Sprintf("verified bitwise against sequential reference (%016x)", res.Checksum))
			return
		}
		s.finishLocked(j, StateDone, "stream complete")
	case j.wantCancel:
		s.finishLocked(j, StateCanceled, fmt.Sprintf("canceled by operator: %v", err))
	case s.rootCtx.Err() != nil:
		// Daemon shutdown: the committed frontier is on disk; a restarted
		// daemon re-queues this job from its checkpoint.
		s.finishLocked(j, StateInterrupted, fmt.Sprintf("daemon shutdown mid-run: %v", err))
	default:
		// A concurrent job is supervised, so a crash has already been
		// resumed in-process or turned into a give-up.
		s.finishLocked(j, StateFailed, err.Error())
	}
}

// flushEvents persists the job's telemetry ring as replayable JSONL
// (best-effort; the live bus remains the source of truth until here).
func (j *job) flushEvents(s *Scheduler, bus *telemetry.Bus) {
	evs := bus.Events()
	if len(evs) == 0 {
		return
	}
	f, err := os.Create(j.eventsPath())
	if err != nil {
		s.logf("service: %s: writing events: %v", j.id, err)
		return
	}
	defer f.Close()
	if err := telemetry.WriteJSONL(f, evs); err != nil {
		s.logf("service: %s: writing events: %v", j.id, err)
	}
}
