package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"naspipe"
	"naspipe/internal/telemetry"
)

// newTestDaemon stands up a scheduler + HTTP server on a free port and
// returns a client for it. Cleanup drains everything.
func newTestDaemon(t *testing.T, cfg SchedulerConfig) (*Client, *Scheduler) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	sched, err := NewScheduler(cfg)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	addr, shutdown, err := telemetry.Serve("127.0.0.1:0", NewServer(sched))
	if err != nil {
		sched.Close()
		t.Fatalf("Serve: %v", err)
	}
	c := NewClient("http://" + addr)
	c.HTTP = &http.Client{}
	t.Cleanup(func() {
		shutdown()
		sched.Close()
		c.HTTP.CloseIdleConnections()
	})
	return c, sched
}

// simSpec is a fast simulated job.
func simSpec(tenant string) naspipe.JobSpec {
	return naspipe.JobSpec{
		Tenant: tenant, Space: "NLP.c3", ScaleBlocks: 6, ScaleChoices: 3,
		Executor: "simulated", GPUs: 2, Subnets: 4, Seed: 11,
	}
}

// slowSpec is a concurrent job that takes real wall-clock time (jittered
// tasks sleep), long enough to observe and cancel mid-run.
func slowSpec(tenant string) naspipe.JobSpec {
	return naspipe.JobSpec{
		Tenant: tenant, Space: "NLP.c3", ScaleBlocks: 8, ScaleChoices: 3,
		Executor: "concurrent", GPUs: 4, Subnets: 64, Seed: 11,
		Jitter: 0.9, JitterSeed: 11,
		Train: &naspipe.TrainSpec{Dim: 8, BatchSize: 2, LR: 0.05},
	}
}

func TestVersionNegotiation(t *testing.T) {
	c, _ := newTestDaemon(t, SchedulerConfig{})
	ctx := context.Background()

	v, err := c.Version(ctx)
	if err != nil {
		t.Fatalf("version probe: %v", err)
	}
	if v.Version != APIVersion || len(v.Supported) != 1 || v.Supported[0] != APIVersion {
		t.Fatalf("version info = %+v, want only %q", v, APIVersion)
	}

	// A request outside /v1 must be a structured 404 naming the supported
	// versions — never a silent fallback.
	resp, err := c.HTTP.Get(c.Base + "/v2/jobs")
	if err != nil {
		t.Fatalf("GET /v2/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v2/jobs status = %d, want 404", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == nil {
		t.Fatalf("unstructured /v2 error body (decode err %v)", err)
	}
	if eb.Error.Code != CodeUnsupportedVersion {
		t.Fatalf("/v2 error code = %q, want %q", eb.Error.Code, CodeUnsupportedVersion)
	}
	if !strings.Contains(eb.Error.Message, APIVersion) {
		t.Fatalf("/v2 error message does not name the supported version: %q", eb.Error.Message)
	}
}

func TestSubmitMalformedSpec(t *testing.T) {
	c, _ := newTestDaemon(t, SchedulerConfig{})
	ctx := context.Background()

	// An invalid field value: structured 400 naming the field.
	bad := simSpec("")
	bad.GPUs = -2
	_, err := c.Submit(ctx, bad)
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("invalid spec error = %v (%T), want *APIError", err, err)
	}
	if ae.Status != http.StatusBadRequest || ae.Code != CodeInvalidSpec || ae.Field != "gpus" {
		t.Fatalf("invalid spec → status %d code %q field %q; want 400 %q gpus",
			ae.Status, ae.Code, ae.Field, CodeInvalidSpec)
	}

	// Unknown JSON fields are rejected, not silently dropped — a typoed
	// knob must not become a default-valued run.
	resp, err := c.HTTP.Post(c.Base+"/"+APIVersion+"/jobs", "application/json",
		strings.NewReader(`{"space":"NLP.c1","gpus":2,"subnets":4,"windw":9}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field submit status = %d, want 400", resp.StatusCode)
	}

	// Unresolvable space, reported by name.
	bad = simSpec("")
	bad.Space = "NLP.c99"
	_, err = c.Submit(ctx, bad)
	if ae, ok := err.(*APIError); !ok || ae.Field != "space" {
		t.Fatalf("unknown space error = %v, want field \"space\"", err)
	}
}

func TestCancelIdempotentOnFinishedJob(t *testing.T) {
	c, _ := newTestDaemon(t, SchedulerConfig{})
	ctx := context.Background()

	st, err := c.Submit(ctx, simSpec(""))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Detail)
	}
	// Cancel after completion: 200, unchanged status, every time.
	for i := 0; i < 2; i++ {
		got, err := c.Cancel(ctx, st.ID)
		if err != nil {
			t.Fatalf("cancel #%d of a done job: %v", i+1, err)
		}
		if got.State != StateDone || got.ExitCode != int(naspipe.ExitOK) {
			t.Fatalf("cancel #%d changed the job: state %s exit %d", i+1, got.State, got.ExitCode)
		}
	}
}

func TestResumeConflicts(t *testing.T) {
	// One worker, held by a slow job, so a second submission stays queued.
	c, _ := newTestDaemon(t, SchedulerConfig{Workers: 1})
	ctx := context.Background()

	holder, err := c.Submit(ctx, slowSpec(""))
	if err != nil {
		t.Fatalf("submit holder: %v", err)
	}
	queued, err := c.Submit(ctx, simSpec(""))
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	// Resuming an active job is a conflict.
	if _, err := c.Resume(ctx, queued.ID); asCode(err) != CodeConflict {
		t.Fatalf("resume of a queued job = %v, want %q", err, CodeConflict)
	}

	// Cancel it while queued: it never ran, so there is no checkpoint and
	// resume must 409 rather than silently restart.
	got, err := c.Cancel(ctx, queued.ID)
	if err != nil || got.State != StateCanceled {
		t.Fatalf("cancel queued job: state %s, err %v", got.State, err)
	}
	if got.Resumable {
		t.Fatal("never-ran job reported resumable")
	}
	_, err = c.Resume(ctx, queued.ID)
	ae, ok := err.(*APIError)
	if !ok || ae.Code != CodeConflict || ae.Status != http.StatusConflict {
		t.Fatalf("resume without checkpoint = %v, want 409 %q", err, CodeConflict)
	}

	// Unknown job: 404.
	if _, err := c.Resume(ctx, "j9999"); asCode(err) != CodeNotFound {
		t.Fatalf("resume of unknown job = %v, want %q", err, CodeNotFound)
	}

	if _, err := c.Cancel(ctx, holder.ID); err != nil {
		t.Fatalf("cancel holder: %v", err)
	}
	if _, err := c.Wait(ctx, holder.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("wait holder: %v", err)
	}

	// A done job cannot be resumed either.
	done, err := c.Submit(ctx, simSpec(""))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Wait(ctx, done.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if _, err := c.Resume(ctx, done.ID); asCode(err) != CodeConflict {
		t.Fatalf("resume of a done job = %v, want %q", err, CodeConflict)
	}
}

// quickSpec is a short concurrent job.
func quickSpec() naspipe.JobSpec {
	return naspipe.JobSpec{
		Space: "NLP.c3", ScaleBlocks: 6, ScaleChoices: 3,
		Executor: "concurrent", GPUs: 2, Subnets: 6, Seed: 3,
	}
}

// TestResumeRefusesGivenUpJob: a job the supervisor gave up on is
// failed, and failed is not resumable although its checkpoint loads —
// Resume must refuse it with 409, as its own status says.
func TestResumeRefusesGivenUpJob(t *testing.T) {
	c, _ := newTestDaemon(t, SchedulerConfig{})
	ctx := context.Background()

	// Incarnations 0 and 1 both crash at subnet 2; one restart allowed.
	spec := quickSpec()
	spec.Faults = "seed=1,crashat=0:1:2:F,crashat=1:1:2:F"
	spec.Supervise = &naspipe.SuperviseSpec{MaxRestarts: 1,
		Backoff: naspipe.Duration(100 * time.Microsecond), BackoffMax: naspipe.Duration(time.Millisecond)}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	got, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got.State != StateFailed || !strings.Contains(got.Detail, "giving up") {
		t.Fatalf("job ended %s (%s), want a give-up", got.State, got.Detail)
	}
	if got.Resumable || got.ExitCode != int(naspipe.ExitFailure) {
		t.Fatalf("given-up job: resumable=%v exit=%d, want false/1", got.Resumable, got.ExitCode)
	}
	if _, err := c.Checkpoint(ctx, st.ID); err != nil {
		t.Fatalf("the given-up job left no checkpoint, so the refusal proves nothing: %v", err)
	}
	_, err = c.Resume(ctx, st.ID)
	if ae, ok := err.(*APIError); !ok || ae.Code != CodeConflict || ae.Status != http.StatusConflict {
		t.Fatalf("resume of a given-up job = %v, want 409 %q", err, CodeConflict)
	}
	if after, err := c.Get(ctx, st.ID); err != nil || after.State != StateFailed {
		t.Fatalf("refused resume moved the job to %s (err %v)", after.State, err)
	}
}

// TestRefusedResumeLeavesJobUnchanged: a resume refused with 429 leaves
// the job exactly as it was, in memory and in status.json. Wedged jobs
// keep the queue full, so no sleep stands in for timing.
func TestRefusedResumeLeavesJobUnchanged(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// An interrupted job with a checkpoint: run one to completion, then
	// mark it interrupted on disk, as a daemon shutdown mid-run leaves it.
	first, err := NewScheduler(SchedulerConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := first.Submit(quickSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := first.Wait(ctx, st.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	first.Close()
	statusPath := filepath.Join(dir, st.ID, "status.json")
	buf, err := os.ReadFile(statusPath)
	if err != nil {
		t.Fatal(err)
	}
	var p persistedJob
	if err := json.Unmarshal(buf, &p); err != nil {
		t.Fatal(err)
	}
	p.State = StateInterrupted
	buf, _ = json.MarshalIndent(p, "", "  ")
	if err := os.WriteFile(statusPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	sched, err := NewScheduler(SchedulerConfig{StateDir: dir, Workers: 1, QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	// A second wedged job is admitted only once the one worker has taken
	// the first, which then never finishes: the queue stays full.
	wedge := quickSpec()
	wedge.Faults = "seed=1,wedgeat=1:1:F"
	wedge.Supervise = &naspipe.SuperviseSpec{StallTimeout: naspipe.Duration(time.Hour)}
	for admitted := 0; admitted < 2; {
		_, err := sched.Submit(wedge)
		switch {
		case err == nil:
			admitted++
		case asCode(err) == CodeBackpressure:
			runtime.Gosched()
		default:
			t.Fatalf("wedge submit: %v", err)
		}
	}

	before, err := sched.Get(st.ID)
	if err != nil || before.State != StateInterrupted || !before.Resumable {
		t.Fatalf("job to resume: state %s resumable %v (err %v)", before.State, before.Resumable, err)
	}
	onDisk, err := os.ReadFile(statusPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Resume(st.ID); asCode(err) != CodeBackpressure {
		t.Fatalf("resume into a full queue = %v, want %q", err, CodeBackpressure)
	}
	after, err := sched.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(before)
	gotJSON, _ := json.Marshal(after)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("429'd resume changed the job:\nbefore %s\nafter  %s", wantJSON, gotJSON)
	}
	if now, err := os.ReadFile(statusPath); err != nil || string(now) != string(onDisk) {
		t.Fatalf("429'd resume changed status.json (err %v):\nbefore %s\nafter  %s", err, onDisk, now)
	}
}

func asCode(err error) ErrorCode {
	if ae, ok := err.(*APIError); ok {
		return ae.Code
	}
	return ""
}

// TestCancelThenResumeContinuesFromCheckpoint drives the full operator
// loop over the API: cancel a running job mid-stream, observe it
// resumable at its committed frontier, resume it, and verify the
// finished weights bitwise. A wedge at stage 0's backward of subnet 10
// holds the first incarnation at committed cursor 10 (it fires in
// incarnation 0 only, so the resume runs clean); the 1 h stall timeout
// keeps the watchdog out of it.
func TestCancelThenResumeContinuesFromCheckpoint(t *testing.T) {
	c, _ := newTestDaemon(t, SchedulerConfig{})
	ctx := context.Background()

	const wedgeCursor = 10
	spec := slowSpec("")
	spec.Verify = true
	spec.Faults = fmt.Sprintf("seed=7,wedgeat=0:%d:B", wedgeCursor)
	spec.Supervise = &naspipe.SuperviseSpec{StallTimeout: naspipe.Duration(time.Hour)}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait until the durable cursor reaches the wedge: the run can go no
	// further, so the cancel lands at exactly that frontier.
	for {
		got, err := c.Get(ctx, st.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if got.Cursor >= wedgeCursor {
			break
		}
		if got.State.Terminal() {
			t.Fatalf("job reached %s before the wedge held it", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	got, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait after cancel: %v", err)
	}
	if got.State != StateCanceled {
		t.Fatalf("state after cancel = %s (%s), want canceled", got.State, got.Detail)
	}
	if !got.Resumable || got.ExitCode != int(naspipe.ExitResumable) {
		t.Fatalf("canceled mid-run but resumable=%v exit=%d", got.Resumable, got.ExitCode)
	}
	if got.Cursor != wedgeCursor {
		t.Fatalf("cancel frontier %d/%d, want the wedge's %d", got.Cursor, got.Total, wedgeCursor)
	}

	// The checkpoint endpoint serves the committed frontier's bytes.
	buf, err := c.Checkpoint(ctx, st.ID)
	if err != nil || len(buf) == 0 {
		t.Fatalf("checkpoint fetch: %d bytes, err %v", len(buf), err)
	}

	if _, err := c.Resume(ctx, st.ID); err != nil {
		t.Fatalf("resume: %v", err)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait after resume: %v", err)
	}
	if final.State != StateDone || !final.Verified {
		t.Fatalf("resumed job: state %s verified %v (%s)", final.State, final.Verified, final.Detail)
	}
	if final.Cursor != final.Total {
		t.Fatalf("resumed job frontier %d/%d", final.Cursor, final.Total)
	}
}

// TestCancelQueuedJobFreesAdmissionSlot: a job canceled while queued
// leaves the admission queue at once, so the queue depth drops and its
// slot admits the next job while the worker is still busy.
func TestCancelQueuedJobFreesAdmissionSlot(t *testing.T) {
	sched, err := NewScheduler(SchedulerConfig{StateDir: t.TempDir(), Workers: 1, QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sched.Close)
	// A holds the one worker for good; B is admitted only once the worker
	// has taken A, and then waits in the queue.
	wedge := quickSpec()
	wedge.Faults = "seed=1,wedgeat=1:1:F"
	wedge.Supervise = &naspipe.SuperviseSpec{StallTimeout: naspipe.Duration(time.Hour)}
	if _, err := sched.Submit(wedge); err != nil {
		t.Fatalf("submit A: %v", err)
	}
	var b JobStatus
	for {
		b, err = sched.Submit(quickSpec())
		if err == nil {
			break
		}
		if asCode(err) != CodeBackpressure {
			t.Fatalf("submit B: %v", err)
		}
		runtime.Gosched()
	}
	if got := sched.Stats().QueueDepth; got != 1 {
		t.Fatalf("queue depth with B waiting = %d, want 1", got)
	}
	if st, err := sched.Cancel(b.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel B: state %s, err %v", st.State, err)
	}
	if got := sched.Stats().QueueDepth; got != 0 {
		t.Fatalf("queue depth after canceling queued B = %d, want 0", got)
	}
	if _, err := sched.Submit(quickSpec()); err != nil {
		t.Fatalf("submit C into the slot B freed: %v", err)
	}
}

// TestDaemonRecovery simulates the kill -9 story at the persistence
// layer: a job is mid-run with its status persisted as running and its
// checkpoint on disk when the daemon dies without any shutdown path.
// A new scheduler over the same state dir must re-queue it and finish
// it from the committed frontier.
func TestDaemonRecovery(t *testing.T) {
	dir := t.TempDir()
	c, _ := newTestDaemon(t, SchedulerConfig{StateDir: dir})
	ctx := context.Background()

	spec := slowSpec("")
	spec.Verify = true
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for {
		got, gerr := c.Get(ctx, st.ID)
		if gerr != nil {
			t.Fatalf("status: %v", gerr)
		}
		if got.Cursor >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}

	// Rewrite the persisted state to what a kill -9 mid-run leaves
	// behind: status.json still says running.
	statusPath := filepath.Join(dir, st.ID, "status.json")
	buf, err := os.ReadFile(statusPath)
	if err != nil {
		t.Fatalf("reading persisted status: %v", err)
	}
	var p persistedJob
	if err := json.Unmarshal(buf, &p); err != nil {
		t.Fatalf("decoding persisted status: %v", err)
	}
	p.State = StateRunning
	buf, _ = json.MarshalIndent(p, "", "  ")
	if err := os.WriteFile(statusPath, buf, 0o644); err != nil {
		t.Fatalf("rewriting status: %v", err)
	}

	// "Restart the daemon": a fresh scheduler over the same state dir.
	sched2, err := NewScheduler(SchedulerConfig{StateDir: dir})
	if err != nil {
		t.Fatalf("restarted scheduler: %v", err)
	}
	defer sched2.Close()
	final, err := sched2.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("wait on recovered job: %v", err)
	}
	if final.State != StateDone || !final.Verified {
		t.Fatalf("recovered job: state %s verified %v (%s)", final.State, final.Verified, final.Detail)
	}
	if final.Cursor != final.Total {
		t.Fatalf("recovered job frontier %d/%d", final.Cursor, final.Total)
	}
}

// TestEventsStream checks the JSONL telemetry endpoint end to end,
// including persistence across job completion.
func TestEventsStream(t *testing.T) {
	c, _ := newTestDaemon(t, SchedulerConfig{})
	ctx := context.Background()

	spec := naspipe.JobSpec{
		Space: "NLP.c3", ScaleBlocks: 6, ScaleChoices: 3,
		Executor: "concurrent", GPUs: 2, Subnets: 6, Seed: 3,
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}
	body, err := c.Events(ctx, st.ID, false)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer body.Close()
	var lines int
	dec := json.NewDecoder(body)
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("events line %d: %v", lines, err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("finished concurrent job produced no telemetry events")
	}

	if _, err := c.Events(ctx, "j9999", false); asCode(err) != CodeNotFound {
		t.Fatalf("events of unknown job = %v, want %q", err, CodeNotFound)
	}
}
