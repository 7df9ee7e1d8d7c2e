package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"testing"
	"time"

	"naspipe"
)

// TestRetryAfterDerivation pins the retry-hint math against a scheduler
// with manufactured state (no executor pool — the fields are
// package-local): backpressure scales with queue depth over worker
// throughput, quota waits for the tenant's longest-running job, and
// both respect the [1, 300] clamp.
func TestRetryAfterDerivation(t *testing.T) {
	s := &Scheduler{
		cfg:    SchedulerConfig{StateDir: t.TempDir(), Workers: 2, QueueLimit: 8, TenantQuota: 2}.withDefaults(),
		jobs:   make(map[string]*job),
		active: make(map[string]int),
	}

	// No completed run on record: nothing to extrapolate from, so both
	// codes fall back to the 1-second floor.
	if got := s.retryAfterLocked(CodeBackpressure, "a"); got != 1 {
		t.Fatalf("backpressure with no history = %d, want 1", got)
	}
	if got := s.retryAfterLocked(CodeQuotaExceeded, "a"); got != 1 {
		t.Fatalf("quota with no history = %d, want 1", got)
	}

	s.runEWMA = 10 * time.Second
	for i := 0; i < 4; i++ {
		s.queue = append(s.queue, &job{})
	}
	// 4 queued jobs drain through 2 workers at ~10s each → ~20s.
	if got := s.retryAfterLocked(CodeBackpressure, "a"); got != 20 {
		t.Fatalf("backpressure hint = %d, want 20", got)
	}

	// Tenant "a" has a job ~6s into an expected ~10s run, so a slot
	// should free in ~4s; tenant "b" has nothing running, so a full run
	// must complete first.
	s.jobs["j0001"] = &job{id: "j0001", spec: naspipe.JobSpec{Tenant: "a"},
		state: StateRunning, started: time.Now().Add(-6 * time.Second)}
	s.order = append(s.order, "j0001")
	if got := s.retryAfterLocked(CodeQuotaExceeded, "a"); got < 3 || got > 5 {
		t.Fatalf("quota hint for tenant with a running job = %d, want ~4", got)
	}
	if got := s.retryAfterLocked(CodeQuotaExceeded, "b"); got != 10 {
		t.Fatalf("quota hint for fully-queued tenant = %d, want 10", got)
	}

	// A tenant job already past its expected finish clamps to the floor,
	// and an enormous backlog clamps to the 300s ceiling.
	s.jobs["j0001"].started = time.Now().Add(-time.Minute)
	if got := s.retryAfterLocked(CodeQuotaExceeded, "a"); got != 1 {
		t.Fatalf("overdue-job quota hint = %d, want 1", got)
	}
	s.runEWMA = 1000 * time.Second
	if got := s.retryAfterLocked(CodeBackpressure, "a"); got != 300 {
		t.Fatalf("clamped backpressure hint = %d, want 300", got)
	}
}

// TestRetryAfterOnWire distinguishes the two 429 classes end to end: an
// over-quota submit and a backpressure submit both carry a structured
// code, a retry_after_sec body field, and a matching numeric
// Retry-After header — no hard-coded "1" once run history exists.
func TestRetryAfterOnWire(t *testing.T) {
	c, sched := newTestDaemon(t, SchedulerConfig{Workers: 1, QueueLimit: 1, TenantQuota: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, slowSpec("a"))
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	// Wait for the worker to own it so the next tenant's job lands in
	// the (single-slot) queue instead of racing it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := c.Get(ctx, st.ID)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started (state %s)", st.ID, got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Tenant "a" is at quota.
	_, err = c.Submit(ctx, slowSpec("a"))
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != CodeQuotaExceeded {
		t.Fatalf("over-quota submit = %v, want %q", err, CodeQuotaExceeded)
	}
	if ae.Status != http.StatusTooManyRequests || ae.RetryAfterSec < 1 {
		t.Fatalf("quota error = status %d retry %ds, want 429 with a positive hint", ae.Status, ae.RetryAfterSec)
	}

	// Tenant "b" fills the queue slot; tenant "c" hits backpressure.
	if _, err := c.Submit(ctx, slowSpec("b")); err != nil {
		t.Fatalf("queue-filling submit: %v", err)
	}
	buf, _ := json.Marshal(slowSpec("c"))
	resp, err := c.HTTP.Post(c.Base+"/"+APIVersion+"/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("raw submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressure status = %d, want 429", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == nil {
		t.Fatalf("decoding backpressure body: %v", err)
	}
	if eb.Error.Code != CodeBackpressure {
		t.Fatalf("backpressure code = %q, want %q (must be distinguishable from quota)", eb.Error.Code, CodeBackpressure)
	}
	hdr, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || hdr < 1 {
		t.Fatalf("Retry-After header = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if eb.Error.RetryAfterSec != hdr {
		t.Fatalf("body hint %ds != header %ds", eb.Error.RetryAfterSec, hdr)
	}

	// Once a run completes, quota hints extrapolate from its wall time
	// instead of the no-history floor.
	sched.mu.Lock()
	sched.runEWMA = 90 * time.Second
	sched.mu.Unlock()
	_, err = c.Submit(ctx, slowSpec("b"))
	if !errors.As(err, &ae) || ae.Code != CodeQuotaExceeded {
		t.Fatalf("tenant-b over-quota submit = %v, want %q", err, CodeQuotaExceeded)
	}
	if ae.RetryAfterSec <= 1 {
		t.Fatalf("derived quota hint = %ds, want > 1 with 90s run history", ae.RetryAfterSec)
	}
}
