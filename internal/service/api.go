// Package service is the service plane: a multi-tenant, long-running
// job scheduler for supernet-search runs behind a versioned HTTP/JSON
// API, plus the Go client the thin CLI (cmd/naspipe-client) and the
// tests drive it with.
//
// The wire format is the canonical naspipe.JobSpec — the same struct
// that drives the CLIs and the Go API — submitted to POST /v1/jobs and
// multiplexed over a bounded executor pool with per-tenant quotas,
// admission control, and backpressure. Each concurrent-plane job runs
// under the supervision plane (internal/supervise), so an injected or
// real crash auto-resumes from the job's own crash-consistent
// checkpoint and its health state machine is visible over the API.
// NASPipe's CSP guarantee is what makes this multi-tenancy trustworthy:
// every job's weights land bitwise equal to its sequential reference no
// matter how the daemon interleaves, crashes, or resumes it.
//
// API (version prefix mandatory; unknown versions are a structured 404):
//
//	POST /v1/jobs                 submit a JobSpec       → 201 JobStatus
//	GET  /v1/jobs[?tenant=t]      list jobs              → 200 JobList
//	GET  /v1/jobs/{id}            job status (with spec) → 200 JobStatus
//	POST /v1/jobs/{id}/cancel     cancel (idempotent)    → 200 JobStatus
//	POST /v1/jobs/{id}/resume     resume from checkpoint → 202 JobStatus
//	GET  /v1/jobs/{id}/events     telemetry JSONL stream → 200 (chunked)
//	GET  /v1/jobs/{id}/checkpoint checkpoint file bytes  → 200 (binary)
//	GET  /v1/version              negotiation probe      → 200 VersionInfo
//
// Every error response carries {"error": {code, message, field?}} so
// clients branch on code, not prose.
package service

import (
	"fmt"
	"time"

	"naspipe"
)

// APIVersion is the one wire version this build speaks. The path prefix
// and naspipe.JobSpecVersion are the same string by construction.
const APIVersion = naspipe.JobSpecVersion

// ErrorCode is the machine-readable class of an API error.
type ErrorCode string

const (
	// CodeInvalidSpec: the submitted JobSpec failed validation; Field
	// names the offending JSON field. HTTP 400.
	CodeInvalidSpec ErrorCode = "invalid_spec"
	// CodeQuotaExceeded: the tenant is at its active-job quota. HTTP 429.
	CodeQuotaExceeded ErrorCode = "quota_exceeded"
	// CodeBackpressure: the global admission queue is full. HTTP 429.
	CodeBackpressure ErrorCode = "backpressure"
	// CodeNotFound: no such job (or unknown /v1 route). HTTP 404.
	CodeNotFound ErrorCode = "not_found"
	// CodeUnsupportedVersion: the path's API version is not served;
	// Message lists the supported versions. HTTP 404.
	CodeUnsupportedVersion ErrorCode = "unsupported_version"
	// CodeConflict: the operation is illegal in the job's current state
	// (e.g. resume without a checkpoint). HTTP 409.
	CodeConflict ErrorCode = "conflict"
	// CodeShuttingDown: the daemon is draining and admits nothing new.
	// HTTP 503.
	CodeShuttingDown ErrorCode = "shutting_down"
	// CodeInternal: everything else. HTTP 500.
	CodeInternal ErrorCode = "internal"
)

// APIError is the structured error body every non-2xx response carries
// (wrapped as {"error": ...}); it doubles as the Go error the client
// returns, so callers errors.As on it and branch on Code.
type APIError struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// Field names the invalid JobSpec field for CodeInvalidSpec.
	Field string `json:"field,omitempty"`
	// RetryAfterSec, on the 429 codes, is the server's estimate (whole
	// seconds) of when a retry might succeed: for CodeBackpressure it is
	// derived from queue depth over executor throughput, for
	// CodeQuotaExceeded from when the tenant's longest-running job is
	// expected to free a slot. Mirrored in the Retry-After header.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
	// Status is the HTTP status the error traveled with (client side
	// only; not serialized).
	Status int `json:"-"`
}

func (e *APIError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("api: %s (field %q): %s", e.Code, e.Field, e.Message)
	}
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// errorBody is the wire envelope for APIError.
type errorBody struct {
	Error *APIError `json:"error"`
}

// JobState is the service-level lifecycle of a job. While Running, the
// finer-grained supervision health state (running/degraded/recovering)
// is surfaced in JobStatus.Health.
type JobState string

const (
	// StateQueued: admitted, waiting for an executor slot.
	StateQueued JobState = "queued"
	// StateRunning: an executor owns it (supervised incarnations count
	// as one running job).
	StateRunning JobState = "running"
	// StateDone: stream complete; Verified tells whether the bitwise
	// check also passed (when the spec asked for one).
	StateDone JobState = "done"
	// StateFailed: the run or its verification failed, including a
	// supervisor give-up. Not resumable.
	StateFailed JobState = "failed"
	// StateCanceled: stopped by POST .../cancel; resumable when a valid
	// checkpoint holds the committed frontier.
	StateCanceled JobState = "canceled"
	// StateInterrupted: stopped by daemon shutdown mid-run, with a
	// checkpoint on disk (a concurrent job is supervised, so its crashes
	// resume in-process). Resume continues it; a daemon restart re-queues
	// it automatically.
	StateInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is an end state (no executor will
// touch the job again without an explicit resume).
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateInterrupted:
		return true
	}
	return false
}

// ExitCode maps the job state onto the naspipe CLI exit-code taxonomy —
// the same contract operators script against:
//
//	done → 0 (ok), failed → 1 (failure),
//	canceled/interrupted → 3 (resumable) when a checkpoint stands, else 1,
//	queued/running → -1 (no exit yet).
func (s JobState) ExitCode(resumable bool) int {
	switch s {
	case StateDone:
		return int(naspipe.ExitOK)
	case StateFailed:
		return int(naspipe.ExitFailure)
	case StateCanceled, StateInterrupted:
		if resumable {
			return int(naspipe.ExitResumable)
		}
		return int(naspipe.ExitFailure)
	}
	return -1
}

// JobStatus is the API's view of one job. List responses omit Spec;
// submit/get/cancel/resume responses include it.
type JobStatus struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	Name   string   `json:"name,omitempty"`
	State  JobState `json:"state"`
	// Health is the supervision plane's live state machine value
	// (running/degraded/recovering/done/failed) while the job executes;
	// empty for simulated or queued jobs.
	Health string `json:"health,omitempty"`
	// Detail carries the terminal error text (failed), the cancel/crash
	// cause (canceled/interrupted), or the verification verdict (done).
	Detail string `json:"detail,omitempty"`
	// Restarts and WatchdogFires summarize the supervisor's work so far.
	Restarts      int `json:"restarts"`
	WatchdogFires int `json:"watchdog_fires,omitempty"`
	// Cursor/Total: committed frontier over the stream length.
	Cursor int `json:"cursor"`
	Total  int `json:"total"`
	GPUs   int `json:"gpus"`
	// Verified is true once the job's weights were checked bitwise equal
	// to the sequential reference; Checksum is that FNV-64 value.
	Verified bool   `json:"verified,omitempty"`
	Checksum string `json:"checksum,omitempty"`
	// Resumable: a valid checkpoint holds the committed frontier and
	// POST .../resume will continue from it.
	Resumable bool `json:"resumable,omitempty"`
	// ExitCode maps the state onto the CLI taxonomy (-1 while active);
	// ExitName is its symbolic form ("ok", "failure", "resumable").
	ExitCode int    `json:"exit_code"`
	ExitName string `json:"exit_name,omitempty"`
	// TenantActive/TenantQuota are the tenant's slot occupancy at read
	// time — the CodeQuotaExceeded inputs, surfaced per job so a 429's
	// arithmetic is checkable from any status response.
	TenantActive int `json:"tenant_active"`
	TenantQuota  int `json:"tenant_quota"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`

	// Spec is the effective (normalized) JobSpec the job runs with.
	Spec *naspipe.JobSpec `json:"spec,omitempty"`
}

// TenantStats is one tenant's slot occupancy against its quota — the
// CodeQuotaExceeded input.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Active is queued+running jobs; Running the subset holding an
	// executor slot right now.
	Active  int `json:"active"`
	Running int `json:"running"`
	Quota   int `json:"quota"`
}

// SchedStats exposes the scheduler's live admission state — the same
// numbers retryAfterLocked feeds the Retry-After estimate from, so
// naspipe-client top and operators see exactly what the backpressure
// math sees.
type SchedStats struct {
	// QueueDepth over QueueLimit is the CodeBackpressure input.
	QueueDepth int `json:"queue_depth"`
	QueueLimit int `json:"queue_limit"`
	// Workers is the executor-pool size; ActiveJobs how many slots are
	// occupied right now.
	Workers    int `json:"workers"`
	ActiveJobs int `json:"active_jobs"`
	// RunEWMASec is the smoothed wall time of completed runs — the
	// per-run cost estimate behind every Retry-After second.
	RunEWMASec float64 `json:"run_ewma_sec"`
	// Tenants lists per-tenant slot occupancy, sorted by tenant name.
	Tenants []TenantStats `json:"tenants,omitempty"`
}

// JobList is the GET /v1/jobs response, in submission order. Stats
// carries the scheduler's live admission state alongside the jobs.
type JobList struct {
	Jobs  []JobStatus `json:"jobs"`
	Stats *SchedStats `json:"stats,omitempty"`
}

// VersionInfo is the GET /v1/version response.
type VersionInfo struct {
	Version   string   `json:"version"`
	Supported []string `json:"supported"`
}
