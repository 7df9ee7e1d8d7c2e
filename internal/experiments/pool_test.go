package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := parallelMap(context.Background(), workers, 40, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d holds %d", workers, i, v)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	ref, _ := parallelMap(context.Background(), 1, 25, func(i int) (string, error) {
		return fmt.Sprintf("job-%d", i), nil
	})
	par, _ := parallelMap(context.Background(), 8, 25, func(i int) (string, error) {
		return fmt.Sprintf("job-%d", i), nil
	})
	for i := range ref {
		if ref[i] != par[i] {
			t.Fatalf("slot %d differs: %q vs %q", i, ref[i], par[i])
		}
	}
}

// TestMapBoundsConcurrency holds every job at a barrier until the pool
// has `workers` jobs in flight at once, then lets them all run: the bound
// is reached (otherwise the barrier never opens) and never exceeded.
func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	full := make(chan struct{})
	var open sync.Once
	_, err := parallelMap(context.Background(), workers, 30, func(i int) (int, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		if cur == workers {
			open.Do(func() { close(full) })
		}
		select {
		case <-full:
			return i, nil
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("job %d: at most %d of %d workers ever ran at once", i, peak.Load(), workers)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != workers {
		t.Fatalf("observed %d concurrent jobs, want exactly %d", got, workers)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	_, err := parallelMap(context.Background(), 4, 20, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, errLow
		case 17:
			return 0, errHigh
		}
		return i, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("want lowest-index error, got %v", err)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	_, err := parallelMap(ctx, 2, 1000, func(i int) (int, error) {
		if started.Add(1) == 4 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch (%d jobs ran)", n)
	}
}

func TestMapZeroJobs(t *testing.T) {
	got, err := parallelMap(context.Background(), 4, 0, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("zero jobs: %v %v", got, err)
	}
}

func TestWorkers(t *testing.T) {
	if workerCount(5, 3) != 3 {
		t.Fatal("not capped at job count")
	}
	if workerCount(0, 100) < 1 {
		t.Fatal("default workers below 1")
	}
	if workerCount(2, 100) != 2 {
		t.Fatal("explicit worker count not honored")
	}
}
