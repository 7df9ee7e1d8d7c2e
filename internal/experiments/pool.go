package experiments

import (
	"context"
	"runtime"
	"sync"
)

// The bounded worker pool behind AllContext: a fan of independent jobs
// across a fixed number of goroutines with results delivered in
// submission order, so that parallel execution is output-identical to
// serial execution. parallelMap assigns job i's result to slot i
// regardless of completion order, and error selection is by lowest
// index, so callers observe the same values a serial loop would produce
// (assuming each job is itself a pure function of its index).

// workerCount normalizes a parallelism setting: values <= 0 mean "one
// worker per available CPU" (GOMAXPROCS), and the result is capped at n
// jobs.
func workerCount(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelMap runs fn(i) for every i in [0, n) on at most workers
// goroutines and returns the n results in index order. workers <= 0
// selects GOMAXPROCS.
//
// Cancellation: when ctx is cancelled, no further jobs are dispatched;
// in-flight jobs run to completion, their slots are filled, and
// parallelMap returns the partial results with ctx.Err(). Undispatched
// slots hold the zero value.
//
// Errors: if any job returns an error (and ctx was not cancelled),
// parallelMap returns the full result slice and the error of the
// lowest-indexed failing job — the same error a serial loop stopping at
// the first failure would surface.
func parallelMap[T any](ctx context.Context, workers, n int, fn func(int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	errs := make([]error, n)
	workers = workerCount(workers, n)

	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
