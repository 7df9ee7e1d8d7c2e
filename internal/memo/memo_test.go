package memo

import (
	"sync"
	"testing"
)

func TestGetBuildsOncePerKey(t *testing.T) {
	tab := New[int, int](2)
	builds := 0
	build := func(v int) func() int {
		return func() int { builds++; return v }
	}
	if got := tab.Get(1, build(10)); got != 10 {
		t.Fatalf("Get(1) = %d, want 10", got)
	}
	if got := tab.Get(1, build(99)); got != 10 {
		t.Fatalf("hit returned %d, want the stored 10", got)
	}
	if builds != 1 {
		t.Fatalf("%d builds for one key, want 1", builds)
	}
}

func TestEvictsOldestInsertion(t *testing.T) {
	tab := New[int, int](3)
	for k := 0; k < 5; k++ {
		tab.Get(k, func() int { return k })
	}
	if n := tab.Len(); n != 3 {
		t.Fatalf("Len = %d after 5 keys, want the limit 3", n)
	}
	// Keys 0 and 1 were inserted first, so they are the ones gone. Probe
	// the survivors before the evicted key, whose rebuild evicts again.
	for _, k := range []int{2, 3, 4, 0} {
		rebuilt := false
		tab.Get(k, func() int { rebuilt = true; return k })
		if want := k == 0; rebuilt != want {
			t.Fatalf("key %d rebuilt=%v, want %v", k, rebuilt, want)
		}
	}
}

// TestConcurrentGetSharesOneValue runs many goroutines on one key; under
// -race it also checks the table's locking.
func TestConcurrentGetSharesOneValue(t *testing.T) {
	tab := New[string, *int](4)
	const n = 16
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = tab.Get("k", func() *int { v := i; return &v })
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different value than caller 0", i)
		}
	}
}

func TestNewRejectsZeroLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int, int](0)
}
