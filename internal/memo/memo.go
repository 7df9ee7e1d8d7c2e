// Package memo holds the bounded memo table behind the numeric plane's
// pure builders (initial supernet weights, WNMT vocabularies). Each value
// is a pure function of its key, so a table may drop any entry at any time
// and only the cost of rebuilding it changes. A fixed capacity keeps a
// long-lived process (the naspiped daemon) from growing one entry per
// configuration it ever trained.
package memo

import "sync"

// Table maps keys to immutable values, keeping at most a fixed number of
// entries and evicting the oldest insertion first. Values must never be
// mutated once stored: every caller of Get shares them.
type Table[K comparable, V any] struct {
	mu    sync.Mutex
	limit int
	order []K // insertion order, oldest first
	vals  map[K]V
}

// New returns an empty table holding at most limit entries (limit ≥ 1).
func New[K comparable, V any](limit int) *Table[K, V] {
	if limit < 1 {
		panic("memo: limit must be at least 1")
	}
	return &Table[K, V]{limit: limit, vals: make(map[K]V, limit)}
}

// Get returns the value for k, calling build on a miss. build runs outside
// the lock, so concurrent misses on one key may each build; the first
// value stored wins and every caller gets that one.
func (t *Table[K, V]) Get(k K, build func() V) V {
	t.mu.Lock()
	v, ok := t.vals[k]
	t.mu.Unlock()
	if ok {
		return v
	}
	built := build()
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.vals[k]; ok {
		return v
	}
	if len(t.order) == t.limit {
		delete(t.vals, t.order[0])
		t.order = append(t.order[:0], t.order[1:]...)
	}
	t.order = append(t.order, k)
	t.vals[k] = built
	return built
}

// Len returns the number of stored entries.
func (t *Table[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.vals)
}
