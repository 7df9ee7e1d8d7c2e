package fault

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func sampleCheckpoint() Checkpoint {
	return Checkpoint{
		Space: "NLP.c3[8x3]", Seed: 42, GPUs: 4, NumSubnets: 48,
		Cursor: 17, Incarnation: 2, WeightChecksum: 0xdeadbeefcafe1234,
		FaultSeed: 7, JitterSeed: 11, Finished: []int{19, 21},
	}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	got, err := Decode(c.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
	// Empty Finished must round-trip to nil, not a zero-length slice.
	c.Finished = nil
	got, err = Decode(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Finished != nil {
		t.Fatalf("empty finished decoded as %v", got.Finished)
	}
}

func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	buf := sampleCheckpoint().Encode()
	cases := map[string][]byte{
		"empty":       {},
		"short":       buf[:8],
		"bad magic":   append([]byte("XXXX"), buf[4:]...),
		"bad version": append(append([]byte{}, buf[:4]...), append([]byte{99}, buf[5:]...)...),
		"truncated":   buf[:len(buf)-3],
	}
	flipped := append([]byte(nil), buf...)
	flipped[10] ^= 0xff
	cases["bit flip"] = flipped
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

func TestCheckpointSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.bin")
	c := sampleCheckpoint()
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("Load mismatch: %+v vs %+v", got, c)
	}
	// Overwrite with a later state; no temp files may linger.
	c.Cursor = 30
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ck.bin" {
		t.Fatalf("directory not clean after save: %v", entries)
	}
	got, _ = Load(path)
	if got.Cursor != 30 {
		t.Fatalf("overwrite lost: cursor %d", got.Cursor)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.bin")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}

func TestFileRecorderThrottleAndFinalCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	ident := Checkpoint{Space: "s", Seed: 1, GPUs: 2, NumSubnets: 10}
	r := NewFileRecorder(path, ident, 4, nil)
	if err := r.Init(); err != nil {
		t.Fatal(err)
	}
	for cur := 1; cur <= 10; cur++ {
		if err := r.Snapshot(Cut{Cursor: cur}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	// Init, then the due cuts 4, 8 and the always-due final cut (10),
	// which the writer may coalesce down to one save.
	st := r.Stats()
	if st.Saves < 2 || st.Saves > 4 {
		t.Fatalf("saves = %d, want 2..4 (init + 4, 8, final coalesced at will)", st.Saves)
	}
	if st.Cuts != 10 {
		t.Fatalf("cuts = %d, want 10", st.Cuts)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cursor != 10 {
		t.Fatalf("final cursor %d, want 10", got.Cursor)
	}
}

// TestFileRecorderFlushPersistsThrottledCut: a cut the throttle skipped
// is still the committed frontier, and Flush leaves it on disk.
func TestFileRecorderFlushPersistsThrottledCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	r := NewFileRecorder(path, Checkpoint{NumSubnets: 10}, 4, nil)
	if err := r.Init(); err != nil {
		t.Fatal(err)
	}
	for cur := 1; cur <= 7; cur++ {
		if err := r.Snapshot(Cut{Cursor: cur}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := Load(path); got.Cursor != 7 {
		t.Fatalf("flushed cursor %d, want 7", got.Cursor)
	}
	saves := r.Stats().Saves
	if err := r.Flush(); err != nil || r.Stats().Saves != saves {
		t.Fatalf("second Flush wrote again (saves %d -> %d, err %v)", saves, r.Stats().Saves, err)
	}
}

// TestFileRecorderWithoutPathKeepsCursorInMemory: a recorder with no
// path is a fleet's cursor when its spec keeps no checkpoint. Cuts and
// bumps move the committed state; nothing touches a disk, no writer
// starts, and a cut allocates nothing.
func TestFileRecorderWithoutPathKeepsCursorInMemory(t *testing.T) {
	base := runtime.NumGoroutine()
	r := NewFileRecorder("", Checkpoint{NumSubnets: 1000}, 1, func(int) uint64 {
		t.Error("a memory-only recorder computed a weight checksum")
		return 0
	})
	if err := r.Init(); err != nil {
		t.Fatal(err)
	}
	finished := []int{9, 7}
	cur := 0
	if allocs := testing.AllocsPerRun(100, func() {
		cur++
		if err := r.Snapshot(Cut{Cursor: cur, Finished: finished}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Snapshot allocates %v per cut, want 0", allocs)
	}
	if err := r.Bump(); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := r.Committed(); got.Cursor != cur || got.Incarnation != 1 {
		t.Fatalf("committed %+v, want cursor %d at incarnation 1", got, cur)
	}
	if st := r.Stats(); st.Cuts != cur || st.Saves != 0 {
		t.Fatalf("stats %+v, want %d cuts and no saves", st, cur)
	}
	settleGoroutines(t, base)
}

func TestFileRecorderIgnoresStaleCuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	r := NewFileRecorder(path, Checkpoint{NumSubnets: 10, Cursor: 5}, 1, nil)
	if err := r.Snapshot(Cut{Cursor: 3}); err != nil {
		t.Fatal(err)
	}
	if got := r.Committed().Cursor; got != 5 {
		t.Fatalf("stale cut regressed cursor to %d", got)
	}
}

func TestFileRecorderBumpAndWeightFn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	weightFn := func(cursor int) uint64 { return uint64(1000 + cursor) }
	r := NewFileRecorder(path, Checkpoint{Space: "s", NumSubnets: 10}, 1, weightFn)
	if err := r.Snapshot(Cut{Cursor: 7, Finished: []int{9, 8}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.WeightChecksum != 1007 {
		t.Fatalf("weight checksum %d, want 1007", got.WeightChecksum)
	}
	if !reflect.DeepEqual(got.Finished, []int{8, 9}) {
		t.Fatalf("finished not sorted: %v", got.Finished)
	}
	// Bump persists the committed cut, not merely the durable one:
	// whether or not the writer got to cut 8 first, the file reads 8.
	if err := r.Snapshot(Cut{Cursor: 8}); err != nil {
		t.Fatal(err)
	}
	if err := r.Bump(); err != nil {
		t.Fatal(err)
	}
	got, _ = Load(path)
	if got.Incarnation != 1 || got.Cursor != 8 || got.WeightChecksum != 1008 {
		t.Fatalf("bump state wrong: %+v", got)
	}
	if st := r.Stats(); st.Saves < 2 || st.Saves > 3 {
		t.Fatalf("saves = %d, want 2..3", st.Saves)
	}
}

// TestFileRecorderCoalesces holds the writer inside its first save with
// a weight function that blocks on a channel: every cut that commits
// meanwhile must fold into exactly one more save of the latest.
func TestFileRecorderCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	entered, release := make(chan int, 16), make(chan struct{})
	var hold atomic.Bool
	weightFn := func(cursor int) uint64 {
		if hold.Load() {
			entered <- cursor
			<-release
		}
		return uint64(cursor)
	}
	r := NewFileRecorder(path, Checkpoint{NumSubnets: 100}, 1, weightFn)
	if err := r.Init(); err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	if err := r.Snapshot(Cut{Cursor: 1}); err != nil {
		t.Fatal(err)
	}
	if got := <-entered; got != 1 {
		t.Fatalf("writer picked up cursor %d, want 1", got)
	}
	for cur := 2; cur <= 9; cur++ { // the writer is parked inside save #2
		if err := r.Snapshot(Cut{Cursor: cur}); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := Load(path); got.Cursor != 0 {
		t.Fatalf("file reads cursor %d while the first cut's save is held, want 0", got.Cursor)
	}
	hold.Store(false)
	close(release)
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Saves != 3 {
		t.Fatalf("saves = %d, want 3 (init, the held cut, one coalesced)", st.Saves)
	}
	if st.Cuts != 9 || st.MaxLag != 9 {
		t.Fatalf("stats %+v, want 9 cuts and a max durable lag of 9", st)
	}
	if got, _ := Load(path); got.Cursor != 9 || got.WeightChecksum != 9 {
		t.Fatalf("file reads %+v, want cursor 9 with its checksum", got)
	}
}

// TestFileRecorderStickyError: a save that fails surfaces from the next
// Snapshot and from Flush and Bump, and keeps surfacing.
func TestFileRecorderStickyError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gone")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	r := NewFileRecorder(filepath.Join(dir, "ck.bin"), Checkpoint{NumSubnets: 10}, 1, nil)
	if err := r.Init(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot(Cut{Cursor: 1}); err != nil {
		t.Fatalf("Snapshot touched the disk: %v", err)
	}
	ferr := r.Flush() // drains the failed writer
	if ferr == nil {
		t.Fatal("Flush hid the failed save")
	}
	if err := r.Snapshot(Cut{Cursor: 2}); err != ferr {
		t.Fatalf("next Snapshot returned %v, want the sticky %v", err, ferr)
	}
	if err := r.Bump(); err != ferr {
		t.Fatalf("Bump returned %v, want the sticky %v", err, ferr)
	}
	if got := r.Committed(); got.Incarnation != 0 {
		t.Fatalf("Bump advanced the incarnation on a failed recorder: %+v", got)
	}
}

// TestFileRecorderInitSkipsIdenticalFile: a resume whose identity did
// not change finds its own bytes on disk and writes nothing; a changed
// depth (elastic resume) or fault seed still writes.
func TestFileRecorderInitSkipsIdenticalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	ident := sampleCheckpoint()
	r := NewFileRecorder(path, ident, 1, nil)
	for i := 0; i < 2; i++ {
		if err := r.Init(); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Stats().Saves; got != 1 {
		t.Fatalf("two Inits hit disk %d times, want 1", got)
	}
	again := NewFileRecorder(path, ident, 1, nil)
	if err := again.Init(); err != nil || again.Stats().Saves != 0 {
		t.Fatalf("unchanged resume rewrote the file (saves %d, err %v)", again.Stats().Saves, err)
	}
	if err := again.Flush(); err != nil || again.Stats().Saves != 0 {
		t.Fatalf("Flush after a skipped Init wrote (saves %d, err %v)", again.Stats().Saves, err)
	}
	for name, edit := range map[string]func(*Checkpoint){
		"elastic depth": func(c *Checkpoint) { c.GPUs = 2 },
		"fault seed":    func(c *Checkpoint) { c.FaultSeed++ },
	} {
		changed := ident
		edit(&changed)
		rc := NewFileRecorder(path, changed, 1, nil)
		if err := rc.Init(); err != nil || rc.Stats().Saves != 1 {
			t.Fatalf("%s: Init skipped a changed identity (saves %d, err %v)", name, rc.Stats().Saves, err)
		}
		if got, _ := Load(path); !reflect.DeepEqual(got, changed) {
			t.Fatalf("%s: file reads %+v, want %+v", name, got, changed)
		}
		ident = changed
	}
}

// settleGoroutines yields until the goroutine count is back to base: a
// writer that has freed its slot may still be returning.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 1e6 && runtime.NumGoroutine() > base; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines, %d before the recorder", n, base)
	}
}

// TestFileRecorderNoStaleWriter: a synchronous edge waits out the save
// in flight, and once it has returned the recorder owns no goroutine —
// so a successor on the same path is never overwritten by it.
func TestFileRecorderNoStaleWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	base := runtime.NumGoroutine()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	weightFn := func(cursor int) uint64 {
		once.Do(func() { close(entered); <-release })
		return uint64(cursor)
	}
	first := NewFileRecorder(path, Checkpoint{NumSubnets: 1000}, 1, weightFn)
	for cur := 1; cur <= 200; cur++ {
		if err := first.Snapshot(Cut{Cursor: cur}); err != nil {
			t.Fatal(err)
		}
		if cur == 1 {
			<-entered // the writer is inside its save from here on
		}
	}
	bumped := make(chan error, 1)
	go func() { bumped <- first.Bump() }()
	select {
	case err := <-bumped:
		t.Fatalf("Bump returned (%v) with a save in flight", err)
	default:
	}
	close(release)
	if err := <-bumped; err != nil {
		t.Fatal(err)
	}
	if got, _ := Load(path); got.Cursor != 200 || got.Incarnation != 1 {
		t.Fatalf("after Bump the file reads %+v, want the committed cursor 200 at incarnation 1", got)
	}
	settleGoroutines(t, base)
	second := NewFileRecorder(path, Checkpoint{NumSubnets: 1000, Cursor: 200, Incarnation: 1}, 1, nil)
	if err := second.Init(); err != nil {
		t.Fatal(err)
	}
	if err := second.Snapshot(Cut{Cursor: 300}); err != nil {
		t.Fatal(err)
	}
	if err := second.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := Load(path); got.Cursor != 300 || got.Incarnation != 1 {
		t.Fatalf("file reads %+v, want the second recorder's cursor 300", got)
	}
	settleGoroutines(t, base)
}
