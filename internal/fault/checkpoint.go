package fault

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Checkpoint is the crash-consistent resume state of a concurrent run.
//
// The durability model leans on CSP (Definition 1): weights materialize
// only through the per-layer sequential WRITE order, so the committed
// prefix [0, Cursor) at stage 0 — subnets whose backward has fully
// retired — is exactly the state a sequential run would have after
// Cursor steps. A crash discards the in-flight suffix; resume replays
// from Cursor and lands on bitwise-identical final weights.
//
// Identity fields (Space..JitterSeed) fingerprint the run so a
// checkpoint cannot be resumed against a different workload.
type Checkpoint struct {
	Space       string // search-space name
	Seed        uint64 // exploration seed (subnet stream)
	GPUs        int    // pipeline depth
	NumSubnets  int    // total explore-stream length
	Cursor      int    // committed prefix: subnets [0, Cursor) fully retired
	Incarnation int    // restart epoch; bumped after every injected crash
	// WeightChecksum is the FNV-64 checksum of the supernet weights at
	// Cursor (train.Checksum of the sequential prefix). 0 = not recorded
	// (no training config attached); resume then skips verification.
	WeightChecksum uint64
	FaultSeed      uint64 // fault plan seed active when the snapshot was cut
	JitterSeed     uint64 // compute-jitter seed (part of run identity)
	// Finished holds globally-sequenced subnets at or above Cursor whose
	// stage-0 backward retired out of order (frontier gap); informational
	// for the replay tool — resume re-executes them.
	Finished []int
}

// Binary file format (all little-endian):
//
//	"NPCK" | version u8 | space u16-len + bytes | seed u64 | gpus u32 |
//	numSubnets u32 | cursor u32 | incarnation u32 | weightChecksum u64 |
//	faultSeed u64 | jitterSeed u64 | finished u32-count + u32 entries |
//	fnv64a-of-preceding u64
const (
	ckptMagic   = "NPCK"
	ckptVersion = 1
)

// Encode renders the checkpoint in the versioned binary format.
func (c Checkpoint) Encode() []byte {
	buf := make([]byte, 0, 64+len(c.Space)+4*len(c.Finished))
	buf = append(buf, ckptMagic...)
	buf = append(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.Space)))
	buf = append(buf, c.Space...)
	buf = binary.LittleEndian.AppendUint64(buf, c.Seed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.GPUs))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.NumSubnets))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Cursor))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Incarnation))
	buf = binary.LittleEndian.AppendUint64(buf, c.WeightChecksum)
	buf = binary.LittleEndian.AppendUint64(buf, c.FaultSeed)
	buf = binary.LittleEndian.AppendUint64(buf, c.JitterSeed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Finished)))
	for _, s := range c.Finished {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
	}
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64())
}

// Decode parses and integrity-checks an encoded checkpoint.
func Decode(buf []byte) (Checkpoint, error) {
	var c Checkpoint
	if len(buf) < len(ckptMagic)+1+2+8 {
		return c, fmt.Errorf("fault: checkpoint truncated (%d bytes)", len(buf))
	}
	if string(buf[:4]) != ckptMagic {
		return c, fmt.Errorf("fault: bad checkpoint magic %q", buf[:4])
	}
	if v := buf[4]; v != ckptVersion {
		return c, fmt.Errorf("fault: unsupported checkpoint version %d (want %d)", v, ckptVersion)
	}
	body, sum := buf[:len(buf)-8], binary.LittleEndian.Uint64(buf[len(buf)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return c, fmt.Errorf("fault: checkpoint integrity checksum mismatch (corrupt or torn write)")
	}
	off := 5
	need := func(n int) error {
		if off+n > len(body) {
			return fmt.Errorf("fault: checkpoint truncated at offset %d", off)
		}
		return nil
	}
	if err := need(2); err != nil {
		return c, err
	}
	nameLen := int(binary.LittleEndian.Uint16(body[off:]))
	off += 2
	if err := need(nameLen + 8 + 4*4 + 8*3 + 4); err != nil {
		return c, err
	}
	c.Space = string(body[off : off+nameLen])
	off += nameLen
	c.Seed = binary.LittleEndian.Uint64(body[off:])
	off += 8
	c.GPUs = int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	c.NumSubnets = int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	c.Cursor = int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	c.Incarnation = int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	c.WeightChecksum = binary.LittleEndian.Uint64(body[off:])
	off += 8
	c.FaultSeed = binary.LittleEndian.Uint64(body[off:])
	off += 8
	c.JitterSeed = binary.LittleEndian.Uint64(body[off:])
	off += 8
	count := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if err := need(4 * count); err != nil {
		return c, err
	}
	if count > 0 {
		c.Finished = make([]int, count)
		for i := range c.Finished {
			c.Finished[i] = int(binary.LittleEndian.Uint32(body[off:]))
			off += 4
		}
	}
	if off != len(body) {
		return c, fmt.Errorf("fault: %d trailing bytes after checkpoint", len(body)-off)
	}
	return c, nil
}

// Save writes the checkpoint atomically: encode to a temp file in the
// destination directory, fsync, then rename over the target. A crash
// mid-save leaves either the old checkpoint or the new one, never a
// torn file (and Decode's trailing checksum catches torn media writes).
func (c Checkpoint) Save(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("fault: checkpoint temp file: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(c.Encode())
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("fault: checkpoint save %s: %w", path, werr)
	}
	return nil
}

// Load reads and validates a checkpoint file.
func Load(path string) (Checkpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, fmt.Errorf("fault: checkpoint load: %w", err)
	}
	return Decode(buf)
}

// VerifyResume checks that ck, loaded from a file, is a checkpoint of the
// run whose identity fields (Space, Seed, GPUs, NumSubnets, JitterSeed)
// are want's: a job that opens its checkpoint to resume — in one
// process or on a fleet — guards with it before running anything.
// elastic waives the GPU count (the suffix may re-partition at another
// depth). weightAt, when non-nil, retrains the committed prefix so a
// recorded weight checksum is verified too.
func (ck Checkpoint) VerifyResume(want Checkpoint, elastic bool, weightAt func(cursor int) uint64) error {
	switch {
	case ck.Space != want.Space:
		return fmt.Errorf("checkpoint is for space %q, config says %q", ck.Space, want.Space)
	case ck.Seed != want.Seed:
		return fmt.Errorf("checkpoint seed %d != config seed %d", ck.Seed, want.Seed)
	case ck.GPUs != want.GPUs && !elastic:
		return fmt.Errorf("checkpoint ran on %d GPUs, config says %d (elastic resume permits re-partitioning)", ck.GPUs, want.GPUs)
	case ck.NumSubnets != want.NumSubnets:
		return fmt.Errorf("checkpoint stream has %d subnets, config has %d", ck.NumSubnets, want.NumSubnets)
	case ck.JitterSeed != want.JitterSeed:
		return fmt.Errorf("checkpoint jitter seed %d != config jitter seed %d", ck.JitterSeed, want.JitterSeed)
	case ck.Cursor < 0 || ck.Cursor > want.NumSubnets:
		return fmt.Errorf("checkpoint cursor %d out of range [0, %d]", ck.Cursor, want.NumSubnets)
	}
	if weightAt != nil && ck.WeightChecksum != 0 {
		if got := weightAt(ck.Cursor); got != ck.WeightChecksum {
			return fmt.Errorf("prefix weight checksum %#x does not match checkpoint %#x — wrong training config or corrupt stream", got, ck.WeightChecksum)
		}
	}
	return nil
}

// Cut is one consistency point the engine offers to its Recorder: the
// stage-0 frontier (global cursor) plus any out-of-order finished seqs
// above it.
type Cut struct {
	Cursor   int
	Finished []int
}

// Recorder receives consistency cuts from the engine as the stage-0
// backward frontier advances. Implementations decide persistence policy
// (throttling, destinations); Snapshot errors abort the run.
type Recorder interface {
	Snapshot(Cut) error
}

// FileRecorder group-commits cuts to a checkpoint file. Snapshot only
// records the cut in memory (the committed frontier) and marks it dirty
// when due — every Nth cursor advance and the final cut; at most one
// writer goroutine persists the latest dirty cut, so whatever commits
// during a save coalesces into the next. The durability contract:
//   - the file always decodes (atomic rename), cursor ≤ committed frontier;
//   - Init, Bump and Flush first drain the writer, then save on the
//     caller's goroutine: when the recorder's owner returns, the file holds
//     the latest committed cut and no writer outlives the incarnation;
//   - a SIGKILL loses at most the cuts committed during one in-flight
//     save; resume re-executes them (Definition 1 is untouched);
//   - a write error is sticky: every later Snapshot, Bump, Flush returns it.
//
// A recorder with no path keeps the committed cursor and incarnation in
// memory only: no file, no writer goroutine, and Snapshot allocates
// nothing.
type FileRecorder struct {
	mu       sync.Mutex
	idle     sync.Cond // signalled when the writer slot frees
	path     string
	ckpt     Checkpoint // committed: the latest cut offered
	durable  Checkpoint // what the file holds
	every    int
	weightFn func(cursor int) uint64 // nil = no weight checksums
	dirty    bool                    // ckpt is due and not yet handed to a save
	writing  bool                    // the writer slot is taken
	err      error
	stats    RecorderStats
}

// RecorderStats is what the checkpoint plane cost: Saves of the Cuts
// offered hit disk, the file trailed the committed frontier by at most
// MaxLag subnets, callers spent SyncEdge blocked in Init/Bump/Flush.
type RecorderStats struct {
	Cuts, Saves, MaxLag int
	SyncEdge            time.Duration
}

func (s RecorderStats) String() string {
	return fmt.Sprintf("%d cuts committed, %d saves hit disk, durable lag ≤ %d subnets, %.1f ms in synchronous saves",
		s.Cuts, s.Saves, s.MaxLag, float64(s.SyncEdge)/1e6)
}

// NewFileRecorder builds a recorder writing to path ("" = memory only).
// ident carries the run identity (and, on resume, the starting
// cursor/incarnation); every makes one cut in `every` cursor advances
// due for the writer (<=1: every cut); weightFn, when non-nil, supplies
// the weight checksum for a cursor and is invoked only for cuts actually
// saved, on the saving goroutine.
func NewFileRecorder(path string, ident Checkpoint, every int, weightFn func(int) uint64) *FileRecorder {
	if every < 1 {
		every = 1
	}
	r := &FileRecorder{path: path, ckpt: ident, every: every, weightFn: weightFn}
	r.idle.L = &r.mu
	return r
}

// Init persists the recorder's initial state, so a crash before the
// first cut still leaves a resumable file; a file that already holds
// exactly that state (a resume with unchanged identity) is left alone.
func (r *FileRecorder) Init() error {
	if r.path == "" {
		return nil
	}
	return r.syncSave(func() bool {
		buf, err := os.ReadFile(r.path)
		if err != nil || !bytes.Equal(buf, r.ckpt.Encode()) {
			return true
		}
		r.durable = r.ckpt
		return false
	})
}

// Snapshot implements Recorder without touching the disk: it advances
// the committed cut and leaves a due one to the writer, starting it if
// none is running. Cuts that do not advance the cursor are ignored (the
// engine's frontier is monotone; a stale cut is a no-op).
func (r *FileRecorder) Snapshot(cut Cut) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil || cut.Cursor < r.ckpt.Cursor {
		return r.err
	}
	r.ckpt.Cursor = cut.Cursor
	r.stats.Cuts++
	if r.path == "" {
		return nil
	}
	r.ckpt.Finished = append([]int(nil), cut.Finished...)
	sort.Ints(r.ckpt.Finished)
	r.stats.MaxLag = max(r.stats.MaxLag, cut.Cursor-r.durable.Cursor)
	if cut.Cursor < r.ckpt.NumSubnets && cut.Cursor%r.every != 0 {
		return nil
	}
	r.dirty = true
	if !r.writing {
		r.writing = true
		go func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.write()
		}()
	}
	return nil
}

// Bump increments the restart incarnation and persists it — called
// after a crash so the resumed run rolls a fresh fault schedule — with
// the latest committed (not merely durable) cut: the recorder's process
// survived the stage crash, and all below the cut retired before it.
func (r *FileRecorder) Bump() error {
	return r.syncSave(func() bool { r.ckpt.Incarnation++; return true })
}

// Flush persists the latest committed cut if the file does not hold it
// yet (a cut the throttle skipped, or one the writer had not reached).
// The recorder's owner calls it — or Bump — on every return path.
func (r *FileRecorder) Flush() error {
	return r.syncSave(func() bool { return r.durable.Cursor != r.ckpt.Cursor })
}

// Committed returns the latest cut offered to the recorder; the file may
// trail it until the next Bump or Flush.
func (r *FileRecorder) Committed() Checkpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckpt // Finished is replaced, never edited in place
}

// Stats reports the recorder's counters so far.
func (r *FileRecorder) Stats() RecorderStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// syncSave is the synchronous edge: wait out the writer, apply edit and,
// if it asks for a save, persist on the caller's goroutine.
func (r *FileRecorder) syncSave(edit func() (save bool)) error {
	start := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.writing {
		r.idle.Wait()
	}
	if r.err == nil && edit() && r.path != "" {
		r.dirty, r.writing = true, true
		r.write()
	}
	r.stats.SyncEdge += time.Since(start)
	return r.err
}

// write persists the latest committed cut until none is dirty, then
// frees the writer slot — the one caller of Save. Callers hold r.mu and
// the slot; the lock is dropped around the weight step and the I/O, so
// cuts that commit meanwhile coalesce into the next round.
func (r *FileRecorder) write() {
	for r.dirty && r.err == nil {
		ck := r.ckpt
		r.dirty = false
		r.mu.Unlock()
		if r.weightFn != nil {
			ck.WeightChecksum = r.weightFn(ck.Cursor)
		}
		err := ck.Save(r.path)
		r.mu.Lock()
		if err != nil {
			r.err = err
			break
		}
		r.durable = ck
		r.stats.Saves++
	}
	r.writing = false
	r.idle.Broadcast()
}
