package supernet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// fmtJitter is jitter as it was written before the label was built with
// strconv: the oracle for the bytes that are hashed.
func fmtJitter(spaceName string, block, choice int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", spaceName, block, choice)
	u := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	return 0.85 + 0.30*u
}

// TestJitterMatchesFmtLabel: every layer of every named space, plus a
// scaled space whose name carries brackets, hashes the same label.
func TestJitterMatchesFmtLabel(t *testing.T) {
	spaces := append(Spaces(), NLPc1.Scaled(4, 3))
	for _, s := range spaces {
		for b := 0; b < s.Blocks; b++ {
			for c := 0; c < s.Choices; c++ {
				if got, want := jitter(s.Name, b, c), fmtJitter(s.Name, b, c); got != want {
					t.Fatalf("%s layer (%d,%d): jitter %v, fmt label gives %v", s.Name, b, c, got, want)
				}
			}
		}
	}
}

// metaFingerprint hashes every field of every LayerMeta, floats by their
// bits.
func metaFingerprint(sn *Supernet) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, m := range sn.Meta {
		put(uint64(m.ID))
		put(uint64(m.Block))
		put(uint64(m.Choice))
		put(uint64(m.Kind))
		put(math.Float64bits(m.FwdMs))
		put(math.Float64bits(m.BwdMs))
		put(math.Float64bits(m.SwapMs))
		put(uint64(m.ParamBytes))
	}
	return h.Sum64()
}

// TestBuildMetaFingerprint pins NLP.c1's cost model bit for bit: every
// simulated table is priced from it.
func TestBuildMetaFingerprint(t *testing.T) {
	const want = uint64(0x4eec409eeb0519de)
	if got := metaFingerprint(Build(NLPc1)); got != want {
		t.Fatalf("Build(NLP.c1).Meta fingerprint %#x, want %#x", got, want)
	}
}

func TestJitterDoesNotAllocate(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { jitter(NLPc1.Name, 47, 71) }); n != 0 {
		t.Fatalf("jitter allocates %v times, want 0", n)
	}
}
