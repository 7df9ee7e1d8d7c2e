package data

import (
	"fmt"
	"testing"
	"testing/quick"

	"naspipe/internal/rng"
	"naspipe/internal/tensor"
)

func TestKindByName(t *testing.T) {
	if k, err := KindByName("WNMT"); err != nil || k != WNMT {
		t.Fatalf("WNMT: %v %v", k, err)
	}
	if k, err := KindByName("ImageNet"); err != nil || k != ImageNet {
		t.Fatalf("ImageNet: %v %v", k, err)
	}
	if _, err := KindByName("MNIST"); err == nil {
		t.Fatal("expected error")
	}
}

func TestBatchShape(t *testing.T) {
	for _, kind := range []Kind{WNMT, ImageNet} {
		s := NewSource(kind, 16, 4, 1)
		b := s.Batch(0)
		if len(b.Inputs) != 4 || len(b.Targets) != 4 {
			t.Fatalf("%v: batch size wrong", kind)
		}
		for i := range b.Inputs {
			if len(b.Inputs[i]) != 16 || len(b.Targets[i]) != 16 {
				t.Fatalf("%v: item %d dim wrong", kind, i)
			}
		}
	}
}

func TestBatchDeterministic(t *testing.T) {
	for _, kind := range []Kind{WNMT, ImageNet} {
		a := NewSource(kind, 8, 3, 5).Batch(7)
		b := NewSource(kind, 8, 3, 5).Batch(7)
		for i := range a.Inputs {
			if !a.Inputs[i].EqualBits(b.Inputs[i]) || !a.Targets[i].EqualBits(b.Targets[i]) {
				t.Fatalf("%v: batch not bitwise deterministic", kind)
			}
		}
	}
}

func TestStepsDiffer(t *testing.T) {
	s := NewSource(WNMT, 8, 2, 5)
	a, b := s.Batch(0), s.Batch(1)
	if a.Inputs[0].EqualBits(b.Inputs[0]) {
		t.Fatal("consecutive steps produced identical inputs")
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := NewSource(ImageNet, 8, 2, 1).Batch(0)
	b := NewSource(ImageNet, 8, 2, 2).Batch(0)
	if a.Inputs[0].EqualBits(b.Inputs[0]) {
		t.Fatal("different seeds produced identical inputs")
	}
}

func TestTrainValidationDisjointStreams(t *testing.T) {
	s := NewSource(WNMT, 8, 2, 1)
	tr, va := s.Batch(0), s.ValidationBatch(0)
	if tr.Inputs[0].EqualBits(va.Inputs[0]) {
		t.Fatal("train and validation batch 0 identical")
	}
}

func TestTargetsBounded(t *testing.T) {
	for _, kind := range []Kind{WNMT, ImageNet} {
		s := NewSource(kind, 12, 8, 3)
		for step := 0; step < 5; step++ {
			b := s.Batch(step)
			for _, tgt := range b.Targets {
				for _, v := range tgt {
					if v < -1 || v > 1 {
						t.Fatalf("%v: target %v outside tanh range", kind, v)
					}
				}
			}
		}
	}
}

// TestVocabCacheBounded: sources over more (dim, seed) pairs than the
// memo holds leave it at its limit, and a vocabulary rebuilt after
// eviction yields bitwise the batches the first build did.
func TestVocabCacheBounded(t *testing.T) {
	first := NewSource(WNMT, 5, 3, 1000).Batch(4)
	for seed := uint64(1001); seed < 1001+2*vocabCacheLimit; seed++ {
		NewSource(WNMT, 5, 3, seed)
	}
	if n := vocabCache.Len(); n > vocabCacheLimit {
		t.Fatalf("vocab memo holds %d tables, limit %d", n, vocabCacheLimit)
	}
	again := NewSource(WNMT, 5, 3, 1000).Batch(4)
	for i := range first.Inputs {
		if !first.Inputs[i].EqualBits(again.Inputs[i]) || !first.Targets[i].EqualBits(again.Targets[i]) {
			t.Fatalf("item %d differs after the vocabulary was evicted and rebuilt", i)
		}
	}
}

// TestWNMTTargetsAreTanhOfCompanion: every item's target, a shared row
// of the memoized table, is bit for bit the Tanh of its companion
// token's embedding computed afresh, as each item once computed it.
func TestWNMTTargetsAreTanhOfCompanion(t *testing.T) {
	for _, dim := range []int{1, 8, 13, 64} {
		s := NewSource(WNMT, dim, 1, 77)
		items, twin := rng.Labeled(77, "targets"), rng.Labeled(77, "targets")
		for i := 0; i < 200; i++ {
			comp := (twin.Intn(vocabSize)*37 + 11) % vocabSize
			for range dim {
				twin.NormFloat32() // the item's input noise
			}
			_, got := s.wnmtItem(items)
			want := make(tensor.Vector, dim)
			tensor.Tanh(want, s.wnmt.vocab[comp].Clone())
			if !got.EqualBits(want) {
				t.Fatalf("dim %d item %d: target is not Tanh(vocab[%d])", dim, i, comp)
			}
		}
	}
}

func TestNewSourcePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSource(WNMT, 0, 1, 1)
}

// Property: batches are pure functions of (kind, dim, batch, seed, step).
func TestQuickBatchPurity(t *testing.T) {
	f := func(seed uint64, stepRaw uint8, kindRaw bool) bool {
		kind := WNMT
		if kindRaw {
			kind = ImageNet
		}
		step := int(stepRaw)
		a := NewSource(kind, 6, 2, seed).Batch(step)
		b := NewSource(kind, 6, 2, seed).Batch(step)
		for i := range a.Inputs {
			if !a.Inputs[i].EqualBits(b.Inputs[i]) || !a.Targets[i].EqualBits(b.Targets[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: all generated values are finite.
func TestQuickFiniteValues(t *testing.T) {
	f := func(seed uint64, stepRaw uint8) bool {
		s := NewSource(WNMT, 8, 2, seed)
		b := s.Batch(int(stepRaw))
		for _, vecs := range [][]([]float32){
			{b.Inputs[0], b.Inputs[1]}, {b.Targets[0], b.Targets[1]},
		} {
			for _, v := range vecs {
				for _, x := range v {
					if x != x || x > 1e6 || x < -1e6 { // NaN or absurd
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestLabelsMatchFmt: the batch and class labels spell what the fmt forms
// they replaced did, for both kinds, both splits and a range of steps, so
// every stream keeps its bits.
func TestLabelsMatchFmt(t *testing.T) {
	for _, k := range []Kind{WNMT, ImageNet} {
		for _, split := range []string{"train", "valid"} {
			for _, step := range []int{0, 1, 9, 10, 99, 100, 12345, 1 << 20} {
				if got, want := batchLabel(k, split, step), fmt.Sprintf("%v/%s/%d", k, split, step); got != want {
					t.Fatalf("batchLabel(%v, %s, %d) = %q, want %q", k, split, step, got, want)
				}
			}
		}
	}
	for class := 0; class < numClasses; class++ {
		if got, want := classLabel(class), fmt.Sprintf("imagenet/class/%d", class); got != want {
			t.Fatalf("classLabel(%d) = %q, want %q", class, got, want)
		}
	}
}
