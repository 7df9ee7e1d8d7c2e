package trace

import (
	"testing"

	"naspipe/internal/supernet"
)

func add(t *Trace, layer int, subnet int, kind AccessKind) {
	t.Append(0, supernet.LayerID(layer), subnet, 0, kind)
}

func TestLayerOrderNotation(t *testing.T) {
	var tr Trace
	add(&tr, 1, 2, Read)
	add(&tr, 1, 2, Write)
	add(&tr, 1, 5, Read)
	add(&tr, 1, 5, Write)
	add(&tr, 1, 7, Read)
	add(&tr, 1, 7, Write)
	if got := tr.LayerOrder(1); got != "2F-2B-5F-5B-7F-7B" {
		t.Fatalf("got %q", got)
	}
}

func TestSequentialOrderHelper(t *testing.T) {
	if got := SequentialOrder([]int{7, 2, 5}); got != "2F-2B-5F-5B-7F-7B" {
		t.Fatalf("got %q", got)
	}
}

func TestSequentialEquivalentAccepts(t *testing.T) {
	var tr Trace
	// Layer 1: subnets 0 and 2 sequentially; layer 3: subnet 1 alone.
	add(&tr, 1, 0, Read)
	add(&tr, 3, 1, Read)
	add(&tr, 1, 0, Write)
	add(&tr, 3, 1, Write)
	add(&tr, 1, 2, Read)
	add(&tr, 1, 2, Write)
	if v := tr.FirstViolation(); v != nil {
		t.Fatalf("violation: %+v", v)
	}
}

func TestViolationInterleavedReads(t *testing.T) {
	var tr Trace
	// BSP pattern: 2F-5F-2B-5B on a shared layer.
	add(&tr, 1, 2, Read)
	add(&tr, 1, 5, Read)
	add(&tr, 1, 2, Write)
	add(&tr, 1, 5, Write)
	v := tr.FirstViolation()
	if v == nil {
		t.Fatal("interleaved accesses must violate")
	}
	if v.Layer != 1 {
		t.Fatalf("violation on layer %d", v.Layer)
	}
}

func TestViolationOutOfOrderSubnets(t *testing.T) {
	var tr Trace
	add(&tr, 1, 5, Read)
	add(&tr, 1, 5, Write)
	add(&tr, 1, 2, Read)
	add(&tr, 1, 2, Write)
	if tr.FirstViolation() == nil {
		t.Fatal("descending subnet order must violate")
	}
}

func TestViolationOddAccess(t *testing.T) {
	var tr Trace
	add(&tr, 1, 2, Read)
	if tr.FirstViolation() == nil {
		t.Fatal("dangling read must violate")
	}
}

func TestEqualIgnoresTimestamps(t *testing.T) {
	var a, b Trace
	a.Append(1.0, 1, 0, 0, Read)
	a.Append(2.0, 1, 0, 1, Write)
	b.Append(9.0, 1, 0, 3, Read)
	b.Append(11.0, 1, 0, 2, Write)
	if !a.Equal(&b) {
		t.Fatal("Equal must ignore timestamps and stages")
	}
	b.Append(12.0, 2, 1, 0, Read)
	if a.Equal(&b) {
		t.Fatal("different lengths compared equal")
	}
}

func TestPerLayerEqual(t *testing.T) {
	var a, b Trace
	// Same per-layer orders, different global interleavings.
	add(&a, 1, 0, Read)
	add(&a, 2, 1, Read)
	add(&a, 1, 0, Write)
	add(&a, 2, 1, Write)

	add(&b, 2, 1, Read)
	add(&b, 1, 0, Read)
	add(&b, 2, 1, Write)
	add(&b, 1, 0, Write)
	if a.Equal(&b) {
		t.Fatal("global orders differ; Equal should be false")
	}
	if !a.PerLayerEqual(&b) {
		t.Fatal("per-layer orders agree; PerLayerEqual should be true")
	}
	var c Trace
	add(&c, 1, 0, Read)
	add(&c, 1, 0, Write)
	if a.PerLayerEqual(&c) {
		t.Fatal("different layer sets compared per-layer equal")
	}
	// Same length and layer set as a, but layer 2's accesses swapped, then
	// one of layer 2's accesses moved to layer 1, then a Kind flipped.
	for name, evs := range map[string][][3]int{
		"swapped order":  {{1, 0, 0}, {2, 1, 1}, {1, 0, 1}, {2, 1, 0}},
		"moved access":   {{1, 0, 0}, {2, 1, 0}, {1, 0, 1}, {1, 1, 1}},
		"other subnet":   {{1, 0, 0}, {2, 3, 0}, {1, 0, 1}, {2, 1, 1}},
		"unknown layers": {{1, 0, 0}, {2, 1, 0}, {1, 0, 1}, {9, 1, 1}},
	} {
		var d Trace
		for _, e := range evs {
			add(&d, e[0], e[1], AccessKind(e[2]))
		}
		if a.PerLayerEqual(&d) || d.PerLayerEqual(&a) {
			t.Fatalf("%s: compared per-layer equal", name)
		}
	}
}

func TestLayersSortedDistinct(t *testing.T) {
	var tr Trace
	add(&tr, 5, 0, Read)
	add(&tr, 1, 0, Read)
	add(&tr, 5, 0, Write)
	got := tr.Layers()
	if len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("Layers = %v", got)
	}
}
