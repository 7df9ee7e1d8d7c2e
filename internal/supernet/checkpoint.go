package supernet

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
)

// checkpoint format: a small deterministic binary layout so a trained
// supernet is persisted bitwise (naspipe-train search -save-net), pairing
// with the trace Record. The package's tests read it back (LoadNumeric).
const (
	ckptMagic   = uint32(0x4e535057) // "NSPW"
	ckptVersion = uint32(1)
)

// Save writes the numeric supernet (geometry + every parameter bit) in a
// deterministic binary format.
func (n *Numeric) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeU32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	writeStr := func(s string) {
		writeU32(uint32(len(s)))
		bw.WriteString(s)
	}
	writeU32(ckptMagic)
	writeU32(ckptVersion)
	writeStr(n.Space.Name)
	writeU32(uint32(n.Space.Domain))
	writeU32(uint32(n.Space.Blocks))
	writeU32(uint32(n.Space.Choices))
	writeStr(n.Space.Dataset)
	writeU32(uint32(n.Dim))
	for _, l := range n.Layer {
		writeU32(uint32(l.Kind))
		for _, f := range l.W.Data {
			writeU32(math.Float32bits(f))
		}
		for _, f := range l.B {
			writeU32(math.Float32bits(f))
		}
	}
	return bw.Flush()
}
