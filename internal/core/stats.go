package core

import (
	"fmt"
	"strings"
)

// Stats describes the composition of a compressed program, mirroring the
// columns of the paper's Tables 3 and 4.
type Stats struct {
	// Bit-level composition of the compressed region.
	TagBits      int // tags of dictionary-encoded halfwords ("Compressed tags")
	IndexBits    int // dictionary index bits ("Dictionary indices")
	RawTagBits   int // 3-bit tags marking raw halfwords ("Raw tags")
	RawBits      int // escaped halfword payloads and whole raw blocks ("Raw bits")
	PadBits      int // byte-alignment padding of blocks ("Pad")
	ClassCounts  [numClasses]int
	RawHalfwords int
	// RawBlockInstrs counts instructions stored in whole uncompressed blocks.
	RawBlockInstrs int

	// Byte-level sizes.
	IndexTableBytes int
	DictBytes       int
	RegionBytes     int
	OriginalBytes   int
	PaddedInstrs    int
}

// finishStats derives the bit-level composition from the codeword counts
// (ClassCounts and RawHalfwords count the codewords of encoded blocks,
// RawBlockInstrs the instructions of raw blocks) and fills in the sizes.
func (c *Compressed) finishStats(paddedInstrs int) {
	st := &c.stats
	st.TagBits, st.IndexBits = 0, 0
	for cl := class0; cl <= class3; cl++ {
		st.TagBits += st.ClassCounts[cl] * int(classTagBits[cl])
		st.IndexBits += st.ClassCounts[cl] * int(classIndexBits[cl])
	}
	st.RawTagBits = st.RawHalfwords * int(classTagBits[classRaw])
	st.RawBits = st.RawHalfwords*int(classIndexBits[classRaw]) + st.RawBlockInstrs*32
	st.IndexTableBytes = len(c.Index) * IndexEntryBytes
	st.DictBytes = c.High.Bytes() + c.Low.Bytes()
	st.RegionBytes = len(c.Region)
	st.OriginalBytes = c.NumInstr * 4
	st.PaddedInstrs = paddedInstrs
}

// Stats returns the composition statistics gathered during compression.
func (c *Compressed) Stats() Stats { return c.stats }

// CompressedBytes is the total size of the compressed program: region plus
// index table plus dictionaries.
func (s Stats) CompressedBytes() int {
	return s.RegionBytes + s.IndexTableBytes + s.DictBytes
}

// Ratio is the paper's Equation 1: compressed size / original size
// (smaller is better).
func (s Stats) Ratio() float64 {
	if s.OriginalBytes == 0 {
		return 0
	}
	return float64(s.CompressedBytes()) / float64(s.OriginalBytes)
}

// Composition is the per-category share of the total compressed size, as in
// Table 4 of the paper. The shares sum to 1.
type Composition struct {
	IndexTable  float64
	Dictionary  float64
	Tags        float64
	DictIndices float64
	RawTags     float64
	RawBits     float64
	Pad         float64
	TotalBytes  int
}

// Composition computes the Table 4 breakdown.
func (s Stats) Composition() Composition {
	total := float64(s.CompressedBytes()) * 8
	if total == 0 {
		return Composition{}
	}
	return Composition{
		IndexTable:  float64(s.IndexTableBytes*8) / total,
		Dictionary:  float64(s.DictBytes*8) / total,
		Tags:        float64(s.TagBits) / total,
		DictIndices: float64(s.IndexBits) / total,
		RawTags:     float64(s.RawTagBits) / total,
		RawBits:     float64(s.RawBits) / total,
		Pad:         float64(s.PadBits) / total,
		TotalBytes:  s.CompressedBytes(),
	}
}

// String renders the composition like a row of Table 4.
func (comp Composition) String() string {
	var b strings.Builder
	f := func(name string, v float64) {
		fmt.Fprintf(&b, "%s %.1f%%  ", name, v*100)
	}
	f("index", comp.IndexTable)
	f("dict", comp.Dictionary)
	f("tags", comp.Tags)
	f("indices", comp.DictIndices)
	f("rawtags", comp.RawTags)
	f("rawbits", comp.RawBits)
	f("pad", comp.Pad)
	fmt.Fprintf(&b, "total %d bytes", comp.TotalBytes)
	return b.String()
}
