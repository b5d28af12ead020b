package core

import (
	"fmt"
	"sort"

	"codepack/internal/isa"
)

// The reference encoder: map histograms, a map value->slot lookup per
// halfword, and a fresh bit-at-a-time writer per block. It is the encoder
// the dense-table one in compress.go replaced, kept as its correctness
// oracle in the way DecodeBlockReference is the fast decoder's:
// FuzzCompressEquivalence and TestCompressMatchesReference require the two
// to agree on Marshal() and Stats() byte for byte.

// refBitWriter emits an MSB-first bitstream one bit at a time.
type refBitWriter struct {
	buf  []byte
	nbit uint
}

func (w *refBitWriter) writeBits(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		if w.nbit%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		if v>>uint(i)&1 != 0 {
			w.buf[w.nbit/8] |= 0x80 >> (w.nbit % 8)
		}
		w.nbit++
	}
}

func (w *refBitWriter) align() uint {
	pad := (8 - w.nbit%8) % 8
	w.nbit += pad
	return pad
}

func refCountHalfwords(text []isa.Word) (high, low map[uint16]int) {
	high = make(map[uint16]int)
	low = make(map[uint16]int)
	for _, w := range text {
		high[uint16(w>>16)]++
		low[uint16(w)]++
	}
	return high, low
}

func refBuildDict(counts map[uint16]int, opts BuildDictOptions) *Dict {
	minC3 := opts.MinClass3Count
	if minC3 == 0 {
		minC3 = 2
	}
	type hw struct {
		v uint16
		n int
	}
	ranked := make([]hw, 0, len(counts))
	for v, n := range counts {
		if n <= 0 {
			continue
		}
		if opts.ForceZeroSlot0 && v == 0 {
			continue
		}
		ranked = append(ranked, hw{v, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].v < ranked[j].v
	})
	d := &Dict{}
	if opts.ForceZeroSlot0 {
		d.entries = append(d.entries, 0)
	}
	for _, e := range ranked {
		if len(d.entries) >= DictCapacity {
			break
		}
		c, _ := classOfSlot(len(d.entries))
		if c == class3 && e.n < minC3 {
			continue
		}
		d.entries = append(d.entries, e.v)
	}
	return d
}

// refSlots is the map-backed value->slot lookup the old Dict carried.
func refSlots(d *Dict) map[uint16]int {
	m := make(map[uint16]int, len(d.entries))
	for i, v := range d.entries {
		m[v] = i
	}
	return m
}

func refEncodeHalf(w *refBitWriter, slots map[uint16]int, v uint16) int {
	s, ok := slots[v]
	if !ok {
		w.writeBits(classTag[classRaw], classTagBits[classRaw])
		w.writeBits(uint32(v), 16)
		return classRaw
	}
	cl, idx := classOfSlot(s)
	w.writeBits(classTag[cl], classTagBits[cl])
	w.writeBits(uint32(idx), classIndexBits[cl])
	return cl
}

// compressReference is CompressWordsWith on the reference encoder.
func compressReference(name string, textBase uint32, text []isa.Word, opts Options) (*Compressed, error) {
	if len(text) == 0 {
		return nil, fmt.Errorf("core: empty text section")
	}
	padded := text
	if len(text)%GroupInstrs != 0 {
		padded = make([]isa.Word, (len(text)+GroupInstrs-1)/GroupInstrs*GroupInstrs)
		copy(padded, text)
	}
	c := &Compressed{
		Name:     name,
		TextBase: textBase,
		NumInstr: len(text),
		High:     opts.FixedHigh,
		Low:      opts.FixedLow,
	}
	if c.High == nil || c.Low == nil {
		highCounts, lowCounts := refCountHalfwords(padded)
		if c.High == nil {
			c.High = refBuildDict(highCounts, opts.High)
		}
		if c.Low == nil {
			c.Low = refBuildDict(lowCounts, opts.Low)
		}
	}
	highSlots, lowSlots := refSlots(c.High), refSlots(c.Low)

	nBlocks := len(padded) / BlockInstrs
	c.blocks = make([]blockMeta, nBlocks)
	c.Index = make([]IndexEntry, nBlocks/GroupBlocks)
	for b := 0; b < nBlocks; b++ {
		words := padded[b*BlockInstrs : (b+1)*BlockInstrs]
		var w refBitWriter
		meta := &c.blocks[b]
		meta.start = uint32(len(c.Region))
		var classes [BlockInstrs][2]int
		for i, word := range words {
			classes[i][0] = refEncodeHalf(&w, highSlots, uint16(word>>16))
			classes[i][1] = refEncodeHalf(&w, lowSlots, uint16(word))
			meta.cumBits[i] = uint16(w.nbit)
		}
		pad := w.align()
		if len(w.buf) >= BlockNativeBytes {
			meta.raw = true
			meta.size = BlockNativeBytes
			for i := range words {
				meta.cumBits[i] = uint16((i + 1) * 32)
				c.stats.RawBlockInstrs++
			}
			for _, word := range words {
				c.Region = append(c.Region,
					byte(word>>24), byte(word>>16), byte(word>>8), byte(word))
			}
			c.stats.RawBits += BlockInstrs * 32
			continue
		}
		meta.size = uint16(len(w.buf))
		c.Region = append(c.Region, w.buf...)
		c.stats.PadBits += int(pad)
		for i := range words {
			for _, cl := range classes[i] {
				if cl == classRaw {
					c.stats.RawTagBits += int(classTagBits[classRaw])
					c.stats.RawBits += 16
					c.stats.RawHalfwords++
				} else {
					c.stats.TagBits += int(classTagBits[cl])
					c.stats.IndexBits += int(classIndexBits[cl])
					c.stats.ClassCounts[cl]++
				}
			}
		}
	}
	for g := range c.Index {
		b0, b1 := &c.blocks[2*g], &c.blocks[2*g+1]
		e := IndexEntry{
			Block0Start: b0.start,
			Block0Len:   uint32(b0.size),
			Raw0:        b0.raw,
			Raw1:        b1.raw,
		}
		if e.Block0Start > maxBlock0Start {
			return nil, fmt.Errorf("core: compressed region exceeds %d bytes", maxBlock0Start)
		}
		if e.Block0Len > maxBlock0Len {
			return nil, fmt.Errorf("core: block 0 of group %d is %d bytes, format limit %d",
				g, e.Block0Len, maxBlock0Len)
		}
		c.Index[g] = e
	}
	// The sizes, as finishStats sets them; the bit composition above is
	// accumulated per halfword, independently of finishStats.
	c.stats.IndexTableBytes = len(c.Index) * IndexEntryBytes
	c.stats.DictBytes = c.High.Bytes() + c.Low.Bytes()
	c.stats.RegionBytes = len(c.Region)
	c.stats.OriginalBytes = c.NumInstr * 4
	c.stats.PaddedInstrs = len(padded)
	return c, nil
}
