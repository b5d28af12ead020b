package core

// Table-driven block decoder: the serve path's fast alternative to the
// bit-at-a-time tag walker in compress.go.
//
// The CodePack geometry makes a one-byte dispatch table sufficient for the
// dominant codewords: every class-0/1/2 codeword (2, 5 and 8 bits) fits
// entirely within the leading byte of the remaining bitstream, so a
// 256-entry table indexed by that byte resolves the tag class, the
// codeword length AND the decoded halfword value in a single lookup — no
// per-bit loop, no tag branch, no dictionary map probe. Only the two
// 3-bit-tag escapes fall through to a short tail: class 3 (tag 110) pulls
// its 8 index bits from a flattened slot array, and raw (tag 111) takes
// its 16 literal bits straight from the peeked window.
//
// The tables are dictionary-dependent (the same leading byte decodes to
// different halfwords under different dictionaries), so each Compressed
// lazily builds one table per dictionary on first decode and caches them
// behind an atomic pointer; concurrent first decodes may both build, which
// is harmless because the build is deterministic.
//
// The reference walker stays in compress.go as the correctness oracle:
// FuzzDecodeEquivalence and the golden corpus hold the two implementations
// word-for-word identical, and rebuildBlockMeta still rescans unmarshaled
// images with the walker so every accepted image has been validated by
// both geometries. See DESIGN.md "Two-decoder architecture".

import (
	"fmt"

	"codepack/internal/isa"
)

// fastEntry kinds. fastVal is the branch-predictable common case: the
// leading byte alone determined the decoded halfword.
const (
	fastVal  = iota // class 0/1/2: value resolved, e.bits consumed
	fastC3          // class 3: 8 index bits straddle the leading byte
	fastRaw         // raw escape: 16 literal bits follow the 3-bit tag
	fastMiss        // class 0/1/2 slot beyond the dictionary population
)

// fastEntry is one dispatch-table slot: what the leading byte of the
// remaining bitstream says about the next codeword.
type fastEntry struct {
	val  uint16 // decoded halfword (fastVal only)
	bits uint8  // total codeword length in bits
	kind uint8
}

// fastTab is the decode table for one dictionary: the 256-entry leading-
// byte dispatch table plus the dictionary flattened into slot order for
// the class-3 tail (a slice index instead of a bounds-checked method
// call and map-backed Dict probe).
type fastTab struct {
	entry [256]fastEntry
	vals  []uint16
}

// fastTabs pairs the high- and low-halfword tables; Compressed caches one
// behind an atomic pointer.
type fastTabs struct {
	high, low fastTab
}

// buildFastTab precomputes the dispatch table for dictionary d.
func buildFastTab(t *fastTab, d *Dict) {
	t.vals = d.Entries()
	for b := 0; b < 256; b++ {
		e := &t.entry[b]
		var cl, idx int
		switch {
		case b>>6 == 0b00:
			cl, idx = class0, 0
		case b>>6 == 0b01:
			cl, idx = class1, b>>3&7
		case b>>6 == 0b10:
			cl, idx = class2, b&0x3F
		case b>>5 == 0b110:
			e.kind, e.bits = fastC3, uint8(codewordBits(class3))
			continue
		default:
			e.kind, e.bits = fastRaw, RawCodewordBits
			continue
		}
		e.bits = uint8(codewordBits(cl))
		if slot := classBase[cl] + idx; slot < len(t.vals) {
			e.kind, e.val = fastVal, t.vals[slot]
		} else {
			e.kind = fastMiss
		}
	}
}

// fastTables returns the cached dispatch tables, building them on first
// use. A racing duplicate build produces an identical table, so a plain
// compare-and-swap (no lock, no once) is enough.
func (c *Compressed) fastTables() *fastTabs {
	if t := c.fast.Load(); t != nil {
		return t
	}
	t := new(fastTabs)
	buildFastTab(&t.high, c.High)
	buildFastTab(&t.low, c.Low)
	c.fast.CompareAndSwap(nil, t)
	return c.fast.Load()
}

// DecodeBlockPositions is DecodeBlock, additionally reporting the
// cumulative bit position consumed after each instruction's codeword
// pair. Positions must agree with the encoder-recorded cumBits behind
// InstrReadyBytes — the byte-arrival contract the decomp timing model
// builds its fetch/decode overlap on; the property tests hold the fast
// decoder to it.
func (c *Compressed) DecodeBlockPositions(b int, out *[BlockInstrs]isa.Word, pos *[BlockInstrs]uint16) error {
	return c.fastDecode(b, out, pos)
}

// fastDecode is the hot path: one pass over the block's codeword stream
// with a 64-bit accumulator, dispatching each halfword through the
// leading-byte table. It allocates nothing.
func (c *Compressed) fastDecode(b int, out *[BlockInstrs]isa.Word, pos *[BlockInstrs]uint16) error {
	start, raw, err := c.LookupBlock(b)
	if err != nil {
		return err
	}
	if raw {
		if int(start)+BlockNativeBytes > len(c.Region) {
			return fmt.Errorf("core: raw block %d extends past region", b)
		}
		for i := range out {
			o := int(start) + i*4
			out[i] = uint32(c.Region[o])<<24 | uint32(c.Region[o+1])<<16 |
				uint32(c.Region[o+2])<<8 | uint32(c.Region[o+3])
			if pos != nil {
				pos[i] = uint16((i + 1) * 32)
			}
		}
		return nil
	}
	end := int(start) + int(c.blocks[b].size)
	if end > len(c.Region) {
		return fmt.Errorf("core: block %d extends past region", b)
	}
	buf := c.Region[start:end]
	tabs := c.fastTables()

	var (
		acc      uint64 // next stream bits in the low accBits bits, MSB first
		accBits  uint
		p        int // next byte of buf to load
		consumed uint
		total    = uint(len(buf)) * 8
	)
	for i := 0; i < BlockInstrs; i++ {
		var word uint32
		tab := &tabs.high
		for half := 0; half < 2; half++ {
			for accBits <= 56 && p < len(buf) {
				acc = acc<<8 | uint64(buf[p])
				p++
				accBits += 8
			}
			left := total - consumed
			if left < 2 {
				return fastDecodeErr(b, i, half, "truncated codeword")
			}
			// Peek the longest possible codeword (19 bits), zero-padded
			// past the end of the block like the reference reader.
			var peek uint32
			if accBits >= RawCodewordBits {
				peek = uint32(acc>>(accBits-RawCodewordBits)) & (1<<RawCodewordBits - 1)
			} else {
				peek = uint32(acc<<(RawCodewordBits-accBits)) & (1<<RawCodewordBits - 1)
			}
			e := &tab.entry[peek>>(RawCodewordBits-8)]
			n := uint(e.bits)
			if left < n {
				return fastDecodeErr(b, i, half, "truncated codeword")
			}
			v := e.val
			switch e.kind {
			case fastC3:
				slot := classBase[class3] + int(peek>>8&0xFF)
				if slot >= len(tab.vals) {
					return fastDecodeErr(b, i, half, "dictionary miss")
				}
				v = tab.vals[slot]
			case fastRaw:
				v = uint16(peek)
			case fastMiss:
				return fastDecodeErr(b, i, half, "dictionary miss")
			}
			accBits -= n
			consumed += n
			word = word<<16 | uint32(v)
			tab = &tabs.low
		}
		out[i] = word
		if pos != nil {
			pos[i] = uint16(consumed)
		}
	}
	return nil
}

// fastDecodeErr formats decode failures like the reference walker's
// block/instr/half wrapping so operators see the same shape from either
// decoder.
func fastDecodeErr(b, i, half int, msg string) error {
	side := "high"
	if half == 1 {
		side = "low"
	}
	return fmt.Errorf("core: block %d instr %d %s: %s", b, i, side, msg)
}

// AppendDecompress decodes the full text section (without padding) into
// dst, growing it at most once, and returns the extended slice. With a
// pre-sized dst it performs zero allocations, which is what the serve
// path's buffer pool relies on for steady-state decode.
func (c *Compressed) AppendDecompress(dst []isa.Word) ([]isa.Word, error) {
	n := len(dst)
	need := n + len(c.blocks)*BlockInstrs
	if cap(dst) < need {
		grown := make([]isa.Word, n, need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	for b := range c.blocks {
		if err := c.fastDecode(b, (*[BlockInstrs]isa.Word)(dst[n+b*BlockInstrs:]), nil); err != nil {
			return nil, err
		}
	}
	return dst[:n+c.NumInstr], nil
}
