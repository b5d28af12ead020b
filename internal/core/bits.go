// Package core implements the CodePack code-compression algorithm evaluated
// by the paper: two-dictionary variable-length encoding of 16-bit
// instruction halves, 16-instruction compression blocks grouped in pairs,
// and an index table mapping native miss addresses into the compressed
// address space.
package core

import "encoding/binary"

// bitWriter emits an MSB-first bitstream. Bits collect in a 64-bit
// accumulator and reach buf four whole bytes at a time, so one writer can
// append every block of a compression to the same buffer.
type bitWriter struct {
	buf  []byte
	acc  uint64 // the low nacc bits are written but not yet in buf
	nacc uint   // below 32 between calls
}

// writeBits appends the low n bits of v, most significant first; n <= 32.
func (w *bitWriter) writeBits(v uint32, n uint) {
	w.acc = w.acc<<n | uint64(v)&(1<<n-1)
	w.nacc += n
	if w.nacc >= 32 {
		w.nacc -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.acc>>w.nacc))
	}
}

// align pads with zero bits to the next byte boundary, moves every pending
// bit into buf, and returns the number of pad bits added.
func (w *bitWriter) align() uint {
	pad := (8 - w.nacc%8) % 8
	w.acc <<= pad
	w.nacc += pad
	for w.nacc > 0 {
		w.nacc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nacc))
	}
	return pad
}

// bitLen returns the number of bits written so far.
func (w *bitWriter) bitLen() int { return 8*len(w.buf) + int(w.nacc) }

// bitReader consumes an MSB-first bitstream.
type bitReader struct {
	buf []byte
	pos uint // bit position
}

// readBits reads n bits MSB-first. Reading past the end returns zero bits;
// callers detect truncation via Remaining.
func (r *bitReader) readBits(n uint) uint32 {
	var v uint32
	for i := uint(0); i < n; i++ {
		v <<= 1
		if r.pos < uint(len(r.buf))*8 {
			if r.buf[r.pos/8]&(0x80>>(r.pos%8)) != 0 {
				v |= 1
			}
		}
		r.pos++
	}
	return v
}

// remaining returns the number of unread bits.
func (r *bitReader) remaining() int { return len(r.buf)*8 - int(r.pos) }
