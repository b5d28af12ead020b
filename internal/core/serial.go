package core

import (
	"encoding/binary"
	"fmt"
)

// On-disk format of a compressed program (the cpack utility's output):
// magic, text base, native instruction count, the two dictionaries, the
// packed index table, and the compressed region.
const compMagic = 0x43504B31 // "CPK1"

// Marshal serializes the compressed program into one exactly-sized buffer.
func (c *Compressed) Marshal() []byte {
	high, low := c.High.entries, c.Low.entries
	b := make([]byte, 0, 28+2*(len(high)+len(low))+4*len(c.Index)+len(c.Region))
	put := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	put(compMagic)
	put(c.TextBase)
	put(uint32(c.NumInstr))
	put(uint32(len(high)))
	put(uint32(len(low)))
	put(uint32(len(c.Index)))
	put(uint32(len(c.Region)))
	for _, v := range high {
		b = binary.LittleEndian.AppendUint16(b, v)
	}
	for _, v := range low {
		b = binary.LittleEndian.AppendUint16(b, v)
	}
	for _, e := range c.Index {
		put(e.Pack())
	}
	return append(b, c.Region...)
}

// UnmarshalCompressed parses a serialized compressed program and
// reconstructs the per-block metadata (byte-arrival tables) by re-scanning
// the codeword stream, so the result is usable both for decompression and
// for timing simulation.
func UnmarshalCompressed(name string, b []byte) (*Compressed, error) {
	if len(b) < 28 || binary.LittleEndian.Uint32(b) != compMagic {
		return nil, fmt.Errorf("core: bad compressed image header")
	}
	get := func(i int) uint32 { return binary.LittleEndian.Uint32(b[i*4:]) }
	c := &Compressed{
		Name:     name,
		TextBase: get(1),
		NumInstr: int(get(2)),
	}
	nHigh, nLow, nIdx, nRegion := int(get(3)), int(get(4)), int(get(5)), int(get(6))
	need := 28 + 2*(nHigh+nLow) + 4*nIdx + nRegion
	if len(b) != need {
		return nil, fmt.Errorf("core: compressed image is %d bytes, header implies %d",
			len(b), need)
	}
	// The index covers the text in whole groups; a larger instruction
	// count would make decoders slice past the blocks they decoded.
	if c.NumInstr > nIdx*GroupInstrs {
		return nil, fmt.Errorf("core: %d instructions exceed the %d index groups",
			c.NumInstr, nIdx)
	}
	off := 28
	readDict := func(n int) (*Dict, error) {
		entries := make([]uint16, n)
		for i := range entries {
			entries[i] = binary.LittleEndian.Uint16(b[off:])
			off += 2
		}
		return NewDict(entries)
	}
	var err error
	if c.High, err = readDict(nHigh); err != nil {
		return nil, fmt.Errorf("core: high dictionary: %w", err)
	}
	if c.Low, err = readDict(nLow); err != nil {
		return nil, fmt.Errorf("core: low dictionary: %w", err)
	}
	c.Index = make([]IndexEntry, nIdx)
	for i := range c.Index {
		c.Index[i] = UnpackIndexEntry(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	c.Region = append([]byte(nil), b[off:]...)
	if err := c.rebuildBlockMeta(); err != nil {
		return nil, err
	}
	c.rebuildStats()
	return c, nil
}

// rebuildBlockMeta re-derives block extents and per-instruction cumulative
// bit counts from the index table and the codeword stream.
func (c *Compressed) rebuildBlockMeta() error {
	nBlocks := len(c.Index) * GroupBlocks
	c.blocks = make([]blockMeta, nBlocks)
	for blk := 0; blk < nBlocks; blk++ {
		start, raw, err := c.LookupBlock(blk)
		if err != nil {
			return err
		}
		m := &c.blocks[blk]
		m.start = start
		m.raw = raw
		if raw {
			if int(start)+BlockNativeBytes > len(c.Region) {
				return fmt.Errorf("core: raw block %d extends past region", blk)
			}
			m.size = BlockNativeBytes
			for i := 0; i < BlockInstrs; i++ {
				m.cumBits[i] = uint16((i + 1) * 32)
			}
			continue
		}
		end := len(c.Region)
		if e := c.Index[blk/GroupBlocks]; blk%GroupBlocks == 0 {
			end = int(e.Block0Start + e.Block0Len)
		} else if blk/GroupBlocks+1 < len(c.Index) {
			end = int(c.Index[blk/GroupBlocks+1].Block0Start)
		}
		if end > len(c.Region) || int(start) > end {
			return fmt.Errorf("core: block %d extent [%d,%d) invalid", blk, start, end)
		}
		r := bitReader{buf: c.Region[start:end]}
		for i := 0; i < BlockInstrs; i++ {
			if _, err := decodeHalf(&r, c.High); err != nil {
				return fmt.Errorf("core: rescan block %d: %w", blk, err)
			}
			if _, err := decodeHalf(&r, c.Low); err != nil {
				return fmt.Errorf("core: rescan block %d: %w", blk, err)
			}
			m.cumBits[i] = uint16(r.pos)
		}
		m.size = uint16((r.pos + 7) / 8)
	}
	return nil
}

// rebuildStats recomputes what the block metadata determines: the sizes,
// raw-block instructions and pad bits. The serialized form does not carry
// the codeword counts, so they and the tag and index bits stay zero.
func (c *Compressed) rebuildStats() {
	c.stats = Stats{}
	for blk := range c.blocks {
		m := &c.blocks[blk]
		if m.raw {
			c.stats.RawBlockInstrs += BlockInstrs
			continue
		}
		c.stats.PadBits += int(m.size)*8 - int(m.cumBits[BlockInstrs-1])
	}
	c.finishStats(len(c.blocks) * BlockInstrs)
}
