package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"codepack/internal/isa"
	"codepack/internal/program"
)

// Compressed is a CodePack-compressed program: the compressed instruction
// region, the per-group index table, the two dictionaries, and per-block
// metadata used by the decompression timing model.
type Compressed struct {
	Name     string
	TextBase uint32 // native load address of instruction 0
	NumInstr int    // native instructions, before padding to a full group

	High *Dict // dictionary for high halfwords
	Low  *Dict // dictionary for low halfwords

	Index  []IndexEntry // one entry per compression group
	Region []byte       // concatenated compression blocks

	blocks []blockMeta
	stats  Stats

	// fast caches the table-driven decoder's dispatch tables (built from
	// High/Low on first decode; see fastdecode.go).
	fast atomic.Pointer[fastTabs]
}

// blockMeta records where a block lives and how its instructions are laid
// out within it. cumBits[i] is the bit length of the first i+1 codeword
// pairs; the timing model uses it to determine when each instruction's
// compressed bytes have arrived from memory.
type blockMeta struct {
	start   uint32 // byte offset in Region
	size    uint16 // byte length
	raw     bool
	cumBits [BlockInstrs]uint16
}

// Compress encodes the text section of im with CodePack.
func Compress(im *program.Image) (*Compressed, error) {
	return CompressWords(im.Name, im.TextBase, im.Text)
}

// Options tunes compression; the zero value selects CodePack's defaults
// (low-halfword zero pinned to the 2-bit class, break-even singleton
// exclusion).
type Options struct {
	High BuildDictOptions
	Low  BuildDictOptions
	// FixedHigh/FixedLow reuse existing dictionaries instead of building
	// program-specific ones. CodePack fixes dictionaries at program
	// load time precisely so they can be adapted per program; supplying
	// another program's tables quantifies what that adaptation buys.
	FixedHigh *Dict
	FixedLow  *Dict
}

func defaultOptions() Options {
	return Options{Low: BuildDictOptions{ForceZeroSlot0: true}}
}

// DefaultOptions returns CodePack's default compression options
// (low-halfword zero pinned to slot 0, break-even singleton exclusion).
func DefaultOptions() Options { return defaultOptions() }

// PhaseHook observes a compression's internal phases for tracing: it is
// called at the start of each phase — "dict-build", "encode",
// "index-build" — and the returned func marks the phase's end. A nil
// hook is allowed and costs nothing.
type PhaseHook func(phase string) (end func())

// CompressWords encodes a raw instruction stream with default options. The
// stream is padded with nops to a whole number of compression groups.
func CompressWords(name string, textBase uint32, text []isa.Word) (*Compressed, error) {
	return CompressWordsWith(name, textBase, text, defaultOptions())
}

// CompressWordsWith encodes a raw instruction stream with explicit
// dictionary-construction options (used by the ablation benchmarks).
func CompressWordsWith(name string, textBase uint32, text []isa.Word, opts Options) (*Compressed, error) {
	return CompressWordsHooked(name, textBase, text, opts, nil)
}

// CompressWordsHooked is CompressWordsWith with a PhaseHook reporting
// where the compression's time goes (the span-tracing path in cpackd).
func CompressWordsHooked(name string, textBase uint32, text []isa.Word, opts Options, hook PhaseHook) (*Compressed, error) {
	if len(text) == 0 {
		return nil, fmt.Errorf("core: empty text section")
	}
	nPadded := (len(text) + GroupInstrs - 1) / GroupInstrs * GroupInstrs

	c := &Compressed{
		Name:     name,
		TextBase: textBase,
		NumInstr: len(text),
		High:     opts.FixedHigh,
		Low:      opts.FixedLow,
	}
	phase := func(p string) func() {
		if hook == nil {
			return func() {}
		}
		return hook(p)
	}
	s := scratchPool.Get().(*encScratch)
	if c.High == nil || c.Low == nil {
		end := phase("dict-build")
		if c.High == nil {
			s.countHalves(text, 16, nPadded-len(text))
			c.High = s.rankDict(opts.High)
		}
		if c.Low == nil {
			s.countHalves(text, 0, nPadded-len(text))
			c.Low = s.rankDict(opts.Low)
		}
		end()
	}

	c.blocks = make([]blockMeta, nPadded/BlockInstrs)
	c.Index = make([]IndexEntry, nPadded/GroupInstrs)
	end := phase("encode")
	c.encode(s, text)
	scratchPool.Put(s)
	end()
	end = phase("index-build")
	defer end()
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
	c.finishStats(nPadded)
	return c, nil
}

// encScratch is the working memory of one compression, pooled so that a
// compression allocates little beyond its result. tab is indexed by
// halfword value and is all zero between uses. While a dictionary is
// built it holds that half's counts, and touched lists the values counted
// so that only their entries need clearing. While the program is encoded
// it is the slot table (see encode).
type encScratch struct {
	tab     [1 << 16]uint32
	touched []uint16
	keys    []uint64
	w       bitWriter
}

var scratchPool = sync.Pool{New: func() any { return new(encScratch) }}

// countHalves counts the halfwords uint16(w>>shift) of text, plus pad zero
// halfwords for the nops that fill out the last group.
func (s *encScratch) countHalves(text []isa.Word, shift uint, pad int) {
	for _, w := range text {
		s.count(uint16(w >> shift))
	}
	for range pad {
		s.count(0)
	}
}

// count adds one occurrence of halfword v.
func (s *encScratch) count(v uint16) {
	if s.tab[v] == 0 {
		s.touched = append(s.touched, v)
	}
	s.tab[v]++
}

// slotCode is the codeword for one slot-table value: dictionary slot s-1
// for s > 0, or for s == 0 the raw escape, whose 16 literal bits are the
// halfword itself (lit masks them in).
type slotCode struct {
	code  uint32
	lit   uint32
	bits  uint8
	class uint8
}

var slotCodes = func() (t [1 + DictCapacity]slotCode) {
	t[0] = slotCode{code: classTag[classRaw] << 16, lit: 0xFFFF, bits: RawCodewordBits, class: classRaw}
	for s := 0; s < DictCapacity; s++ {
		cl, idx := classOfSlot(s)
		t[1+s] = slotCode{
			code:  classTag[cl]<<classIndexBits[cl] | uint32(idx),
			bits:  uint8(codewordBits(cl)),
			class: uint8(cl),
		}
	}
	return t
}()

// encode writes every block of text, nop-padded to len(c.blocks) blocks,
// through the scratch writer, then copies the region out. The slot table
// packs both dictionaries into s.tab: entry v is (highSlot+1)<<16 |
// (lowSlot+1) for halfword value v, where 0 means not in the dictionary.
func (c *Compressed) encode(s *encScratch, text []isa.Word) {
	for i, v := range c.High.entries {
		s.tab[v] = uint32(i+1) << 16
	}
	for i, v := range c.Low.entries {
		s.tab[v] |= uint32(i + 1)
	}
	s.w = bitWriter{buf: s.w.buf[:0]}
	var tail [BlockInstrs]isa.Word
	for b := range c.blocks {
		words := &tail
		if end := (b + 1) * BlockInstrs; end <= len(text) {
			words = (*[BlockInstrs]isa.Word)(text[end-BlockInstrs : end])
		} else {
			tail = [BlockInstrs]isa.Word{}
			copy(tail[:], text[min(b*BlockInstrs, len(text)):])
		}
		c.encodeBlock(s, &c.blocks[b], words)
	}
	c.Region = make([]byte, len(s.w.buf))
	copy(c.Region, s.w.buf)
	for _, v := range c.High.entries {
		s.tab[v] = 0
	}
	for _, v := range c.Low.entries {
		s.tab[v] = 0
	}
}

func (c *Compressed) encodeBlock(s *encScratch, meta *blockMeta, words *[BlockInstrs]isa.Word) {
	w := &s.w
	start := len(w.buf)
	meta.start = uint32(start)
	var classes [numClasses]int
	for i, word := range words {
		hi, lo := uint16(word>>16), uint16(word)
		h := &slotCodes[s.tab[hi]>>16]
		w.writeBits(h.code|uint32(hi)&h.lit, uint(h.bits))
		l := &slotCodes[s.tab[lo]&0xFFFF]
		w.writeBits(l.code|uint32(lo)&l.lit, uint(l.bits))
		classes[h.class]++
		classes[l.class]++
		meta.cumBits[i] = uint16(w.bitLen() - 8*start)
	}
	pad := w.align()

	if size := len(w.buf) - start; size < BlockNativeBytes {
		meta.size = uint16(size)
		c.stats.PadBits += int(pad)
		for cl := class0; cl <= class3; cl++ {
			c.stats.ClassCounts[cl] += classes[cl]
		}
		c.stats.RawHalfwords += classes[classRaw]
		return
	}
	// Compression would not shrink the block: store it raw.
	w.buf = w.buf[:start]
	for i, word := range words {
		w.buf = binary.BigEndian.AppendUint32(w.buf, word)
		meta.cumBits[i] = uint16((i + 1) * 32)
	}
	meta.raw = true
	meta.size = BlockNativeBytes
	c.stats.RawBlockInstrs += BlockInstrs
}

// NumBlocks returns the number of compression blocks.
func (c *Compressed) NumBlocks() int { return len(c.blocks) }

// BlockOf maps a native text address to its compression block number.
func (c *Compressed) BlockOf(addr uint32) int {
	return int(addr-c.TextBase) / 4 / BlockInstrs
}

// GroupOf maps a native text address to its compression group number.
func (c *Compressed) GroupOf(addr uint32) int {
	return int(addr-c.TextBase) / 4 / GroupInstrs
}

// BlockExtent returns the byte extent of block b within Region.
func (c *Compressed) BlockExtent(b int) (start, size uint32, raw bool, err error) {
	if b < 0 || b >= len(c.blocks) {
		return 0, 0, false, fmt.Errorf("core: block %d out of range", b)
	}
	m := &c.blocks[b]
	return m.start, uint32(m.size), m.raw, nil
}

// InstrReadyBytes returns, for instruction i of block b, the number of bytes
// from the start of the block that must have arrived before the instruction
// can be decoded. This drives the fetch/decompress overlap in the timing
// model.
func (c *Compressed) InstrReadyBytes(b, i int) int {
	return int(c.blocks[b].cumBits[i]+7) / 8
}

// LookupBlock resolves block b via the index table exactly as the hardware
// would: read the group entry, then apply the block-0 length delta.
func (c *Compressed) LookupBlock(b int) (start uint32, raw bool, err error) {
	g := b / GroupBlocks
	if g < 0 || g >= len(c.Index) {
		return 0, false, fmt.Errorf("core: group %d out of range", g)
	}
	e := c.Index[g]
	if b%GroupBlocks == 0 {
		return e.Block0Start, e.Raw0, nil
	}
	return e.Block0Start + e.Block0Len, e.Raw1, nil
}

// DecodeBlock decompresses block b into out with the table-driven
// decoder (see fastdecode.go).
func (c *Compressed) DecodeBlock(b int, out *[BlockInstrs]isa.Word) error {
	return c.fastDecode(b, out, nil)
}

// DecodeBlockReference decompresses block b with the bit-at-a-time tag
// walker. It is the correctness oracle the fast decoder is
// differentially tested against, and the implementation closest to what
// the decompression hardware does.
func (c *Compressed) DecodeBlockReference(b int, out *[BlockInstrs]isa.Word) error {
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
		}
		return nil
	}
	end := int(start) + int(c.blocks[b].size)
	if end > len(c.Region) {
		return fmt.Errorf("core: block %d extends past region", b)
	}
	r := bitReader{buf: c.Region[start:end]}
	for i := range out {
		hi, err := decodeHalf(&r, c.High)
		if err != nil {
			return fmt.Errorf("core: block %d instr %d high: %w", b, i, err)
		}
		lo, err := decodeHalf(&r, c.Low)
		if err != nil {
			return fmt.Errorf("core: block %d instr %d low: %w", b, i, err)
		}
		out[i] = uint32(hi)<<16 | uint32(lo)
	}
	return nil
}

func decodeHalf(r *bitReader, d *Dict) (uint16, error) {
	if r.remaining() < 2 {
		return 0, fmt.Errorf("truncated codeword")
	}
	var cl int
	switch r.readBits(2) {
	case 0b00:
		cl = class0
	case 0b01:
		cl = class1
	case 0b10:
		cl = class2
	default:
		if r.readBits(1) == 0 {
			cl = class3
		} else {
			cl = classRaw
		}
	}
	if cl == classRaw {
		if r.remaining() < 16 {
			return 0, fmt.Errorf("truncated raw halfword")
		}
		return uint16(r.readBits(16)), nil
	}
	if r.remaining() < int(classIndexBits[cl]) {
		return 0, fmt.Errorf("truncated index")
	}
	idx := int(r.readBits(classIndexBits[cl]))
	v, err := d.Value(classBase[cl] + idx)
	if err != nil {
		return 0, fmt.Errorf("dictionary miss: %w", err)
	}
	return v, nil
}

// Decompress reconstructs the full native text section (without padding).
func (c *Compressed) Decompress() ([]isa.Word, error) {
	return c.AppendDecompress(make([]isa.Word, 0, len(c.blocks)*BlockInstrs))
}

// DecodeAt decompresses the single instruction at native address addr,
// exactly as the decompression hardware serves a cache miss.
func (c *Compressed) DecodeAt(addr uint32) (isa.Word, error) {
	idx := int(addr-c.TextBase) / 4
	if addr < c.TextBase || idx >= c.NumInstr || addr%4 != 0 {
		return 0, fmt.Errorf("core: address 0x%x outside compressed text", addr)
	}
	var blk [BlockInstrs]isa.Word
	if err := c.DecodeBlock(idx/BlockInstrs, &blk); err != nil {
		return 0, err
	}
	return blk[idx%BlockInstrs], nil
}
