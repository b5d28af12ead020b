package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"codepack/internal/isa"
)

func TestBitStreamRoundTrip(t *testing.T) {
	f := func(vals []uint16, widths []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var w bitWriter
		var want []uint32
		var ns []uint
		for i, v := range vals {
			n := uint(1)
			if i < len(widths) {
				n = uint(widths[i])%16 + 1
			}
			w.writeBits(uint32(v), n)
			want = append(want, uint32(v)&(1<<n-1))
			ns = append(ns, n)
		}
		w.align()
		r := bitReader{buf: w.bytes()}
		for i, n := range ns {
			if got := r.readBits(n); got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// bytes returns the writer's buffer; call align first so it holds every bit.
func (w *bitWriter) bytes() []byte { return w.buf }

func TestIndexEntryPackUnpack(t *testing.T) {
	f := func(start, length uint32, r0, r1 bool) bool {
		e := IndexEntry{
			Block0Start: start & maxBlock0Start,
			Block0Len:   length & maxBlock0Len,
			Raw0:        r0,
			Raw1:        r1,
		}
		return UnpackIndexEntry(e.Pack()) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassGeometry(t *testing.T) {
	// Codewords must span 2..11 bits with 2-or-3-bit tags (paper §3.1).
	if codewordBits(class0) != 2 {
		t.Errorf("class0 = %d bits, want 2", codewordBits(class0))
	}
	if codewordBits(class3) != MaxCodewordBits {
		t.Errorf("class3 = %d bits, want %d", codewordBits(class3), MaxCodewordBits)
	}
	if RawCodewordBits != 19 {
		t.Errorf("raw = %d bits, want 19", RawCodewordBits)
	}
	total := 0
	for c := class0; c <= class3; c++ {
		total += classSize[c]
	}
	if total != DictCapacity {
		t.Errorf("class sizes sum to %d, want %d", total, DictCapacity)
	}
	if DictCapacity >= 512 {
		t.Errorf("dictionary capacity %d, paper requires < 512", DictCapacity)
	}
	// Slot<->class mapping must be mutually consistent.
	for s := 0; s < DictCapacity; s++ {
		c, idx := classOfSlot(s)
		if classBase[c]+idx != s {
			t.Fatalf("slot %d maps to class %d idx %d which maps back to %d",
				s, c, idx, classBase[c]+idx)
		}
		if idx < 0 || idx >= classSize[c] {
			t.Fatalf("slot %d: index %d out of class %d", s, idx, c)
		}
	}
}

// buildDict ranks a dictionary from explicit value counts, through the
// encoder's count table and rankDict.
func buildDict(counts map[uint16]int, opts BuildDictOptions) *Dict {
	s := new(encScratch)
	for v, n := range counts {
		for range n {
			s.count(v)
		}
	}
	return s.rankDict(opts)
}

func TestDictBuildRanking(t *testing.T) {
	counts := map[uint16]int{
		0x1111: 100, 0x2222: 90, 0x3333: 80, 0x4444: 1,
	}
	d := buildDict(counts, BuildDictOptions{})
	if d.Lookup(0x1111) != 0 {
		t.Errorf("most frequent value not in slot 0: %d", d.Lookup(0x1111))
	}
	// With few values, even a singleton gets one of the small-class
	// slots (only class 3 applies the break-even exclusion).
	if s := d.Lookup(0x4444); s < 1 || s > 8 {
		t.Errorf("singleton in slot %d, want a class-1 slot", s)
	}
}

func TestDictBuildSingletonPolicy(t *testing.T) {
	// Fill classes 0-2 (73 slots) with frequent values, then check that
	// singletons do not get class-3 slots but doubletons do.
	counts := make(map[uint16]int)
	for i := 0; i < 73; i++ {
		counts[uint16(i)] = 1000 - i
	}
	counts[0x8001] = 1 // singleton: excluded
	counts[0x8002] = 2 // break-even: included
	d := buildDict(counts, BuildDictOptions{})
	if d.Lookup(0x8001) != -1 {
		t.Error("singleton got a class-3 slot")
	}
	if d.Lookup(0x8002) == -1 {
		t.Error("doubleton should get a class-3 slot")
	}
}

func TestDictZeroSlot(t *testing.T) {
	counts := map[uint16]int{0x0000: 5, 0xAAAA: 500}
	d := buildDict(counts, BuildDictOptions{ForceZeroSlot0: true})
	if d.Lookup(0) != 0 {
		t.Fatalf("zero not pinned to slot 0: %d", d.Lookup(0))
	}
	if d.Lookup(0xAAAA) != 1 {
		t.Fatalf("most frequent nonzero not in slot 1: %d", d.Lookup(0xAAAA))
	}
}

func TestNewDictRejectsBad(t *testing.T) {
	if _, err := NewDict(make([]uint16, DictCapacity+1)); err == nil {
		t.Error("oversized dictionary accepted")
	}
	if _, err := NewDict([]uint16{7, 7}); err == nil {
		t.Error("duplicate entries accepted")
	}
}

// synthText builds a skewed instruction stream like compiled code.
func synthText(rng *rand.Rand, n int) []isa.Word {
	common := []isa.Word{0x24420004, 0x8FBF001C, 0x00851021, 0x3C040040, 0xAFBF001C}
	text := make([]isa.Word, n)
	for i := range text {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			text[i] = common[rng.Intn(len(common))]
		case 4, 5, 6:
			text[i] = common[rng.Intn(len(common))]&0xFFFF0000 | isa.Word(rng.Intn(64)*4)
		case 7, 8:
			text[i] = isa.Word(rng.Intn(1<<16)) << 16 // low half zero
		default:
			text[i] = isa.Word(rng.Uint32()) // incompressible
		}
	}
	return text
}

func TestCompressRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 15, 16, 17, 32, 33, 100, 1000, 4096} {
		text := synthText(rng, n)
		c, err := CompressWords("t", isa.TextBase, text)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out, err := c.Decompress()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: decompressed %d words", n, len(out))
		}
		for i := range out {
			if out[i] != text[i] {
				t.Fatalf("n=%d: word %d: got %#x want %#x", n, i, out[i], text[i])
			}
		}
	}
}

func TestCompressRoundTripProperty(t *testing.T) {
	f := func(seed int64, sz uint16) bool {
		n := int(sz)%2000 + 1
		text := synthText(rand.New(rand.NewSource(seed)), n)
		c, err := CompressWords("q", isa.TextBase, text)
		if err != nil {
			return false
		}
		out, err := c.Decompress()
		if err != nil || len(out) != n {
			return false
		}
		for i := range out {
			if out[i] != text[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	text := synthText(rng, 500)
	c, err := CompressWords("t", isa.TextBase, text)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 15, 16, 31, 32, 255, 499} {
		w, err := c.DecodeAt(isa.TextBase + uint32(i*4))
		if err != nil {
			t.Fatalf("i=%d: %v", i, err)
		}
		if w != text[i] {
			t.Fatalf("i=%d: got %#x want %#x", i, w, text[i])
		}
	}
	if _, err := c.DecodeAt(isa.TextBase + 500*4); err == nil {
		t.Error("address past end accepted")
	}
	if _, err := c.DecodeAt(isa.TextBase + 2); err == nil {
		t.Error("unaligned address accepted")
	}
}

func TestRandomDataStoredRaw(t *testing.T) {
	// Fully random words are incompressible: most blocks should be raw
	// and the ratio should stay >= ~1 net of overheads being bounded.
	rng := rand.New(rand.NewSource(3))
	text := make([]isa.Word, 2048)
	for i := range text {
		text[i] = isa.Word(rng.Uint32())
	}
	c, err := CompressWords("rand", isa.TextBase, text)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != text[i] {
			t.Fatalf("word %d mismatch", i)
		}
	}
	s := c.Stats()
	if s.RawBlockInstrs == 0 {
		t.Error("expected some raw blocks for random input")
	}
	if r := s.Ratio(); r < 0.95 {
		t.Errorf("random data compressed to %.2f, expected near/above 1", r)
	}
}

func TestHighlyRegularCompressesWell(t *testing.T) {
	text := make([]isa.Word, 4096)
	for i := range text {
		text[i] = 0x24420000 // addiu v0,v0,0 everywhere
	}
	c, err := CompressWords("reg", isa.TextBase, text)
	if err != nil {
		t.Fatal(err)
	}
	if r := c.Stats().Ratio(); r > 0.25 {
		t.Errorf("uniform text ratio %.2f, want < 0.25", r)
	}
}

func TestIndexTableConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	text := synthText(rng, 3000)
	c, err := CompressWords("idx", isa.TextBase, text)
	if err != nil {
		t.Fatal(err)
	}
	// LookupBlock must agree with BlockExtent for every block, and the
	// region must tile exactly.
	var next uint32
	for b := 0; b < c.NumBlocks(); b++ {
		start, size, raw, err := c.BlockExtent(b)
		if err != nil {
			t.Fatal(err)
		}
		ls, lraw, err := c.LookupBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if ls != start || lraw != raw {
			t.Fatalf("block %d: index table says %d/%v, extent says %d/%v",
				b, ls, lraw, start, raw)
		}
		if start != next {
			t.Fatalf("block %d starts at %d, expected %d (no gaps)", b, start, next)
		}
		next = start + size
	}
	if int(next) != len(c.Region) {
		t.Fatalf("blocks cover %d bytes, region is %d", next, len(c.Region))
	}
}

func TestInstrReadyBytesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	text := synthText(rng, 640)
	c, err := CompressWords("mono", isa.TextBase, text)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < c.NumBlocks(); b++ {
		_, size, _, _ := c.BlockExtent(b)
		prev := 0
		for i := 0; i < BlockInstrs; i++ {
			rb := c.InstrReadyBytes(b, i)
			if rb < prev {
				t.Fatalf("block %d: ready bytes not monotone at %d", b, i)
			}
			if rb < 1 || rb > int(size) {
				t.Fatalf("block %d instr %d: ready bytes %d outside (0,%d]",
					b, i, rb, size)
			}
			prev = rb
		}
	}
}

func TestCompositionSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	text := synthText(rng, 5000)
	c, err := CompressWords("comp", isa.TextBase, text)
	if err != nil {
		t.Fatal(err)
	}
	comp := c.Stats().Composition()
	sum := comp.IndexTable + comp.Dictionary + comp.Tags + comp.DictIndices +
		comp.RawTags + comp.RawBits + comp.Pad
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("composition sums to %.4f, want 1", sum)
	}
	if len(comp.String()) == 0 {
		t.Error("empty composition string")
	}
}

func TestEmptyTextRejected(t *testing.T) {
	if _, err := CompressWords("empty", isa.TextBase, nil); err == nil {
		t.Fatal("empty text accepted")
	}
}

func TestCompressWithForeignDictsRoundTrips(t *testing.T) {
	rngA := rand.New(rand.NewSource(31))
	rngB := rand.New(rand.NewSource(77))
	donor, err := CompressWords("donor", isa.TextBase, synthText(rngA, 1024))
	if err != nil {
		t.Fatal(err)
	}
	text := synthText(rngB, 512)
	c, err := CompressWordsWith("host", isa.TextBase, text, Options{
		FixedHigh: donor.High,
		FixedLow:  donor.Low,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != text[i] {
			t.Fatalf("word %d corrupted with foreign dictionaries", i)
		}
	}
	// Foreign dictionaries should compress no better than native ones.
	own, err := CompressWords("own", isa.TextBase, text)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Ratio() < own.Stats().Ratio()-0.001 {
		t.Errorf("foreign dicts ratio %.4f beat own %.4f",
			c.Stats().Ratio(), own.Stats().Ratio())
	}
}
