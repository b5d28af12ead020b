package core

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"codepack/internal/asm"
	"codepack/internal/isa"
	"codepack/internal/workload"
)

// requireSameEncoding compresses text with the encoder and with the
// reference encoder and fails unless both agree on the serialized bytes,
// the statistics and the per-block metadata behind InstrReadyBytes.
func requireSameEncoding(t testing.TB, text []isa.Word, opts Options) {
	t.Helper()
	got, err := CompressWordsWith("eq", isa.TextBase, text, opts)
	want, wantErr := compressReference("eq", isa.TextBase, text, opts)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%d words: error %v, reference error %v", len(text), err, wantErr)
	}
	if err != nil {
		return
	}
	if g, w := got.Marshal(), want.Marshal(); !bytes.Equal(g, w) {
		t.Fatalf("%d words, opts %+v: Marshal differs from the reference encoder (%d vs %d bytes)",
			len(text), opts, len(g), len(w))
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("%d words: Stats differ:\n  got:  %+v\n  want: %+v", len(text), got.Stats(), want.Stats())
	}
	if !slices.Equal(got.blocks, want.blocks) {
		t.Fatalf("%d words: block metadata differs from the reference encoder", len(text))
	}
}

// equivalenceOptions are the dictionary policies the equivalence checks
// run under: the defaults, zero not pinned, a stricter class-3 threshold,
// and dictionaries fixed to those of donor.
func equivalenceOptions(donor *Compressed) []Options {
	return []Options{
		DefaultOptions(),
		{},
		{
			High: BuildDictOptions{MinClass3Count: 3},
			Low:  BuildDictOptions{ForceZeroSlot0: true, MinClass3Count: 3},
		},
		{FixedHigh: donor.High, FixedLow: donor.Low},
	}
}

// tieText builds n instructions whose halves are drawn uniformly from
// alphabets of the given size: with an alphabet well above DictCapacity
// both dictionaries fill every slot, and counts bunch around n/alphabet,
// so many values tie at every class boundary.
func tieText(rng *rand.Rand, n, alphabet int) []isa.Word {
	text := make([]isa.Word, n)
	for i := range text {
		hi := uint32(rng.Intn(alphabet)) * 0x9E37
		lo := uint32(rng.Intn(alphabet)) * 0x3C6F
		text[i] = hi<<16 | lo&0xFFFF
	}
	return text
}

func TestCompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	type stream struct {
		name string
		text []isa.Word
		full bool // both dictionaries must fill all DictCapacity slots
	}
	streams := []stream{
		{"ties-2000", tieText(rng, 1<<16, 2000), true},
		{"ties-400", tieText(rng, 1<<16+7, 400), true},
		{"singletons", tieText(rng, 1<<16, 40000), false},
		{"classes", classText(rng, 70000), false},
		{"rawish", rawishText(rng, 5000), false},
		{"synth", synthText(rng, 1<<16+19), false},
	}
	for i, s := range streams {
		if s.full {
			c, err := CompressWords(s.name, isa.TextBase, s.text)
			if err != nil {
				t.Fatal(err)
			}
			if c.High.Len() != DictCapacity || c.Low.Len() != DictCapacity {
				t.Fatalf("%s: dictionaries hold %d/%d entries, want %d each",
					s.name, c.High.Len(), c.Low.Len(), DictCapacity)
			}
			// The ranking must break ties: count equal neighbours.
			counts, _ := refCountHalfwords(s.text)
			ties := 0
			for j := 1; j < c.High.Len(); j++ {
				if counts[c.High.entries[j]] == counts[c.High.entries[j-1]] {
					ties++
				}
			}
			if s.name == "ties-2000" && ties < 100 {
				t.Fatalf("%s: only %d tied neighbours in the high dictionary", s.name, ties)
			}
		}
		donor, err := compressReference("donor", isa.TextBase, streams[(i+1)%len(streams)].text, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range equivalenceOptions(donor) {
			requireSameEncoding(t, s.text, opts)
		}
	}
}

// TestCompressScratchHygiene compresses a mix of programs from 8
// goroutines in different orders. The pooled scratch table is shared
// between compressions, so a count or slot left behind by one would
// change the ranking or the codewords of the next: every result must
// equal the sequential one. Run it under -race -count=10.
func TestCompressScratchHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	big := tieText(rng, 1<<16, 2000)
	fixed, err := CompressWords("fixed", isa.TextBase, classText(rng, 2000))
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		text []isa.Word
		opts Options
	}
	jobs := []job{
		{[]isa.Word{0xDEADBEEF}, DefaultOptions()},
		{rawishText(rng, 512), DefaultOptions()},
		{big, DefaultOptions()},
		{synthText(rng, 3000), DefaultOptions()},
		{make([]isa.Word, 40), DefaultOptions()},
		{synthText(rng, 700), Options{FixedHigh: fixed.High, FixedLow: fixed.Low}},
		{big, Options{FixedHigh: fixed.High}},
	}
	type result struct {
		blob  []byte
		stats Stats
	}
	want := make([]result, len(jobs))
	for i, j := range jobs {
		c, err := CompressWordsWith("p", isa.TextBase, j.text, j.opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = result{c.Marshal(), c.Stats()}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(jobs))
			for round := 0; round < 2; round++ {
				for _, i := range order {
					c, err := CompressWordsWith("p", isa.TextBase, jobs[i].text, jobs[i].opts)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(c.Marshal(), want[i].blob) || c.Stats() != want[i].stats {
						t.Errorf("goroutine %d, job %d: result differs from the sequential compress", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// A scratch that comes back from the pool must be clean.
	s := scratchPool.Get().(*encScratch)
	defer scratchPool.Put(s)
	if len(s.touched) != 0 {
		t.Fatalf("pooled scratch lists %d touched values", len(s.touched))
	}
	for v, n := range s.tab {
		if n != 0 {
			t.Fatalf("pooled scratch table entry %#04x = %#x, want 0", v, n)
		}
	}
}

// TestCompressStatsInvariants checks that the bit composition accounts
// for the whole region, and the codeword counts for every halfword of
// the encoded blocks.
func TestCompressStatsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	gens := []func(*rand.Rand, int) []isa.Word{synthText, rawishText, classText}
	for i := 0; i < 200; i++ {
		text := gens[i%len(gens)](rng, 1+rng.Intn(3000))
		c, err := CompressWords("inv", isa.TextBase, text)
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if bits := st.TagBits + st.IndexBits + st.RawTagBits + st.RawBits + st.PadBits; bits != 8*st.RegionBytes {
			t.Fatalf("program %d: composition sums to %d bits, region is %d bits", i, bits, 8*st.RegionBytes)
		}
		halves := st.RawHalfwords
		for _, n := range st.ClassCounts {
			halves += n
		}
		if want := 2 * (st.PaddedInstrs - st.RawBlockInstrs); halves != want {
			t.Fatalf("program %d: %d codewords counted, encoded blocks hold %d halfwords", i, halves, want)
		}
	}
}

func TestCompressAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	im, err := asm.Assemble("request", workload.CorpusSourceSized(1, 0, 8192))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := CompressWords(im.Name, im.TextBase, im.Text); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("compressing %d instructions allocates %.0f times, want <= 16", len(im.Text), allocs)
	}
}
