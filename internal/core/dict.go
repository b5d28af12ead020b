package core

import (
	"fmt"
	"slices"
)

// Dict is one CodePack dictionary: an ordered table of 16-bit halfword
// values where slot position determines codeword class (slot 0 is the 2-bit
// class, slots 1-8 the 5-bit class, and so on).
type Dict struct {
	entries []uint16
}

// NewDict builds a dictionary from explicit entries (slot order). Used when
// loading a serialized dictionary; compression ranks one from a program.
func NewDict(entries []uint16) (*Dict, error) {
	if len(entries) > DictCapacity {
		return nil, fmt.Errorf("core: dictionary has %d entries, capacity %d",
			len(entries), DictCapacity)
	}
	var seen [1 << 16 / 64]uint64 // one bit per halfword value
	for _, v := range entries {
		bit := uint64(1) << (v % 64)
		if seen[v/64]&bit != 0 {
			return nil, fmt.Errorf("core: duplicate dictionary entry %#04x", v)
		}
		seen[v/64] |= bit
	}
	return &Dict{entries: append([]uint16(nil), entries...)}, nil
}

// Len returns the number of populated entries.
func (d *Dict) Len() int { return len(d.entries) }

// Entries returns the dictionary contents in slot order.
func (d *Dict) Entries() []uint16 { return append([]uint16(nil), d.entries...) }

// Lookup returns the slot for value v, or -1 when v is not in the
// dictionary (and must be escaped as raw bits).
func (d *Dict) Lookup(v uint16) int { return slices.Index(d.entries, v) }

// Value returns the halfword stored at slot s.
func (d *Dict) Value(s int) (uint16, error) {
	if s < 0 || s >= len(d.entries) {
		return 0, fmt.Errorf("core: dictionary slot %d out of range (%d entries)",
			s, len(d.entries))
	}
	return d.entries[s], nil
}

// Bytes returns the storage footprint of the dictionary contents: two bytes
// per entry (this is the "Dictionary" column of the paper's Table 4).
func (d *Dict) Bytes() int { return 2 * len(d.entries) }

// BuildDictOptions tunes dictionary construction.
type BuildDictOptions struct {
	// ForceZeroSlot0 pins the value 0x0000 to the 2-bit class. CodePack
	// does this for the low-halfword dictionary because zero is by far
	// the most common immediate.
	ForceZeroSlot0 bool
	// MinClass3Count excludes halfwords from the largest (11-bit) class
	// unless they occur at least this often: a singleton entry saves
	// 19-11=8 bits of stream but costs 16 bits of dictionary storage.
	// Zero means 2 (the break-even point).
	MinClass3Count int
}

// rankDict builds a dictionary from the counted values and clears their
// counts. Values rank by count descending, then by value ascending: the
// packed key ^count<<16|value sorts ascending into exactly that order.
func (s *encScratch) rankDict(opts BuildDictOptions) *Dict {
	minC3 := opts.MinClass3Count
	if minC3 == 0 {
		minC3 = 2
	}
	// A value counted fewer than minC3 times ranks below every value
	// counted more often, and may not take a class-3 slot. Once at least
	// classBase[class3] values are counted minC3 times or more, they fill
	// every slot below class 3 first, so the rare values are left out of
	// the sort. In the 8k-instruction misses-large corpus programs they
	// are 72% of the distinct low halves, and leaving them out cuts
	// dict-build by 43%; a tiny program never reaches 73 frequent values
	// and pays one pass over its few dozen (DESIGN.md §5d).
	frequent := 0
	for _, v := range s.touched {
		if int(s.tab[v]) >= minC3 {
			frequent++
		}
	}
	keepRare := frequent < classBase[class3]
	keys := s.keys[:0]
	for _, v := range s.touched {
		n := s.tab[v]
		s.tab[v] = 0
		if opts.ForceZeroSlot0 && v == 0 || int(n) < minC3 && !keepRare {
			continue
		}
		keys = append(keys, uint64(^n)<<16|uint64(v))
	}
	s.touched = s.touched[:0]
	slices.Sort(keys)
	s.keys = keys

	d := &Dict{entries: make([]uint16, 0, min(len(keys)+1, DictCapacity))}
	if opts.ForceZeroSlot0 {
		// Reserved even if zero never appears, keeping the encoding uniform.
		d.entries = append(d.entries, 0)
	}
	for _, k := range keys {
		if len(d.entries) == DictCapacity {
			break
		}
		if len(d.entries) >= classBase[class3] && int(^uint32(k>>16)) < minC3 {
			break // not worth a class-3 slot, and every later value is rarer
		}
		d.entries = append(d.entries, uint16(k))
	}
	return d
}
