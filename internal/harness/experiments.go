package harness

import (
	"fmt"

	"codepack/internal/core"
	"codepack/internal/cpu"
	"codepack/internal/decomp"
	"codepack/internal/isa"
	"codepack/internal/mem"
)

// Table1 characterizes the benchmarks on the 4-issue model: dynamic
// instruction count and L1 I-cache miss rate (paper Table 1).
func (s *Suite) Table1() (*Table, error) {
	t := newTable("table1", "Benchmarks (4-issue, native)",
		"bench", "instructions (M)", "text KB", "L1 I-miss rate")
	benches, err := s.All()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		r, err := s.Run(b, cpu.FourIssue(), cpu.NativeModel())
		if err != nil {
			return nil, err
		}
		miss := r.IMissRate()
		t.addRow(b.Profile.Name,
			fmt.Sprintf("%.1f", float64(r.Instructions)/1e6),
			fmt.Sprintf("%d", b.Image.TextBytes()/1024),
			pct(miss))
		t.set(b.Profile.Name, "imiss", miss)
		t.set(b.Profile.Name, "instr", float64(r.Instructions))
	}
	return t, nil
}

// Table2 lists the simulated architectures (paper Table 2; static).
func Table2() *Table {
	t := newTable("table2", "Simulated architectures",
		"parameter", "1-issue", "4-issue", "8-issue")
	cfgs := cpu.Presets()
	row := func(name string, f func(cpu.Config) string) {
		cells := []string{name}
		for _, c := range cfgs {
			cells = append(cells, f(c))
		}
		t.addRow(cells...)
	}
	row("issue", func(c cpu.Config) string {
		ord := "out-of-order"
		if c.InOrder {
			ord = "in-order"
		}
		return fmt.Sprintf("%d %s", c.IssueWidth, ord)
	})
	row("fetch queue", func(c cpu.Config) string { return fmt.Sprint(c.FetchQueue) })
	row("decode width", func(c cpu.Config) string { return fmt.Sprint(c.DecodeWidth) })
	row("commit width", func(c cpu.Config) string { return fmt.Sprint(c.CommitWidth) })
	row("RUU entries", func(c cpu.Config) string { return fmt.Sprint(c.RUUSize) })
	row("LSQ entries", func(c cpu.Config) string { return fmt.Sprint(c.LSQSize) })
	row("function units", func(c cpu.Config) string {
		return fmt.Sprintf("alu:%d mult:%d mem:%d fpalu:%d fpmult:%d",
			c.IntALU, c.IntMult, c.MemPorts, c.FPALU, c.FPMult)
	})
	row("branch pred", func(c cpu.Config) string { return c.Pred.String() })
	row("L1 I-cache", func(c cpu.Config) string { return c.ICache.String() })
	row("L1 D-cache", func(c cpu.Config) string { return c.DCache.String() })
	row("memory", func(c cpu.Config) string { return c.Mem.String() })
	return t
}

// Table3 reports the compression ratio of each benchmark's text section.
func (s *Suite) Table3() (*Table, error) {
	t := newTable("table3", "Compression ratio of .text section",
		"bench", "original (bytes)", "compressed (bytes)", "ratio")
	benches, err := s.All()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		st := b.Comp.Stats()
		t.addRow(b.Profile.Name,
			fmt.Sprint(st.OriginalBytes), fmt.Sprint(st.CompressedBytes()),
			pct(st.Ratio()))
		t.set(b.Profile.Name, "ratio", st.Ratio())
	}
	return t, nil
}

// Table4 reports the composition of the compressed region.
func (s *Suite) Table4() (*Table, error) {
	t := newTable("table4", "Composition of compressed region",
		"bench", "index", "dict", "tags", "indices", "raw tags", "raw bits", "pad", "total (bytes)")
	benches, err := s.All()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		c := b.Comp.Stats().Composition()
		t.addRow(b.Profile.Name, pct(c.IndexTable), pct(c.Dictionary), pct(c.Tags),
			pct(c.DictIndices), pct(c.RawTags), pct(c.RawBits), pct(c.Pad),
			fmt.Sprint(c.TotalBytes))
		t.set(b.Profile.Name, "index", c.IndexTable)
		t.set(b.Profile.Name, "dict", c.Dictionary)
		t.set(b.Profile.Name, "tags", c.Tags)
		t.set(b.Profile.Name, "indices", c.DictIndices)
		t.set(b.Profile.Name, "rawtags", c.RawTags)
		t.set(b.Profile.Name, "rawbits", c.RawBits)
		t.set(b.Profile.Name, "pad", c.Pad)
	}
	return t, nil
}

// Table5 reports IPC for native, baseline CodePack and optimized CodePack
// on all three architectures.
func (s *Suite) Table5() (*Table, error) {
	t := newTable("table5", "Instructions per cycle",
		"bench",
		"1i native", "1i codepack", "1i optimized",
		"4i native", "4i codepack", "4i optimized",
		"8i native", "8i codepack", "8i optimized")
	benches, err := s.All()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		cells := []string{b.Profile.Name}
		for _, cfg := range cpu.Presets() {
			for _, m := range []struct {
				name  string
				model cpu.FetchModel
			}{
				{"native", cpu.NativeModel()},
				{"codepack", cpu.BaselineModel()},
				{"optimized", cpu.OptimizedModel()},
			} {
				r, err := s.Run(b, cfg, m.model)
				if err != nil {
					return nil, err
				}
				cells = append(cells, f2(r.IPC()))
				t.set(b.Profile.Name, cfg.Name+"/"+m.name, r.IPC())
			}
		}
		t.addRow(cells...)
	}
	return t, nil
}

// Table6 sweeps index-cache geometry for cc1 on the 4-issue model and
// reports the index-cache miss ratio during L1 misses.
func (s *Suite) Table6() (*Table, error) {
	lineSizes := []int{1, 2, 4, 8}
	lineCounts := []int{4, 16, 64, 256}
	cols := []string{"lines"}
	for _, e := range lineSizes {
		cols = append(cols, fmt.Sprintf("%d entries/line", e))
	}
	t := newTable("table6", "Index cache miss ratio for cc1 (4-issue)", cols...)
	b, err := s.Bench("cc1")
	if err != nil {
		return nil, err
	}
	for _, lines := range lineCounts {
		cells := []string{fmt.Sprint(lines)}
		for _, entries := range lineSizes {
			model := cpu.BaselineModel()
			model.CodePack.IndexCacheLines = lines
			model.CodePack.IndexEntriesPerLine = entries
			r, err := s.Run(b, cpu.FourIssue(), model)
			if err != nil {
				return nil, err
			}
			miss := r.CodePack.IndexMissRate()
			cells = append(cells, pct(miss))
			t.set(fmt.Sprint(lines), fmt.Sprint(entries), miss)
		}
		t.addRow(cells...)
	}
	return t, nil
}

// Table7 reports speedup over native due to the index cache: baseline
// CodePack, CodePack with the 64x4 index cache, and a perfect index cache.
func (s *Suite) Table7() (*Table, error) {
	t := newTable("table7", "Speedup due to index cache (4-issue)",
		"bench", "codepack", "index cache", "perfect")
	withIdx := cpu.BaselineModel()
	withIdx.CodePack.IndexCacheLines = 64
	withIdx.CodePack.IndexEntriesPerLine = 4
	perfect := cpu.BaselineModel()
	perfect.CodePack.PerfectIndex = true
	return s.speedupTable(t, cpu.FourIssue(), []namedModel{
		{"codepack", cpu.BaselineModel()},
		{"index cache", withIdx},
		{"perfect", perfect},
	})
}

// Table8 reports speedup over native due to decompression width.
func (s *Suite) Table8() (*Table, error) {
	t := newTable("table8", "Speedup due to decompression rate (4-issue)",
		"bench", "codepack", "2 decoders", "16 decoders")
	two := cpu.BaselineModel()
	two.CodePack.DecodeRate = 2
	sixteen := cpu.BaselineModel()
	sixteen.CodePack.DecodeRate = 16
	return s.speedupTable(t, cpu.FourIssue(), []namedModel{
		{"codepack", cpu.BaselineModel()},
		{"2 decoders", two},
		{"16 decoders", sixteen},
	})
}

// Table9 compares the optimizations individually and together.
func (s *Suite) Table9() (*Table, error) {
	t := newTable("table9", "Comparison of optimizations (4-issue)",
		"bench", "codepack", "index", "decompress", "all")
	idx := cpu.BaselineModel()
	idx.CodePack.IndexCacheLines = 64
	idx.CodePack.IndexEntriesPerLine = 4
	dec := cpu.BaselineModel()
	dec.CodePack.DecodeRate = 2
	return s.speedupTable(t, cpu.FourIssue(), []namedModel{
		{"codepack", cpu.BaselineModel()},
		{"index", idx},
		{"decompress", dec},
		{"all", cpu.OptimizedModel()},
	})
}

// Table10 sweeps the I-cache size.
func (s *Suite) Table10() (*Table, error) {
	sizes := []int{1, 4, 16, 64}
	cols := []string{"bench"}
	for _, kb := range sizes {
		cols = append(cols, fmt.Sprintf("%dKB codepack", kb), fmt.Sprintf("%dKB optimized", kb))
	}
	t := newTable("table10", "Speedup over native vs I-cache size (4-issue)", cols...)
	benches, err := s.All()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		cells := []string{b.Profile.Name}
		for _, kb := range sizes {
			cfg := cpu.FourIssue()
			cfg.ICache.SizeBytes = kb * 1024
			for _, m := range []namedModel{
				{"codepack", cpu.BaselineModel()},
				{"optimized", cpu.OptimizedModel()},
			} {
				native, comp, err := s.runPair(b, cfg, m.model)
				if err != nil {
					return nil, err
				}
				sp := comp.SpeedupOver(native)
				cells = append(cells, f2(sp))
				t.set(b.Profile.Name, fmt.Sprintf("%dKB/%s", kb, m.name), sp)
			}
		}
		t.addRow(cells...)
	}
	return t, nil
}

// Table11 sweeps main-memory bus width.
func (s *Suite) Table11() (*Table, error) {
	widths := []int{16, 32, 64, 128}
	cols := []string{"bench"}
	for _, w := range widths {
		cols = append(cols, fmt.Sprintf("%db codepack", w), fmt.Sprintf("%db optimized", w))
	}
	t := newTable("table11", "Speedup over native vs memory bus width (4-issue)", cols...)
	benches, err := s.All()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		cells := []string{b.Profile.Name}
		for _, w := range widths {
			cfg := cpu.FourIssue()
			cfg.Mem.WidthBytes = w / 8
			for _, m := range []namedModel{
				{"codepack", cpu.BaselineModel()},
				{"optimized", cpu.OptimizedModel()},
			} {
				native, comp, err := s.runPair(b, cfg, m.model)
				if err != nil {
					return nil, err
				}
				sp := comp.SpeedupOver(native)
				cells = append(cells, f2(sp))
				t.set(b.Profile.Name, fmt.Sprintf("%d/%s", w, m.name), sp)
			}
		}
		t.addRow(cells...)
	}
	return t, nil
}

// Table12 sweeps main-memory latency as a multiple of the baseline.
func (s *Suite) Table12() (*Table, error) {
	mults := []float64{0.5, 1, 2, 4, 8}
	cols := []string{"bench"}
	for _, m := range mults {
		cols = append(cols, fmt.Sprintf("%gx codepack", m), fmt.Sprintf("%gx optimized", m))
	}
	t := newTable("table12", "Speedup over native vs memory latency (4-issue)", cols...)
	benches, err := s.All()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		cells := []string{b.Profile.Name}
		for _, mult := range mults {
			cfg := cpu.FourIssue()
			cfg.Mem.FirstLatency = scaleLatency(cfg.Mem.FirstLatency, mult)
			cfg.Mem.BeatLatency = scaleLatency(cfg.Mem.BeatLatency, mult)
			for _, m := range []namedModel{
				{"codepack", cpu.BaselineModel()},
				{"optimized", cpu.OptimizedModel()},
			} {
				native, comp, err := s.runPair(b, cfg, m.model)
				if err != nil {
					return nil, err
				}
				sp := comp.SpeedupOver(native)
				cells = append(cells, f2(sp))
				t.set(b.Profile.Name, fmt.Sprintf("%gx/%s", mult, m.name), sp)
			}
		}
		t.addRow(cells...)
	}
	return t, nil
}

func scaleLatency(base int, mult float64) int {
	v := int(float64(base) * mult)
	if v < 1 {
		v = 1
	}
	return v
}

type namedModel struct {
	name  string
	model cpu.FetchModel
}

// speedupTable fills t with one speedup column per model for every bench.
func (s *Suite) speedupTable(t *Table, cfg cpu.Config, models []namedModel) (*Table, error) {
	benches, err := s.All()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		native, err := s.Run(b, cfg, cpu.NativeModel())
		if err != nil {
			return nil, err
		}
		cells := []string{b.Profile.Name}
		for _, m := range models {
			r, err := s.Run(b, cfg, m.model)
			if err != nil {
				return nil, err
			}
			sp := r.SpeedupOver(native)
			cells = append(cells, f2(sp))
			t.set(b.Profile.Name, m.name, sp)
		}
		t.addRow(cells...)
	}
	return t, nil
}

// Figure2 reproduces the paper's worked L1-miss timelines: critical
// instruction availability for native code (t=10), baseline CodePack
// (t=25) and the optimized decompressor (t=14).
func Figure2() (*Table, error) {
	comp, err := figure2Program()
	if err != nil {
		return nil, err
	}
	t := newTable("figure2", "L1 miss timeline (critical = 5th instruction of line)",
		"model", "critical ready", "line complete")

	newBus := func() *mem.Bus {
		b, err := mem.NewBus(mem.Baseline())
		if err != nil {
			panic(err)
		}
		return b
	}
	native := &decomp.Native{Bus: newBus(), CriticalWordFirst: true}
	nf := native.FetchLine(0, isa.TextBase, 4)
	t.addRow("native", fmt.Sprint(nf.Ready[4]), fmt.Sprint(nf.Done))
	t.set("native", "critical", float64(nf.Ready[4]))

	base, err := decomp.NewCodePack(comp, newBus(), decomp.BaselineCodePack())
	if err != nil {
		return nil, err
	}
	bf := base.FetchLine(0, isa.TextBase, 4)
	t.addRow("codepack", fmt.Sprint(bf.Ready[4]), fmt.Sprint(bf.Done))
	t.set("codepack", "critical", float64(bf.Ready[4]))

	optCfg := decomp.OptimizedCodePack()
	optCfg.PerfectIndex = true // the figure assumes an index-cache hit
	opt, err := decomp.NewCodePack(comp, newBus(), optCfg)
	if err != nil {
		return nil, err
	}
	of := opt.FetchLine(0, isa.TextBase, 4)
	t.addRow("optimized", fmt.Sprint(of.Ready[4]), fmt.Sprint(of.Done))
	t.set("optimized", "critical", float64(of.Ready[4]))
	return t, nil
}

// figure2Program builds a compressed stream whose first block matches the
// figure's beat pattern (2,3,3,3,3,2 instructions per 64-bit beat), i.e.
// every instruction costs exactly 3 compressed bytes.
func figure2Program() (*core.Compressed, error) {
	text := make([]isa.Word, 1024)
	for i := range text {
		hi := uint32(0x4000 + i)
		if i < core.BlockInstrs {
			hi = uint32(0xF000 + i) // singletons: escape as 19-bit raw
		}
		lo := uint32(0x0010 + i%8) // frequent: 5-bit class-1 codewords
		text[i] = hi<<16 | lo
	}
	return core.CompressWords("figure2", isa.TextBase, text)
}
