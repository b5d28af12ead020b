// Package harness wires workloads, architectures and fetch models into the
// paper's experiments: one function per table or figure, each returning a
// rendered Table plus the raw values tests assert against.
//
// BenchContext is the one cancellable entry point: the server resolves
// benchmark refs through it under each request's context.
package harness

import (
	"context"
	"fmt"
	"sync"

	"codepack/internal/core"
	"codepack/internal/cpu"
	"codepack/internal/program"
	"codepack/internal/workload"
)

// DefaultMaxInstr is the committed-instruction budget per simulation. The
// paper runs each benchmark past 10^9 instructions; every reported metric
// is a rate, so a few million instructions reach the same steady state
// (see EXPERIMENTS.md).
const DefaultMaxInstr = 2_000_000

// Bench is a generated benchmark with its compressed form.
type Bench struct {
	Profile workload.Profile
	Image   *program.Image
	Comp    *core.Compressed
}

// benchEntry is one lazily-built benchmark slot. The per-entry once lets
// distinct benchmarks generate concurrently (the server fans requests over
// the suite) while each is still built exactly once.
type benchEntry struct {
	once sync.Once
	b    *Bench
	err  error
}

// Suite caches generated benchmarks and runs simulations. It is safe for
// concurrent use.
type Suite struct {
	// MaxInstr caps committed instructions per run (0 = DefaultMaxInstr).
	MaxInstr uint64

	mu      sync.Mutex
	benches map[string]*benchEntry
}

// NewSuite creates a suite with the given per-run instruction budget
// (0 uses DefaultMaxInstr).
func NewSuite(maxInstr uint64) *Suite {
	if maxInstr == 0 {
		maxInstr = DefaultMaxInstr
	}
	return &Suite{MaxInstr: maxInstr, benches: make(map[string]*benchEntry)}
}

// Bench returns the named benchmark, generating and compressing it on first
// use.
func (s *Suite) Bench(name string) (*Bench, error) {
	return s.BenchContext(context.Background(), name)
}

// BenchContext is Bench with cancellation. Generation itself is bounded
// work and runs to completion once started; the context gates entry so a
// cancelled request never kicks off a build it won't use.
func (s *Suite) BenchContext(ctx context.Context, name string) (*Bench, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	e, ok := s.benches[name]
	if !ok {
		e = &benchEntry{}
		s.benches[name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.b, e.err = buildBench(name) })
	return e.b, e.err
}

func buildBench(name string) (*Bench, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown benchmark %q", name)
	}
	im, err := workload.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("harness: generate %s: %w", name, err)
	}
	comp, err := core.Compress(im)
	if err != nil {
		return nil, fmt.Errorf("harness: compress %s: %w", name, err)
	}
	return &Bench{Profile: p, Image: im, Comp: comp}, nil
}

// All returns every benchmark in paper order.
func (s *Suite) All() ([]*Bench, error) {
	var out []*Bench
	for _, p := range workload.Profiles() {
		b, err := s.Bench(p.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// Run simulates bench on cfg with the given fetch model, reusing the cached
// compressed image.
func (s *Suite) Run(b *Bench, cfg cpu.Config, model cpu.FetchModel) (cpu.Result, error) {
	if model.Kind == cpu.FetchCodePack && model.Comp == nil {
		model.Comp = b.Comp
	}
	return cpu.Simulate(b.Image, cfg, model, s.MaxInstr)
}

// runPair runs native and one compressed model and returns both results.
func (s *Suite) runPair(b *Bench, cfg cpu.Config, model cpu.FetchModel) (native, comp cpu.Result, err error) {
	native, err = s.Run(b, cfg, cpu.NativeModel())
	if err != nil {
		return
	}
	comp, err = s.Run(b, cfg, model)
	return
}
