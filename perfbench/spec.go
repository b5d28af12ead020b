package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
)

// Spec is BENCHMARK.json: the workloads the benchmark runs and the metrics
// it reports, with the bound by which each end-to-end metric may worsen
// before a change counts as a regression.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []SpecMetric   `json:"end_to_end"`
	PerLayer   []SpecMetric   `json:"per_layer"`
}

// SpecWorkload names one workload and records why it is in the benchmark.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// SpecMetric declares one metric. Bound is set on end-to-end metrics only:
// the share of the baseline median by which the metric may worsen.
type SpecMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec reads and validates the spec at path.
func loadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSpec(b)
}

func parseSpec(b []byte) (*Spec, error) {
	if len(b) > 64<<10 {
		return nil, fmt.Errorf("spec is %d bytes, over 64 KiB", len(b))
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parse spec: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("parse spec: trailing data after the object")
	}
	return &s, s.validate()
}

func (s *Spec) validate() error {
	switch {
	case len(s.Command) == 0 || len(s.Command) > 32:
		return fmt.Errorf("command has %d strings, want 1 to 32", len(s.Command))
	case len(s.Paths) == 0 || len(s.Paths) > 16:
		return fmt.Errorf("paths has %d entries, want 1 to 16", len(s.Paths))
	case s.RunSeconds < 1 || s.RunSeconds > 60:
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	case len(s.Workloads) < 2 || len(s.Workloads) > 8:
		return fmt.Errorf("%d workloads, want 2 to 8", len(s.Workloads))
	case len(s.EndToEnd) == 0 || len(s.EndToEnd) > 16:
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", len(s.EndToEnd))
	case len(s.PerLayer) == 0 || len(s.PerLayer) > 128:
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", len(s.PerLayer))
	}
	seen := map[string]bool{}
	unique := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := unique(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	setup := false
	for i, m := range append(append([]SpecMetric{}, s.EndToEnd...), s.PerLayer...) {
		if err := unique(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, got %q", m.Name, m.Better)
		}
		endToEnd := i < len(s.EndToEnd)
		switch {
		case endToEnd && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
			return fmt.Errorf("metric %s: end-to-end bound must be in (0, 0.25]", m.Name)
		case !endToEnd && m.Bound != nil:
			return fmt.Errorf("metric %s: per-layer metrics carry no bound", m.Name)
		}
		if endToEnd && m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end must declare setup_s in s, lower is better")
	}
	return nil
}

// writeList prints each workload's reason and each metric's unit,
// direction and bound.
func (s *Spec) writeList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range s.Workloads {
		fmt.Fprintf(w, "  %-13s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (--trace 0):")
	for _, m := range s.EndToEnd {
		fmt.Fprintf(w, "  %-13s %-6s %s is better, bound %.0f%%\n", m.Name, m.Unit, m.Better, 100**m.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (--trace 1):")
	for _, m := range s.PerLayer {
		fmt.Fprintf(w, "  %-34s %-8s %s is better\n", m.Name, m.Unit, m.Better)
	}
}
