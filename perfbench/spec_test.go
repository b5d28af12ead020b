package main

import (
	"os"
	"strings"
	"testing"
)

// TestBenchmarkSpec guards BENCHMARK.json: it parses, its names and
// counts are within the limits, and every workload it declares is one
// this command implements.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.EndToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics, want at most 16", n)
	}
	if n := len(spec.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, want at most 128", n)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	for _, p := range spec.Paths {
		if st, err := os.Stat("../" + p); err != nil || !st.IsDir() {
			t.Errorf("path %s is not a directory of the repository", p)
		}
	}
}

func TestSpecRejects(t *testing.T) {
	valid, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, old, new, want string
	}{
		{"bad metric name", `"p50_ms"`, `"p50 ms"`, "does not match"},
		{"duplicate name", `"cpu_ms_per_req"`, `"p50_ms"`, "used twice"},
		{"bound too loose", `"bound": 0.25`, `"bound": 0.5`, "bound"},
		{"no setup metric", `"setup_s"`, `"boot_s"`, "setup_s"},
		{"unknown key", `"run_seconds"`, `"run_secs"`, "unknown field"},
		{"bad unit", `"unit": "MB"`, `"unit": "mega bytes"`, "unit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := strings.Replace(string(valid), tc.old, tc.new, 1)
			if b == string(valid) {
				t.Fatalf("spec has no %s to replace", tc.old)
			}
			_, err := parseSpec([]byte(b))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}
