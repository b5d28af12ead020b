package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkSmoke runs every workload for one second in both modes
// against a freshly built cpackd and checks that every declared metric is
// printed with its unit and that the summary line is well formed.
func TestBenchmarkSmoke(t *testing.T) {
	specPath, err := filepath.Abs("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cpackd")
	if out, err := exec.Command("go", "build", "-o", bin, "codepack/cmd/cpackd").CombinedOutput(); err != nil {
		t.Fatalf("build cpackd: %v\n%s", err, out)
	}
	// The command keeps its scratch files under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	for trace, declared := range map[string][]SpecMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"-bench", specPath, "-cpackd", bin, "-seconds", "1", "-trace", trace, "-out", "report.json"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		printed := map[string]string{}
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) == 4 {
				printed[f[0]+" "+f[1]] = f[3]
			}
		}
		for _, w := range spec.Workloads {
			for _, m := range declared {
				if unit, ok := printed[w.Name+" "+m.Name]; !ok || unit != m.Unit {
					t.Errorf("trace %s: %s %s printed with unit %q, want %q", trace, w.Name, m.Name, unit, m.Unit)
				}
			}
		}
		var summary struct {
			Correct   *bool                      `json:"correct"`
			Attempted *int                       `json:"attempted"`
			Failed    *int                       `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&summary); err != nil {
			t.Fatalf("trace %s: summary line: %v", trace, err)
		}
		if summary.Correct == nil || !*summary.Correct || *summary.Attempted < 1 || *summary.Failed != 0 ||
			len(summary.Metrics) != len(declared)*len(spec.Workloads) {
			t.Errorf("trace %s: summary %s", trace, lines[len(lines)-1])
		}
		report, err := os.ReadFile("report.json")
		if err != nil || !bytes.Contains(report, []byte(`"cpu_model"`)) {
			t.Errorf("trace %s: report lacks the host fingerprint: %v", trace, err)
		}
		if trace == "1" {
			var doc struct{ Results []result }
			if err := json.Unmarshal(report, &doc); err != nil {
				t.Fatal(err)
			}
			// The replay's LRU model must see the hits and misses the
			// server's cache saw.
			for _, r := range doc.Results {
				if d := r.Metrics["replay.hit_rate"] - r.Metrics["server.cache.hit_rate"]; d < -0.02 || d > 0.02 {
					t.Errorf("%s: replay hit rate %.3f, server %.3f", r.Workload,
						r.Metrics["replay.hit_rate"], r.Metrics["server.cache.hit_rate"])
				}
			}
		}
	}
}
