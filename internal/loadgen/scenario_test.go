package loadgen

import (
	"bytes"
	"encoding/json"
	"testing"
)

// take collects the first n requests of a stream.
func take(s Scenario, seed int64, n int) []Request {
	out := make([]Request, 0, n)
	for r := range s.Requests(seed) {
		out = append(out, r)
		if len(out) == n {
			break
		}
	}
	return out
}

// TestScenarioCatalogue pins the three scenarios the harness keeps.
func TestScenarioCatalogue(t *testing.T) {
	want := []string{"churn", "flashcrowd", "tenants"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("scenario names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scenario names = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		s, ok := ByName(name)
		if !ok || s.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, s, ok)
		}
		if s.Describe() == "" {
			t.Errorf("scenario %q has no description", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted an unknown scenario")
	}
}

// TestScenarioDeterminism: same seed ⇒ byte-identical request stream, for
// every scenario; a different seed must change the stream.
func TestScenarioDeterminism(t *testing.T) {
	const n = 40
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			a := take(s, 7, n)
			b := take(s, 7, n)
			if len(a) != n || len(b) != n {
				t.Fatalf("stream ended early: %d / %d of %d", len(a), len(b), n)
			}
			for i := range a {
				if a[i].Op != b[i].Op || a[i].Key != b[i].Key || !bytes.Equal(a[i].Body, b[i].Body) {
					t.Fatalf("request %d differs across identical seeds:\n%+v\n%+v", i, a[i], b[i])
				}
			}
			c := take(s, 8, n)
			same := true
			for i := range a {
				if !bytes.Equal(a[i].Body, c[i].Body) {
					same = false
					break
				}
			}
			if same {
				t.Fatal("seed change did not change the stream")
			}
			for i, r := range a {
				if !json.Valid(r.Body) {
					t.Fatalf("request %d body is not valid JSON: %s", i, r.Body)
				}
				switch r.Op {
				case "compress", "decompress", "verify", "simulate":
				default:
					t.Fatalf("request %d has unknown op %q", i, r.Op)
				}
			}
		})
	}
}

// TestChurnWarmPass: the churn scenario opens with every working-set
// program exactly once, then repeats only known keys — the property the
// cluster warm-hit-floor assertion relies on.
func TestChurnWarmPass(t *testing.T) {
	s, _ := ByName("churn")
	cs := s.(churn)
	reqs := take(s, 21, cs.corpus+32)
	seen := make(map[string]bool)
	for i := 0; i < cs.corpus; i++ {
		if reqs[i].Op != "compress" {
			t.Fatalf("churn request %d has op %q, want compress", i, reqs[i].Op)
		}
		if seen[reqs[i].Key] {
			t.Fatalf("churn repeated key %s inside the warm pass (i=%d)", reqs[i].Key, i)
		}
		seen[reqs[i].Key] = true
	}
	if len(seen) != cs.corpus {
		t.Fatalf("warm pass covered %d of %d programs", len(seen), cs.corpus)
	}
	for _, r := range reqs[cs.corpus:] {
		if !seen[r.Key] {
			t.Fatalf("steady state drew unknown key %s", r.Key)
		}
	}
}

// TestFlashcrowdHotDominates: one key takes ~95% of traffic.
func TestFlashcrowdHotDominates(t *testing.T) {
	s, _ := ByName("flashcrowd")
	const draws = 2000
	hot := 0
	for _, r := range take(s, 13, draws) {
		if r.Key == "hot" {
			hot++
		}
	}
	if frac := float64(hot) / draws; frac < 0.90 || frac > 0.99 {
		t.Fatalf("hot key drew %.1f%% of traffic, want 90%%..99%%", 100*frac)
	}
}

// TestTenantsScenarioShape: every request is labelled and keyed, the
// offered-load skew is ~10:1, and the specs the runner normalizes
// fairness with cover exactly the labels the stream emits.
func TestTenantsScenarioShape(t *testing.T) {
	s, _ := ByName("tenants")
	ts := s.(TenantScenario)
	specs := ts.Tenants()
	if len(specs) != 2 {
		t.Fatalf("tenants scenario declares %d tenants, want 2", len(specs))
	}
	counts := make(map[string]int)
	for _, r := range take(s, 19, 2200) {
		sp, ok := specs[r.Tenant]
		if !ok {
			t.Fatalf("request labelled with undeclared tenant %q", r.Tenant)
		}
		if got := r.Header["Authorization"]; got != "Bearer "+sp.Key {
			t.Fatalf("tenant %s request carries Authorization %q, want its declared key", r.Tenant, got)
		}
		counts[r.Tenant]++
	}
	heavy, light := counts[BenchTenantHeavy], counts[BenchTenantLight]
	if light == 0 {
		t.Fatal("light tenant sent nothing")
	}
	if ratio := float64(heavy) / float64(light); ratio < 6 || ratio > 16 {
		t.Fatalf("heavy:light offered-load ratio %.1f, want ~10", ratio)
	}
}
