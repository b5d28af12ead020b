package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"codepack/internal/loadgen"
)

// TestChurnClusterWarmFloor is the replication tier's load-level proof:
// three real cpackd processes at -replicas 2 serve the churn scenario
// while the harness crashes and gracefully stops members mid-run, and the
// warm-hit ratio — lookups served from a local or replica cache instead
// of a fresh compression — must stay above a floor. With one member down
// at a time and R=2, every digest keeps a live replica, so only the
// handful of entries written in a kill window may ever be recompressed.
func TestChurnClusterWarmFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster run takes ~10s")
	}
	var out, errs bytes.Buffer
	err := run([]string{
		"-cluster", "3", "-cluster-replicas", "2", "-churn-interval", "900ms",
		"-scenario", "churn",
		"-qps", "120", "-duration", "4s", "-warmup", "1s",
		"-seed", "21", "-json",
	}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errs.String())
	}
	var rep loadgen.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Scenario != "churn" || !strings.HasPrefix(rep.Config.Target, "cluster(") {
		t.Fatalf("report identity wrong: scenario=%q target=%q", rep.Scenario, rep.Config.Target)
	}
	if rep.Completed == 0 {
		t.Fatalf("no completed requests\nstderr:\n%s", errs.String())
	}
	// At least one member must actually have been stopped mid-run —
	// without churn the floor proves nothing.
	if !strings.Contains(errs.String(), "churn: member") {
		t.Fatalf("no churn rounds ran:\n%s", errs.String())
	}
	// In-flight requests to a dying member may fail at the transport
	// level; routing skips downed members, so failures must stay rare.
	if rep.TransportErrors*10 > rep.Completed {
		t.Fatalf("%d transport errors vs %d completed — churn routing is broken",
			rep.TransportErrors, rep.Completed)
	}
	if n := rep.Status5xx(); n != 0 {
		t.Fatalf("%d 5xx responses: %v", n, rep.ByOp)
	}
	if rep.Server == nil {
		t.Fatal("summed cluster metrics missing")
	}
	if rep.Server.CacheHits+rep.Server.CacheMisses == 0 {
		t.Fatalf("no cache activity recorded: %+v", rep.Server)
	}
	// The warm floor: after one pass over the 48-program working set,
	// repeats must be served warm even though members keep dying. A
	// single-node cache wiped this often could not hold this floor; the
	// replica walk and anti-entropy are what keep it up.
	if rep.Server.WarmRate < 0.5 {
		t.Fatalf("warm-hit ratio %.2f through churn, want >= 0.5: %+v\nstderr:\n%s",
			rep.Server.WarmRate, rep.Server, errs.String())
	}
	// Round-robin routing sends most requests to non-owners, so the warm
	// serving must include real cross-member traffic.
	if rep.Server.PeerHits == 0 {
		t.Fatalf("no peer-tier hits — the cluster never served cross-member: %+v", rep.Server)
	}
}
