package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The pinned fault schedules below (partition, crash/restart,
// duplication, join, impostors, the R=2 set, the quarantine race and
// the determinism guards) run the cluster simulator (simworld_test.go)
// and are the acceptance gate of `make sim-smoke` under -race: after
// each schedule the cluster must converge to one ring view and serve
// every previously compressed digest warm — zero recompressions — with
// the verification invariants intact.

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://n%d:1", i)
	}
	return out
}

// settleAndCheck converges the world and asserts the warm-serve and
// verification properties.
func settleAndCheck(t *testing.T, w *World) {
	t.Helper()
	if err := w.Settle(120); err != nil {
		t.Fatal(err)
	}
	recomp, err := w.CheckWarm()
	if err != nil {
		t.Fatal(err)
	}
	if recomp != 0 {
		t.Errorf("post-convergence GETs paid %d recompressions, want 0", recomp)
	}
	st := w.Stats()
	if st.UnverifiedServed != 0 || st.WrongServed != 0 {
		t.Errorf("verification invariants violated: %+v", st)
	}
}

// TestSimPartitionConverges: five nodes split 2/3, both sides keep
// serving and declare the other side dead; after the heal the ring
// re-merges by incarnation refutation and every digest compressed on
// either side — before or during the partition — is served warm.
func TestSimPartitionConverges(t *testing.T) {
	nodes := nodeNames(5)
	w := newWorld(t, 1, simConfig{Nodes: nodes, DropProb: 0.05})
	w.Boot()
	w.Run(8 * time.Second)
	if !w.Converged() {
		t.Fatal("cluster did not form before the fault schedule")
	}

	for i, d := range w.digests("pre", 12) {
		w.Compress(nodes[i%len(nodes)], d)
	}
	w.Run(2 * time.Second)

	w.Partition(nodes[:2], nodes[2:])
	w.Run(15 * time.Second) // past DeadAfter: both sides shrink their rings
	for _, url := range nodes[:2] {
		if len(w.Live(url)) != 2 {
			t.Errorf("minority side %s sees ring %v, want the 2-node island", url, w.Live(url))
		}
	}
	for _, url := range nodes[2:] {
		if len(w.Live(url)) != 3 {
			t.Errorf("majority side %s sees ring %v, want the 3-node island", url, w.Live(url))
		}
	}
	// Both islands keep taking writes against their shrunken rings.
	for i, d := range w.digests("minority", 6) {
		w.Compress(nodes[i%2], d)
	}
	for i, d := range w.digests("majority", 6) {
		w.Compress(nodes[2+i%3], d)
	}
	w.Run(2 * time.Second)

	settleAndCheck(t, w)
	if got := w.Live(nodes[0]); len(got) != 5 {
		t.Errorf("healed ring = %v, want all 5 members", got)
	}
	// Per-node observability: a schedule this busy must show every node
	// gossiping, and the compressed digests must have moved — someone
	// replicated, someone quarantined.
	var repls, quars int
	for _, url := range nodes {
		ns := w.NodeStats(url)
		if ns.HeartbeatsSent == 0 {
			t.Errorf("node %s sent no heartbeats", url)
		}
		if ns.AEPasses == 0 {
			t.Errorf("node %s ran no anti-entropy passes", url)
		}
		repls += ns.ReplicationsSent
		quars += ns.Quarantines
	}
	if repls == 0 || quars == 0 {
		t.Errorf("node stats show no replication traffic: sent=%d quarantined=%d", repls, quars)
	}
}

// TestSimCrashRestartConverges: one node bounces fast (suspect window),
// another stays down long enough to be declared dead and rejoins from
// its tombstone; durable entries survive both, nothing is recompressed.
func TestSimCrashRestartConverges(t *testing.T) {
	nodes := nodeNames(4)
	w := newWorld(t, 2, simConfig{Nodes: nodes, DropProb: 0.05})
	w.Boot()
	w.Run(8 * time.Second)

	for i, d := range w.digests("seed", 10) {
		w.Compress(nodes[i%len(nodes)], d)
	}
	w.Run(2 * time.Second)

	// Fast bounce: down for one suspect window, never declared dead.
	w.Crash(nodes[1])
	w.Run(4 * time.Second)
	w.Restart(nodes[1])
	w.Run(4 * time.Second)

	// Slow bounce: the fleet declares the node dead, rebalances, keeps
	// compressing; the node then rejoins over its own tombstone.
	w.Crash(nodes[2])
	w.Run(15 * time.Second)
	for _, url := range []string{nodes[0], nodes[1], nodes[3]} {
		if got := w.Live(url); len(got) != 3 {
			t.Errorf("%s still sees %v after the dead timeout", url, got)
		}
	}
	for i, d := range w.digests("while-down", 6) {
		w.Compress(nodes[[3]int{0, 1, 3}[i%3]], d)
	}
	w.Run(2 * time.Second)
	w.Restart(nodes[2])

	settleAndCheck(t, w)
}

// TestSimDuplicationConverges: heavy duplication and moderate loss on
// every gossip round trip — merges and replication puts must be
// idempotent for the ring to stay consistent.
func TestSimDuplicationConverges(t *testing.T) {
	nodes := nodeNames(4)
	w := newWorld(t, 3, simConfig{Nodes: nodes, DropProb: 0.15, DupProb: 0.4})
	w.Boot()
	w.Run(10 * time.Second)
	for round := 0; round < 4; round++ {
		for i, d := range w.digests(fmt.Sprintf("dup%d", round), 5) {
			w.Compress(nodes[(round+i)%len(nodes)], d)
		}
		w.Run(3 * time.Second)
	}
	if w.Stats().Duplicated == 0 {
		t.Fatal("duplication schedule delivered no duplicates; faults not exercised")
	}
	settleAndCheck(t, w)
}

// TestSimDynamicJoin: a third node boots into a running two-node
// cluster knowing only one seed; the ring rebalances and the joiner
// serves previously compressed digests warm.
func TestSimDynamicJoin(t *testing.T) {
	nodes := nodeNames(3)
	w := newWorld(t, 4, simConfig{
		Nodes: nodes,
		Seeds: map[string][]string{
			nodes[0]: {nodes[1]},
			nodes[1]: {nodes[0]},
			nodes[2]: {nodes[0]}, // the joiner knows a single seed
		},
	})
	w.nodes[nodes[0]].start()
	w.nodes[nodes[1]].start()
	w.Run(5 * time.Second)
	for i, d := range w.digests("two", 10) {
		w.Compress(nodes[i%2], d)
	}
	w.Run(2 * time.Second)

	w.Restart(nodes[2]) // first boot: joins via its one seed
	settleAndCheck(t, w)
	if got := w.Live(nodes[2]); len(got) != 3 {
		t.Errorf("joiner's ring = %v, want 3 members", got)
	}
}

// TestSimImpostorNeverServesUnverified: corrupt payloads pushed into
// quarantine ahead of the real ones can cost recompressions but can
// never be served — the verification invariants hold under settle and
// a full warm check.
func TestSimImpostorNeverServesUnverified(t *testing.T) {
	nodes := nodeNames(3)
	w := newWorld(t, 5, simConfig{Nodes: nodes})
	w.Boot()
	w.Run(6 * time.Second)

	ds := w.digests("imp", 8)
	for i, d := range ds {
		// Poison every node first, then compress for real somewhere.
		for _, url := range nodes {
			w.InjectCorrupt(url, d)
		}
		w.Compress(nodes[i%len(nodes)], d)
	}
	w.Run(2 * time.Second)

	if err := w.Settle(120); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CheckWarm(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.UnverifiedServed != 0 || st.WrongServed != 0 {
		t.Errorf("impostor schedule violated verification invariants: %+v", st)
	}
}

// TestSimReplicatedCrashZeroRecompressions is the R=2 acceptance
// schedule: with two replicas per digest, a single-node crash costs zero
// recompressions — both in the immediate window before the failure
// detector reacts (fetches fall through to the surviving replica) and
// after the ring rebalances.
func TestSimReplicatedCrashZeroRecompressions(t *testing.T) {
	nodes := nodeNames(5)
	w := newWorld(t, 7, simConfig{Nodes: nodes, ReplicationFactor: 2})
	w.Boot()
	w.Run(8 * time.Second)
	if !w.Converged() {
		t.Fatal("cluster did not form before the fault schedule")
	}

	ds := w.digests("r2", 12)
	for i, d := range ds {
		w.Compress(nodes[i%len(nodes)], d)
	}
	w.Run(2 * time.Second) // async replication fills both owners
	if err := w.CheckReplication(); err != nil {
		t.Fatalf("replication did not reach both owners before the crash: %v", err)
	}

	// Crash a node that is primary owner for some of the digests, so the
	// surviving-replica walk is actually exercised.
	ring := w.nodes[nodes[0]].ring
	victim := ""
	for _, d := range ds {
		if o := ring.Owners(d, 2)[0]; o != "" {
			victim = o
			break
		}
	}
	if victim == "" {
		t.Fatal("degenerate placement: no digest has a primary owner")
	}
	base := w.Stats().Recompressions
	w.Crash(victim)

	// Before any suspicion: every digest is still served warm on every
	// survivor, riding past the dead primary to its replica where needed.
	for _, url := range nodes {
		if url == victim {
			continue
		}
		for _, d := range ds {
			w.Compress(url, d)
		}
	}
	if got := w.Stats().Recompressions - base; got != 0 {
		t.Errorf("reads through the crash paid %d recompressions, want 0", got)
	}
	var fallthroughs int
	for _, url := range nodes {
		fallthroughs += w.NodeStats(url).ReplicaFallthroughs
	}
	if fallthroughs == 0 {
		t.Error("no fetch fell through to a surviving replica; schedule exercised nothing")
	}

	// After the ring rebalances to four members, the warm property and
	// full replica placement both hold with the node still down.
	settleAndCheck(t, w)
	if err := w.CheckReplication(); err != nil {
		t.Error(err)
	}
}

// TestSimReplicatedPartitionBoundedStaleness: staleness through a
// partition is bounded by placement — a read on a side holding at least
// one replica is warm, a read on a side holding none pays exactly one
// recompression, and after the heal everything reconverges to full
// replication.
func TestSimReplicatedPartitionBoundedStaleness(t *testing.T) {
	nodes := nodeNames(5)
	w := newWorld(t, 8, simConfig{Nodes: nodes, ReplicationFactor: 2})
	w.Boot()
	w.Run(8 * time.Second)
	if !w.Converged() {
		t.Fatal("cluster did not form before the fault schedule")
	}
	ds := w.digests("ps", 12)
	for i, d := range ds {
		w.Compress(nodes[i%len(nodes)], d)
	}
	w.Run(2 * time.Second)
	if err := w.CheckReplication(); err != nil {
		t.Fatalf("replication did not complete before the partition: %v", err)
	}

	// Classify each digest by whether the majority side holds a replica.
	ring := w.nodes[nodes[2]].ring
	maj := map[string]bool{nodes[2]: true, nodes[3]: true, nodes[4]: true}
	var withReplica, without []string
	for _, d := range ds {
		in := false
		for _, o := range ring.Owners(d, 2) {
			if maj[o] {
				in = true
				break
			}
		}
		if in {
			withReplica = append(withReplica, d)
		} else {
			without = append(without, d)
		}
	}
	if len(withReplica) == 0 || len(without) == 0 {
		t.Fatalf("degenerate placement for this seed: %d with, %d without an in-side replica",
			len(withReplica), len(without))
	}

	w.Partition(nodes[:2], nodes[2:])
	w.Run(time.Second) // inside the suspect window: the ring still spans the cut

	before := w.Stats().Recompressions
	for _, d := range withReplica {
		w.Compress(nodes[2], d)
	}
	if got := w.Stats().Recompressions - before; got != 0 {
		t.Errorf("partition reads with an in-side replica paid %d recompressions, want 0", got)
	}
	before = w.Stats().Recompressions
	want := 0
	for _, d := range without {
		if !w.nodes[nodes[3]].holds(d) {
			want++ // both replicas across the cut and no local copy: one recompression
		}
		w.Compress(nodes[3], d)
	}
	if got := w.Stats().Recompressions - before; got != want {
		t.Errorf("partition reads without an in-side replica paid %d recompressions, want %d", got, want)
	}

	// Both shrunken islands keep taking writes, then the heal restores
	// one ring with full replication.
	w.Run(15 * time.Second)
	for i, d := range w.digests("ps-min", 4) {
		w.Compress(nodes[i%2], d)
	}
	for i, d := range w.digests("ps-maj", 4) {
		w.Compress(nodes[2+i%3], d)
	}
	w.Run(2 * time.Second)
	settleAndCheck(t, w)
	if err := w.CheckReplication(); err != nil {
		t.Error(err)
	}
}

// TestSimEventLogDeterminism is the sim-smoke determinism guard: the
// same seed and schedule yield a byte-identical event log, so any
// failing schedule replays exactly.
func TestSimEventLogDeterminism(t *testing.T) {
	run := func() string {
		nodes := nodeNames(4)
		w := newWorld(t, 11, simConfig{Nodes: nodes, ReplicationFactor: 2, DropProb: 0.1, DupProb: 0.2})
		w.Boot()
		w.Run(6 * time.Second)
		for i, d := range w.digests("log", 8) {
			w.Compress(nodes[i%len(nodes)], d)
		}
		w.Partition(nodes[:1], nodes[1:])
		w.Run(12 * time.Second)
		w.Crash(nodes[2])
		w.Run(3 * time.Second)
		w.Restart(nodes[2])
		if err := w.Settle(120); err != nil {
			t.Fatal(err)
		}
		if _, err := w.CheckWarm(); err != nil {
			t.Fatal(err)
		}
		return w.EventLog()
	}
	first, second := run(), run()
	if first != second {
		t.Error("event logs diverged across identical seeds")
	}
	for _, want := range []string{"start ", "crash ", "partition ", "heal", "ring ", "recompress "} {
		if !strings.Contains(first, want) {
			t.Errorf("event log records no %q events", want)
		}
	}
}

// TestSimDeterminism: the same seed replays the same world — stats and
// final views are bit-identical, so any failing schedule is a repro.
func TestSimDeterminism(t *testing.T) {
	run := func() (simStats, [][]string) {
		nodes := nodeNames(4)
		w := newWorld(t, 42, simConfig{Nodes: nodes, DropProb: 0.2, DupProb: 0.2})
		w.Boot()
		w.Run(5 * time.Second)
		for i, d := range w.digests("det", 8) {
			w.Compress(nodes[i%len(nodes)], d)
		}
		w.Partition(nodes[:1], nodes[1:])
		w.Run(12 * time.Second)
		w.Crash(nodes[3])
		w.Run(3 * time.Second)
		w.Restart(nodes[3])
		if err := w.Settle(120); err != nil {
			t.Fatal(err)
		}
		views := make([][]string, len(nodes))
		for i, url := range nodes {
			views[i] = w.Live(url)
		}
		return w.Stats(), views
	}
	s1, v1 := run()
	s2, v2 := run()
	if s1 != s2 {
		t.Errorf("stats diverged across identical seeds:\n%+v\n%+v", s1, s2)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Errorf("final views diverged across identical seeds:\n%v\n%v", v1, v2)
	}
}

// TestSimQuarantineRace: impostor payloads land at random offsets inside
// client requests — between a node's lookup and its put — at the
// requesting node and at a random one, and one node crashes inside a
// request and restarts a few requests later. Whatever the interleaving,
// no client is ever served a wrong or unverified payload, before or
// after the cluster settles: a put over a quarantined impostor installs
// its own proven payload, and a quarantined impostor never comes back
// from disk as verified.
func TestSimQuarantineRace(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			nodes := nodeNames(4)
			w := newWorld(t, seed, simConfig{Nodes: nodes, ReplicationFactor: 2})
			w.Boot()
			w.Run(6 * time.Second)
			victim := nodes[w.rng.Intn(len(nodes))]
			inside := func() time.Duration { return time.Duration(w.rng.Int63n(int64(4 * simMaxDelay))) }
			ds := w.digests("race", 16)
			for i, d := range ds {
				url := nodes[i%len(nodes)]
				for _, target := range []string{url, nodes[w.rng.Intn(len(nodes))]} {
					w.schedule(inside(), func() { w.InjectCorrupt(target, d) })
				}
				switch i {
				case len(ds) / 2:
					w.schedule(inside(), func() { w.Crash(victim) })
				case 3 * len(ds) / 4:
					w.schedule(inside(), func() { w.Restart(victim) })
				}
				w.Compress(url, d)
			}
			w.Run(2 * time.Second)
			if !w.nodes[victim].up {
				w.Restart(victim)
			}
			if err := w.Settle(120); err != nil {
				t.Fatal(err)
			}
			if _, err := w.CheckWarm(); err != nil {
				t.Fatal(err)
			}
			if st := w.Stats(); st.UnverifiedServed != 0 || st.WrongServed != 0 {
				t.Errorf("quarantine race violated verification invariants: %+v", st)
			}
		})
	}
}
