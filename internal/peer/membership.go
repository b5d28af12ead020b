package peer

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// MemberState is one member's position in the failure-detection
// lifecycle. Alive and Suspect members stay in the ring (a suspect is
// probably a network blip); Dead and Left members are out of the ring
// but remembered as tombstones so the verdict keeps gossiping.
type MemberState uint8

const (
	StateAlive MemberState = iota
	StateSuspect
	StateDead
	StateLeft
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// MarshalJSON renders the state as its name; the wire format stays
// debuggable and an unknown numeric state can never enter via JSON.
func (s MemberState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

func (s *MemberState) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "alive":
		*s = StateAlive
	case "suspect":
		*s = StateSuspect
	case "dead":
		*s = StateDead
	case "left":
		*s = StateLeft
	default:
		return fmt.Errorf("peer: unknown member state %q", name)
	}
	return nil
}

// inRing reports whether a member in this state owns ring arcs.
func (s MemberState) inRing() bool { return s == StateAlive || s == StateSuspect }

// MemberInfo is one member's gossiped record: who, which incarnation,
// and what the sender believes about it. Comparable across instances:
// higher Generation always wins; at equal Generation the more final
// state wins (left > dead > suspect > alive), so a verdict cannot be
// un-decided except by a fresh incarnation.
type MemberInfo struct {
	URL        string      `json:"url"`
	Generation uint64      `json:"generation"`
	State      MemberState `json:"state"`
}

// supersedes reports whether record a beats record b under the
// generation/state ordering.
func (a MemberInfo) supersedes(b MemberInfo) bool {
	if a.Generation != b.Generation {
		return a.Generation > b.Generation
	}
	return a.State > b.State
}

// Membership defaults, shared by the live Cluster and the simulator.
const (
	DefaultHeartbeatInterval = 1 * time.Second
	DefaultSuspectAfter      = 3 * time.Second
	DefaultDeadAfter         = 10 * time.Second
	DefaultReapAfter         = 10 * time.Minute
	DefaultGossipFanout      = 3
)

// MembershipConfig parameterizes the failure-detection timeouts. The
// zero value picks the defaults above; Now is injectable so the
// simulation harness can drive the state machine on a virtual clock.
type MembershipConfig struct {
	// SuspectAfter is how long a member may go unheard before it is
	// suspected; DeadAfter (measured from the same last contact) is when
	// a suspect is declared dead and leaves the ring.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// ReapAfter is how long a dead or left tombstone is remembered
	// (long enough to gossip the verdict everywhere; a rejoining member
	// supersedes its tombstone by incarnation, not by reaping).
	ReapAfter time.Duration
	// Now is the clock (nil = time.Now).
	Now func() time.Time
}

func (c MembershipConfig) withDefaults() MembershipConfig {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = DefaultSuspectAfter
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + DefaultDeadAfter - DefaultSuspectAfter
	}
	if c.ReapAfter <= 0 {
		c.ReapAfter = DefaultReapAfter
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// memberRecord is one member's live state plus failure-detector
// bookkeeping.
type memberRecord struct {
	info      MemberInfo
	lastHeard time.Time // last direct or gossiped evidence of life
	since     time.Time // when the record entered its current state
}

// Membership is the cluster membership state machine: the set of known
// members, their incarnation numbers and lifecycle states, and the
// suspect/dead timeouts that turn silence into ring changes. It is the
// deterministic core of dynamic membership — the live Cluster drives it
// from HTTP heartbeats and real time, the simulation harness from an
// in-memory transport and a virtual clock.
//
// Version() is the ring epoch: it increments exactly when the set of
// ring members (alive + suspect) changes, so callers can cheaply detect
// when to rebuild the ring and re-run anti-entropy.
type Membership struct {
	cfg MembershipConfig

	mu      sync.Mutex
	self    string
	selfGen uint64
	left    bool
	members map[string]*memberRecord // excluding self
	version uint64                   // ring epoch: bumped on ring-set changes
}

// NewMembership builds a membership view containing only self, alive at
// generation 1.
func NewMembership(self string, cfg MembershipConfig) *Membership {
	return &Membership{
		cfg:     cfg.withDefaults(),
		self:    self,
		selfGen: 1,
		members: make(map[string]*memberRecord),
		version: 1,
	}
}

// AddSeed registers a configured seed as an alive member at generation
// zero: any real gossip about it supersedes, and if it never answers it
// ages through suspect to dead like anyone else.
func (m *Membership) AddSeed(url string) {
	if url == m.self {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.members[url]; ok {
		return
	}
	now := m.cfg.Now()
	m.members[url] = &memberRecord{
		info:      MemberInfo{URL: url, Generation: 0, State: StateAlive},
		lastHeard: now,
		since:     now,
	}
	m.version++
}

// Self returns this member's URL.
func (m *Membership) Self() string { return m.self }

// SelfInfo returns this member's own gossip record.
func (m *Membership) SelfInfo() MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.selfInfoLocked()
}

func (m *Membership) selfInfoLocked() MemberInfo {
	st := StateAlive
	if m.left {
		st = StateLeft
	}
	return MemberInfo{URL: m.self, Generation: m.selfGen, State: st}
}

// Version is the ring epoch: it changes exactly when Live() changes.
func (m *Membership) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
}

// Live returns the sorted ring-member URLs: self (unless left) plus
// every member currently alive or suspect.
func (m *Membership) Live() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.members)+1)
	if !m.left {
		out = append(out, m.self)
	}
	for url, rec := range m.members {
		if rec.info.State.inRing() {
			out = append(out, url)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns the full gossip view — self plus every known member
// including tombstones — sorted by URL.
func (m *Membership) Snapshot() []MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberInfo, 0, len(m.members)+1)
	out = append(out, m.selfInfoLocked())
	for _, rec := range m.members {
		out = append(out, rec.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// State reports a member's current state (self included).
func (m *Membership) State(url string) (MemberState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if url == m.self {
		return m.selfInfoLocked().State, true
	}
	rec, ok := m.members[url]
	if !ok {
		return 0, false
	}
	return rec.info.State, true
}

// Merge folds a gossiped view into the local one under the
// generation/state ordering and reports whether the ring membership
// changed. Gossip about self that is not "alive at my incarnation or
// older" is refuted by bumping the local generation past it — a
// rejoining member supersedes its own tombstone this way.
func (m *Membership) Merge(infos []MemberInfo) (changed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, in := range infos {
		if in.URL == "" {
			continue
		}
		if in.URL == m.self {
			if m.left {
				continue // we said left and mean it
			}
			if in.Generation > m.selfGen ||
				(in.Generation == m.selfGen && in.State != StateAlive) {
				// Someone is spreading stale or damning news about us;
				// out-bid it with a fresh incarnation.
				m.selfGen = in.Generation + 1
			}
			continue
		}
		if m.applyLocked(in) {
			changed = true
		}
	}
	if changed {
		m.version++
	}
	return changed
}

// applyLocked merges one remote record and reports a ring-set change.
func (m *Membership) applyLocked(in MemberInfo) bool {
	now := m.cfg.Now()
	rec, ok := m.members[in.URL]
	if !ok {
		m.members[in.URL] = &memberRecord{info: in, lastHeard: now, since: now}
		return in.State.inRing()
	}
	if !in.supersedes(rec.info) {
		// Old news, alive-at-current-incarnation included: relayed alive
		// records are NOT evidence of life, or partitioned nodes would
		// keep vouching for each other's stale views and nothing would
		// ever age out. Only direct contact (ObserveAlive) resets the
		// detector; only a fresh incarnation refutes suspicion.
		return false
	}
	wasRing := rec.info.State.inRing()
	rec.info = in
	rec.since = now
	if in.State == StateAlive {
		rec.lastHeard = now
	}
	return wasRing != in.State.inRing()
}

// ObserveAlive records direct evidence of life (a request to the member
// answered) — the failure detector's last-heard clock resets, and a
// suspect is re-admitted as alive.
func (m *Membership) ObserveAlive(url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.members[url]
	if !ok || !rec.info.State.inRing() {
		return // dead members only come back by incarnation, via Merge
	}
	rec.lastHeard = m.cfg.Now()
	if rec.info.State == StateSuspect {
		rec.info.State = StateAlive
		rec.since = rec.lastHeard
	}
}

// ObserveSuspect accelerates suspicion on direct evidence of trouble —
// the peer's circuit breaker opening. The member keeps its ring arcs
// (it may just be slow); only the dead timeout removes it.
func (m *Membership) ObserveSuspect(url string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.members[url]
	if !ok || rec.info.State != StateAlive {
		return
	}
	now := m.cfg.Now()
	// Backdate lastHeard so the dead timeout runs from the breaker
	// opening, not from whenever gossip last vouched for the member.
	if cutoff := now.Add(-m.cfg.SuspectAfter); rec.lastHeard.After(cutoff) {
		rec.lastHeard = cutoff
	}
	rec.info.State = StateSuspect
	rec.since = now
}

// Tick advances the failure detector: unheard alives become suspect,
// overdue suspects become dead (a ring change), and stale tombstones
// are reaped. Returns whether the ring membership changed.
func (m *Membership) Tick() (changed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Now()
	for url, rec := range m.members {
		silent := now.Sub(rec.lastHeard)
		switch rec.info.State {
		case StateAlive:
			if silent >= m.cfg.SuspectAfter {
				rec.info.State = StateSuspect
				rec.since = now
			}
		case StateSuspect:
			if silent >= m.cfg.DeadAfter {
				// Dead at generation g beats alive at g by state
				// precedence; only a fresh incarnation revives the member.
				rec.info.State = StateDead
				rec.since = now
				changed = true
			}
		case StateDead, StateLeft:
			if now.Sub(rec.since) >= m.cfg.ReapAfter {
				delete(m.members, url)
			}
		}
	}
	if changed {
		m.version++
	}
	return changed
}

// Leave marks self as departed at a fresh incarnation and returns the
// final view to announce. Live() no longer includes self.
func (m *Membership) Leave() []MemberInfo {
	m.mu.Lock()
	if !m.left {
		m.left = true
		m.selfGen++
		m.version++
	}
	m.mu.Unlock()
	return m.Snapshot()
}

// NonRing returns known members currently outside the ring (dead or
// left tombstones), sorted — reconnection probes pick from these so a
// healed partition can be rediscovered.
func (m *Membership) NonRing() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for url, rec := range m.members {
		if !rec.info.State.inRing() {
			out = append(out, url)
		}
	}
	sort.Strings(out)
	return out
}
