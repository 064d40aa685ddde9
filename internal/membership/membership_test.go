package membership

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"terradir/internal/core"
)

// hub is an in-memory message fabric for membership services: delivery by
// server ID or by address, with per-direction link cuts and downed members,
// so SWIM scenarios run without sockets or the overlay.
type hub struct {
	mu     sync.Mutex
	svcs   map[core.ServerID]*Service
	addrs  map[string]core.ServerID
	down   map[core.ServerID]bool
	cut    map[[2]core.ServerID]bool
	onSend func(from, to core.ServerID, m *core.MembershipMsg)
}

func newHub() *hub {
	return &hub{
		svcs:  make(map[core.ServerID]*Service),
		addrs: make(map[string]core.ServerID),
		down:  make(map[core.ServerID]bool),
		cut:   make(map[[2]core.ServerID]bool),
	}
}

func hubAddr(id core.ServerID) string { return fmt.Sprintf("hub:%d", id) }

func (h *hub) deliver(from, to core.ServerID, m *core.MembershipMsg) {
	h.mu.Lock()
	s := h.svcs[to]
	blocked := h.down[from] || h.down[to] || h.cut[[2]core.ServerID{from, to}]
	hook := h.onSend
	h.mu.Unlock()
	if hook != nil {
		hook(from, to, m)
	}
	if s == nil || blocked {
		return
	}
	go s.Deliver(m)
}

// add builds (but does not start) a service wired to the hub. The caller owns
// Self/Peers/JoinAddr/Options in cfg; Send/SendAddr/SelfAddr are filled here.
func (h *hub) add(cfg Config) *Service {
	id := cfg.Self
	cfg.SelfAddr = hubAddr(id)
	cfg.Send = func(to core.ServerID, m *core.MembershipMsg) { h.deliver(id, to, m) }
	cfg.SendAddr = func(addr string, m *core.MembershipMsg) error {
		h.mu.Lock()
		to, ok := h.addrs[addr]
		h.mu.Unlock()
		if !ok {
			return fmt.Errorf("hub: no listener at %s", addr)
		}
		h.deliver(id, to, m)
		return nil
	}
	s := New(cfg)
	h.mu.Lock()
	h.svcs[id] = s
	h.addrs[cfg.SelfAddr] = id
	h.mu.Unlock()
	return s
}

func (h *hub) setDown(id core.ServerID, down bool) {
	h.mu.Lock()
	h.down[id] = down
	h.mu.Unlock()
}

func (h *hub) cutBoth(a, b core.ServerID) {
	h.mu.Lock()
	h.cut[[2]core.ServerID{a, b}] = true
	h.cut[[2]core.ServerID{b, a}] = true
	h.mu.Unlock()
}

// staticPeers is the full deployment address book for n servers.
func staticPeers(n int) map[core.ServerID]string {
	peers := make(map[core.ServerID]string, n)
	for i := 0; i < n; i++ {
		peers[core.ServerID(i)] = hubAddr(core.ServerID(i))
	}
	return peers
}

// fastOpts keeps scenario wall time low while leaving margin for the race
// detector's scheduling overhead.
func fastOpts(seed uint64) Options {
	return Options{
		ProbeInterval:    25 * time.Millisecond,
		SuspicionTimeout: 150 * time.Millisecond,
		Seed:             seed,
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

func TestStaticConvergenceStaysAlive(t *testing.T) {
	h := newHub()
	const n = 5
	var svcs []*Service
	for i := 0; i < n; i++ {
		svcs = append(svcs, h.add(Config{
			Self: core.ServerID(i), Peers: staticPeers(n), Options: fastOpts(uint64(i) + 1),
		}))
	}
	for _, s := range svcs {
		s.Start()
	}
	defer func() {
		for _, s := range svcs {
			s.Stop()
		}
	}()

	time.Sleep(300 * time.Millisecond) // many full probe rotations
	for i, s := range svcs {
		ms := s.Members()
		if len(ms) != n {
			t.Fatalf("service %d sees %d members, want %d", i, len(ms), n)
		}
		for _, m := range ms {
			if m.State != Alive {
				t.Errorf("service %d believes %d is %v, want alive", i, m.ID, m.State)
			}
		}
	}
}

func TestFailureDetection(t *testing.T) {
	h := newHub()
	const n = 5
	var svcs []*Service
	for i := 0; i < n; i++ {
		svcs = append(svcs, h.add(Config{
			Self: core.ServerID(i), Peers: staticPeers(n), Options: fastOpts(uint64(i) + 11),
		}))
	}
	for _, s := range svcs {
		s.Start()
	}
	defer func() {
		for _, s := range svcs {
			s.Stop()
		}
	}()

	const victim = core.ServerID(4)
	h.setDown(victim, true)
	svcs[victim].Stop()

	waitFor(t, 5*time.Second, "all survivors to declare the victim dead", func() bool {
		for i := 0; i < n-1; i++ {
			if st, ok := svcs[i].StateOf(victim); !ok || st != Dead {
				return false
			}
		}
		return true
	})
	// Survivors must not have condemned each other along the way.
	for i := 0; i < n-1; i++ {
		for j := 0; j < n-1; j++ {
			if st, _ := svcs[i].StateOf(core.ServerID(j)); st == Dead {
				t.Errorf("service %d wrongly believes live peer %d dead", i, j)
			}
		}
	}
}

func TestIndirectProbeMasksOneLinkCut(t *testing.T) {
	h := newHub()
	const n = 3
	var pingReqs int
	h.onSend = func(from, to core.ServerID, m *core.MembershipMsg) {
		if m.Kind == core.MembershipPingReq {
			h.mu.Lock()
			pingReqs++
			h.mu.Unlock()
		}
	}
	var svcs []*Service
	for i := 0; i < n; i++ {
		svcs = append(svcs, h.add(Config{
			Self: core.ServerID(i), Peers: staticPeers(n), Options: fastOpts(uint64(i) + 21),
		}))
	}
	// Sever the 0↔1 link in both directions; 2 can still reach both.
	h.cutBoth(0, 1)
	for _, s := range svcs {
		s.Start()
	}
	defer func() {
		for _, s := range svcs {
			s.Stop()
		}
	}()

	time.Sleep(600 * time.Millisecond) // several probe rotations across the cut
	if st, _ := svcs[0].StateOf(1); st == Dead {
		t.Errorf("0 declared 1 dead despite an indirect path through 2")
	}
	if st, _ := svcs[1].StateOf(0); st == Dead {
		t.Errorf("1 declared 0 dead despite an indirect path through 2")
	}
	h.mu.Lock()
	reqs := pingReqs
	h.mu.Unlock()
	if reqs == 0 {
		t.Errorf("no indirect probe requests were ever sent across the cut")
	}
}

func TestRefutationBumpsIncarnation(t *testing.T) {
	var mu sync.Mutex
	var sent []*core.MembershipMsg
	s := New(Config{
		Self:  0,
		Peers: map[core.ServerID]string{1: ""},
		Send: func(to core.ServerID, m *core.MembershipMsg) {
			mu.Lock()
			sent = append(sent, m)
			mu.Unlock()
		},
		Options: Options{Seed: 7},
	})
	// Not started: Deliver works standalone, so no Stop either.

	// Peer 1 pings us carrying a suspicion claim about ourselves at our own
	// incarnation. SWIM's refutation: bump past it and re-announce aliveness.
	s.Deliver(&core.MembershipMsg{
		Kind: core.MembershipPing, Seq: 1, From: 1, Target: 0,
		Updates: []core.MemberUpdate{{Server: 0, State: uint8(Suspect), Incarnation: 0}},
	})
	if got := s.Incarnation(); got != 1 {
		t.Fatalf("incarnation = %d after suspect-self claim, want 1", got)
	}
	mu.Lock()
	if len(sent) != 1 || sent[0].Kind != core.MembershipAck {
		mu.Unlock()
		t.Fatalf("expected exactly one ack reply, got %d messages", len(sent))
	}
	u := sent[0].Updates[0]
	mu.Unlock()
	if u.Server != 0 || State(u.State) != Alive || u.Incarnation != 1 {
		t.Errorf("ack self-update = %+v, want alive@1 about self", u)
	}

	// A dead claim at the bumped incarnation must be refuted again, past it.
	s.Deliver(&core.MembershipMsg{
		Kind: core.MembershipPing, Seq: 2, From: 1, Target: 0,
		Updates: []core.MemberUpdate{{Server: 0, State: uint8(Dead), Incarnation: 5}},
	})
	if got := s.Incarnation(); got != 6 {
		t.Fatalf("incarnation = %d after dead-self claim at 5, want 6", got)
	}
}

func TestUpdatePrecedence(t *testing.T) {
	s := New(Config{
		Self:    0,
		Peers:   map[core.ServerID]string{1: ""},
		Send:    func(core.ServerID, *core.MembershipMsg) {},
		Options: Options{Seed: 3, SuspicionTimeout: time.Hour}, // timers must not fire mid-table
	})
	apply := func(st State, inc uint64) {
		// Kind 0 hits Deliver's default branch: absorb only, no reply.
		s.Deliver(&core.MembershipMsg{
			Updates: []core.MemberUpdate{{Server: 1, State: uint8(st), Incarnation: inc}},
		})
	}
	expect := func(step string, want State) {
		t.Helper()
		if got, _ := s.StateOf(1); got != want {
			t.Fatalf("%s: state = %v, want %v", step, got, want)
		}
	}

	expect("initially", Alive)
	apply(Alive, 0)
	expect("alive@0 over alive@0", Alive)
	apply(Suspect, 0)
	expect("suspect@0 over alive@0", Suspect) // suspicion wins at equal incarnation
	apply(Alive, 0)
	expect("alive@0 over suspect@0", Suspect) // stale alive cannot clear suspicion
	apply(Alive, 1)
	expect("alive@1 over suspect@0", Alive) // refutation: strictly newer alive
	apply(Dead, 0)
	expect("dead@0 over alive@1", Alive) // stale death is ignored
	apply(Dead, 1)
	expect("dead@1 over alive@1", Dead) // death wins at equal incarnation
	apply(Suspect, 1)
	expect("suspect@1 over dead@1", Dead) // death is sticky at the same incarnation
	apply(Alive, 1)
	expect("alive@1 over dead@1", Dead)
	apply(Alive, 2)
	expect("alive@2 over dead@1", Alive) // resurrection needs a strictly newer alive
	apply(Dead, 2)
	expect("dead@2 over alive@2", Dead)
	apply(Suspect, 9)
	// A strictly newer suspicion proves the member lived past the death record
	// (only the member itself bumps its incarnation), so it resurrects as suspect.
	expect("suspect@9 over dead@2", Suspect)
}

func TestJoinHandshake(t *testing.T) {
	h := newHub()
	boot := h.add(Config{Self: 0, Options: fastOpts(31)})
	var mu sync.Mutex
	learned := map[core.ServerID]string{}
	joiner := h.add(Config{
		Self:     1,
		JoinAddr: hubAddr(0),
		OnAddr: func(id core.ServerID, addr string) {
			mu.Lock()
			learned[id] = addr
			mu.Unlock()
		},
		Options: fastOpts(32),
	})
	if joiner.Joined() {
		t.Fatal("joiner claims joined before the handshake")
	}
	boot.Start()
	joiner.Start()
	defer boot.Stop()
	defer joiner.Stop()

	waitFor(t, 5*time.Second, "join handshake to complete", joiner.Joined)
	waitFor(t, 5*time.Second, "mutual alive view", func() bool {
		a, okA := boot.StateOf(1)
		b, okB := joiner.StateOf(0)
		return okA && okB && a == Alive && b == Alive
	})
	mu.Lock()
	defer mu.Unlock()
	if learned[0] != hubAddr(0) {
		t.Errorf("joiner learned addr %q for bootstrap, want %q", learned[0], hubAddr(0))
	}
}

func TestPartitionHealResurrection(t *testing.T) {
	h := newHub()
	const n = 3
	var svcs []*Service
	for i := 0; i < n; i++ {
		svcs = append(svcs, h.add(Config{
			Self: core.ServerID(i), Peers: staticPeers(n), Options: fastOpts(uint64(i) + 41),
		}))
	}
	for _, s := range svcs {
		s.Start()
	}
	defer func() {
		for _, s := range svcs {
			s.Stop()
		}
	}()

	// Isolate 2 (both directions, but keep its process running).
	h.setDown(2, true)
	waitFor(t, 5*time.Second, "survivors to declare 2 dead", func() bool {
		a, _ := svcs[0].StateOf(2)
		b, _ := svcs[1].StateOf(2)
		return a == Dead && b == Dead
	})

	// Heal. The dead-reprobe path pings 2 carrying the dead claim about it;
	// 2 refutes by bumping its incarnation, and the fresh alive resurrects it.
	h.setDown(2, false)
	waitFor(t, 10*time.Second, "survivors to resurrect 2", func() bool {
		a, _ := svcs[0].StateOf(2)
		b, _ := svcs[1].StateOf(2)
		return a == Alive && b == Alive
	})
	if inc := svcs[2].Incarnation(); inc == 0 {
		t.Errorf("resurrected member never bumped its incarnation")
	}
}

func TestRestartRejoinsAsNewProcess(t *testing.T) {
	h := newHub()
	const n = 3
	var svcs []*Service
	for i := 0; i < n; i++ {
		svcs = append(svcs, h.add(Config{
			Self: core.ServerID(i), Peers: staticPeers(n), Options: fastOpts(uint64(i) + 51),
		}))
	}
	for _, s := range svcs {
		s.Start()
	}
	defer func() {
		for i, s := range svcs {
			if i != 2 {
				s.Stop()
			}
		}
	}()

	// Crash 2 for real.
	h.setDown(2, true)
	svcs[2].Stop()
	waitFor(t, 5*time.Second, "survivors to declare 2 dead", func() bool {
		a, _ := svcs[0].StateOf(2)
		b, _ := svcs[1].StateOf(2)
		return a == Dead && b == Dead
	})

	// Restart as a fresh process (incarnation 0) bootstrapping via join. The
	// JoinAck snapshot carries the dead record about itself, which forces the
	// incarnation bump that lets the rejoin override the sticky death.
	h.mu.Lock()
	delete(h.svcs, 2)
	delete(h.addrs, hubAddr(2))
	h.down[2] = false
	h.mu.Unlock()
	fresh := h.add(Config{Self: 2, JoinAddr: hubAddr(0), Options: fastOpts(99)})
	fresh.Start()
	defer fresh.Stop()

	waitFor(t, 10*time.Second, "survivors to readmit the restarted member", func() bool {
		a, _ := svcs[0].StateOf(2)
		b, _ := svcs[1].StateOf(2)
		return a == Alive && b == Alive && fresh.Joined()
	})
	if inc := fresh.Incarnation(); inc == 0 {
		t.Errorf("restarted member should have bumped past its old dead record")
	}
}

func TestPiggybackBudgetDrains(t *testing.T) {
	s := New(Config{
		Self:    0,
		Peers:   map[core.ServerID]string{1: "", 2: "", 3: ""},
		Send:    func(core.ServerID, *core.MembershipMsg) {},
		Options: Options{Seed: 5, SuspicionTimeout: time.Hour},
	})
	// Learn one delta about server 3 (suspect), then repeatedly build outgoing
	// messages; the delta must appear a bounded number of times and then stop.
	s.Deliver(&core.MembershipMsg{
		Updates: []core.MemberUpdate{{Server: 3, State: uint8(Suspect), Incarnation: 0}},
	})
	appearances := 0
	for i := 0; i < 50; i++ {
		s.mu.Lock()
		m := s.buildLocked(core.MembershipPing, uint64(i), 0, 1)
		s.mu.Unlock()
		for _, u := range m.Updates {
			if u.Server == 3 {
				appearances++
			}
		}
	}
	if appearances == 0 {
		t.Fatal("learned delta was never piggybacked")
	}
	if appearances >= 50 {
		t.Fatalf("delta piggybacked on every message — retransmit budget not enforced")
	}
}
