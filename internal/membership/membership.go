// Package membership is a SWIM-style gossip membership service for the live
// TerraDir overlay: periodic randomized probing with indirect probes through
// helpers, a suspect→dead state machine guarded by incarnation numbers, and
// membership deltas piggybacked on every protocol message with a logarithmic
// retransmit budget. It is transport-agnostic — the driver supplies send
// functions — and deliberately knows nothing about namespaces; the overlay
// couples its events to the OwnershipTable for handoff.
//
// The design follows Das et al.'s SWIM (2002): failure detection and
// dissemination are separated, detection load is O(1) per member per probe
// period, and false suspicion is refuted by the accused member bumping its
// incarnation. Dead members are reprobed at a low rate so a healed partition
// (or a restarted process) resurrects without operator action.
package membership

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"terradir/internal/core"
	"terradir/internal/rng"
	"terradir/internal/telemetry"
)

// State is a member's lifecycle state. The zero value is Alive.
type State uint8

const (
	Alive State = iota
	Suspect
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return "unknown"
}

// Member is one row of the membership table.
type Member struct {
	ID          core.ServerID
	State       State
	Incarnation uint64
	Addr        string
}

// Event reports a member's state transition. Events are delivered in order
// through Config.OnEvent, one at a time.
type Event struct {
	Member
	// Prev is the state the member transitioned from.
	Prev State
	// Joined marks the first time this service heard of the member at all —
	// a join handshake or a gossip update naming an unknown server.
	Joined bool
}

const (
	// indirectProbes is the number of helpers asked to probe an unresponsive
	// member (SWIM's k).
	indirectProbes = 2
	// maxUpdatesPerMessage bounds the piggybacked delta count.
	maxUpdatesPerMessage = 8
)

// Options tunes the failure detector. Zero fields take the documented
// defaults.
type Options struct {
	// ProbeInterval is the protocol period: one direct probe per tick.
	// Default 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds the wait for a direct ack before indirect probing.
	// Default ProbeInterval/3.
	ProbeTimeout time.Duration
	// SuspicionTimeout is how long a suspect has to refute before being
	// declared dead. Default 4×ProbeInterval.
	SuspicionTimeout time.Duration
	// RetransmitFactor scales each delta's retransmit budget:
	// RetransmitFactor × ⌈log₂(members+1)⌉ piggybacks. Default 3.
	RetransmitFactor int
	// DeadReprobeInterval is how often one dead member is probed anyway, so a
	// healed partition or restarted peer is rediscovered. Default
	// 8×ProbeInterval; negative disables.
	DeadReprobeInterval time.Duration
	// Seed seeds the deterministic probe-order RNG. Default 1.
	Seed uint64
}

func (o *Options) fill() {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ProbeInterval / 3
	}
	if o.SuspicionTimeout <= 0 {
		o.SuspicionTimeout = 4 * o.ProbeInterval
	}
	if o.RetransmitFactor <= 0 {
		o.RetransmitFactor = 3
	}
	if o.DeadReprobeInterval == 0 {
		o.DeadReprobeInterval = 8 * o.ProbeInterval
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Config wires a Service to its driver.
type Config struct {
	// Self is this member's server ID.
	Self core.ServerID
	// SelfAddr is the address other members can dial this one on; it rides
	// every self-update so joiners' addresses disseminate by gossip.
	SelfAddr string
	// Peers seeds the member table with the statically known deployment
	// (addresses may be empty for transports that route by ID alone). Self is
	// ignored if present.
	Peers map[core.ServerID]string
	// JoinAddr, when set, bootstraps membership by sending a join handshake
	// to one live peer (retried every probe tick until acknowledged) instead
	// of requiring Peers. Requires SendAddr.
	JoinAddr string
	// Send transmits a membership message to a known member. Required.
	Send func(to core.ServerID, m *core.MembershipMsg)
	// SendAddr transmits to an explicit address before the destination's ID
	// is routable — the join bootstrap path. Optional.
	SendAddr func(addr string, m *core.MembershipMsg) error
	// OnEvent receives state transitions, serialized and in order. Optional.
	// It is called from service goroutines and must not block indefinitely.
	OnEvent func(Event)
	// OnAddr is told every newly learned (or changed) member address so the
	// transport can learn routes at runtime. Optional; must be fast and safe
	// to call from service goroutines.
	OnAddr func(id core.ServerID, addr string)
	// Registry receives the service's metrics (optional), labeled with
	// Labels.
	Registry *telemetry.Registry
	Labels   []string
	// Incarnation seeds this member's own incarnation number. A restarting
	// member passes its persisted incarnation plus one so its alive claim
	// strictly supersedes any Dead record the cluster still gossips about its
	// previous life (Alive only overrides strictly newer incarnations).
	Incarnation uint64
	// OnIncarnation is told every self-incarnation bump (suspicion/death
	// refutations) so the new value can be persisted before it is gossiped
	// further. Optional; called under internal locks — must be fast and must
	// not call back into the Service.
	OnIncarnation func(inc uint64)

	Options
}

type memberEntry struct {
	Member
	// suspectInc is the incarnation the running suspicion timer was armed
	// for; a refutation bumps the incarnation and invalidates the timer.
	suspectInc uint64
}

type pendingProbe struct {
	target   core.ServerID
	indirect bool
}

type relayEntry struct {
	origin    core.ServerID
	originSeq uint64
	target    core.ServerID
}

type queuedUpdate struct {
	u    core.MemberUpdate
	left int // remaining piggyback transmissions
}

// Service runs the membership protocol. Create with New, then Start.
type Service struct {
	cfg Config

	mu          sync.Mutex
	members     map[core.ServerID]*memberEntry
	rotation    []core.ServerID
	rotIdx      int
	incarnation uint64
	seq         uint64
	pending     map[uint64]*pendingProbe
	relays      map[uint64]relayEntry
	updates     []*queuedUpdate
	eventQ      []Event
	joined      bool
	stopped     bool
	src         *rng.Source
	ticks       uint64
	deadEvery   uint64

	evMu sync.Mutex // serializes OnEvent delivery across goroutines

	stop chan struct{}
	done chan struct{}

	probesSent, acksReceived *telemetry.Counter
	deaths, resurrections    *telemetry.Counter
}

// New builds a service. Call Start to begin probing; Deliver inbound
// membership messages from any goroutine.
func New(cfg Config) *Service {
	cfg.Options.fill()
	if cfg.Send == nil {
		panic("membership: Config.Send is required")
	}
	s := &Service{
		cfg:     cfg,
		members: make(map[core.ServerID]*memberEntry),
		pending: make(map[uint64]*pendingProbe),
		relays:  make(map[uint64]relayEntry),
		src:     rng.New(cfg.Seed ^ (uint64(uint32(cfg.Self)) << 17) ^ 0x6d656d62),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.incarnation = cfg.Incarnation
	s.members[cfg.Self] = &memberEntry{Member: Member{
		ID: cfg.Self, State: Alive, Incarnation: cfg.Incarnation, Addr: cfg.SelfAddr}}
	for id, addr := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		s.members[id] = &memberEntry{Member: Member{ID: id, State: Alive, Addr: addr}}
	}
	s.joined = cfg.JoinAddr == ""
	if cfg.DeadReprobeInterval > 0 {
		s.deadEvery = uint64(cfg.DeadReprobeInterval / cfg.ProbeInterval)
		if s.deadEvery < 1 {
			s.deadEvery = 1
		}
	}
	s.registerMetrics()
	return s
}

func (s *Service) registerMetrics() {
	reg := s.cfg.Registry
	if reg == nil {
		return
	}
	c := func(name, help string) *telemetry.Counter {
		return reg.Counter(name, help, s.cfg.Labels...)
	}
	s.probesSent = c("terradir_membership_probes_total", "Direct membership probes sent.")
	s.acksReceived = c("terradir_membership_acks_total", "Membership acks received.")
	s.deaths = c("terradir_membership_deaths_total", "Members this service transitioned to dead.")
	s.resurrections = c("terradir_membership_resurrections_total", "Members observed returning from dead to alive.")
}

// Start launches the probe loop.
func (s *Service) Start() {
	go s.run()
}

// Stop halts probing and timer callbacks. Safe to call more than once.
func (s *Service) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		<-s.done
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
}

func (s *Service) run() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.tick()
		}
	}
}

func (s *Service) tick() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.ticks++
	if !s.joined && s.cfg.JoinAddr != "" && s.cfg.SendAddr != nil {
		m := &core.MembershipMsg{Kind: core.MembershipJoin, From: s.cfg.Self,
			Updates: []core.MemberUpdate{s.selfUpdateLocked()}}
		s.mu.Unlock()
		_ = s.cfg.SendAddr(s.cfg.JoinAddr, m)
		return
	}
	target := s.pickProbeTargetLocked()
	if target == core.NoServer {
		s.mu.Unlock()
		return
	}
	s.seq++
	seq := s.seq
	s.pending[seq] = &pendingProbe{target: target}
	msg := s.buildLocked(core.MembershipPing, seq, s.cfg.Self, target)
	s.mu.Unlock()
	if s.probesSent != nil {
		s.probesSent.Inc()
	}
	s.cfg.Send(target, msg)
	time.AfterFunc(s.cfg.ProbeTimeout, func() { s.onDirectTimeout(seq) })
}

// pickProbeTargetLocked implements SWIM's shuffled round-robin: every member
// is probed exactly once per rotation, in an order reshuffled each round, so
// detection time is bounded rather than merely probabilistic. Every
// deadEvery-th tick one dead member is probed instead (partition heal /
// restart rediscovery).
func (s *Service) pickProbeTargetLocked() core.ServerID {
	if s.deadEvery > 0 && s.ticks%s.deadEvery == 0 {
		var dead []core.ServerID
		for id, e := range s.members {
			if e.State == Dead {
				dead = append(dead, id)
			}
		}
		if len(dead) > 0 {
			sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
			return dead[s.src.Intn(len(dead))]
		}
	}
	for {
		for s.rotIdx < len(s.rotation) {
			id := s.rotation[s.rotIdx]
			s.rotIdx++
			if e, ok := s.members[id]; ok && e.State != Dead && id != s.cfg.Self {
				return id
			}
		}
		s.rotation = s.rotation[:0]
		for id, e := range s.members {
			if id != s.cfg.Self && e.State != Dead {
				s.rotation = append(s.rotation, id)
			}
		}
		if len(s.rotation) == 0 {
			return core.NoServer
		}
		sort.Slice(s.rotation, func(i, j int) bool { return s.rotation[i] < s.rotation[j] })
		s.src.Shuffle(len(s.rotation), func(i, j int) {
			s.rotation[i], s.rotation[j] = s.rotation[j], s.rotation[i]
		})
		s.rotIdx = 0
	}
}

func (s *Service) onDirectTimeout(seq uint64) {
	s.mu.Lock()
	pr, ok := s.pending[seq]
	if !ok || s.stopped {
		s.mu.Unlock()
		return
	}
	delete(s.pending, seq)
	helpers := s.pickHelpersLocked(pr.target, indirectProbes)
	if len(helpers) == 0 {
		s.suspectLocked(pr.target)
		s.mu.Unlock()
		s.flushEvents()
		return
	}
	s.seq++
	seq2 := s.seq
	s.pending[seq2] = &pendingProbe{target: pr.target, indirect: true}
	msgs := make([]*core.MembershipMsg, len(helpers))
	for i := range helpers {
		msgs[i] = s.buildLocked(core.MembershipPingReq, seq2, s.cfg.Self, pr.target)
	}
	s.mu.Unlock()
	for i, h := range helpers {
		s.cfg.Send(h, msgs[i])
	}
	time.AfterFunc(2*s.cfg.ProbeTimeout, func() { s.onIndirectTimeout(seq2) })
}

func (s *Service) onIndirectTimeout(seq uint64) {
	s.mu.Lock()
	pr, ok := s.pending[seq]
	if !ok || s.stopped {
		s.mu.Unlock()
		return
	}
	delete(s.pending, seq)
	s.suspectLocked(pr.target)
	s.mu.Unlock()
	s.flushEvents()
}

// pickHelpersLocked samples up to k alive members other than self and the
// probe target.
func (s *Service) pickHelpersLocked(target core.ServerID, k int) []core.ServerID {
	var cands []core.ServerID
	for id, e := range s.members {
		if id != s.cfg.Self && id != target && e.State == Alive {
			cands = append(cands, id)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	s.src.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// suspectLocked starts suspicion for an alive member that failed direct and
// indirect probing.
func (s *Service) suspectLocked(id core.ServerID) {
	e, ok := s.members[id]
	if !ok || e.State != Alive {
		return
	}
	prev := e.State
	e.State = Suspect
	e.suspectInc = e.Incarnation
	inc := e.Incarnation
	s.queueLocked(core.MemberUpdate{Server: id, State: uint8(Suspect), Incarnation: inc, Addr: e.Addr})
	s.eventQ = append(s.eventQ, Event{Member: e.Member, Prev: prev})
	time.AfterFunc(s.cfg.SuspicionTimeout, func() { s.onSuspicionExpired(id, inc) })
}

func (s *Service) onSuspicionExpired(id core.ServerID, inc uint64) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	e, ok := s.members[id]
	if !ok || e.State != Suspect || e.suspectInc != inc {
		s.mu.Unlock()
		return // refuted or superseded while the timer ran
	}
	prev := e.State
	e.State = Dead
	s.queueLocked(core.MemberUpdate{Server: id, State: uint8(Dead), Incarnation: e.Incarnation, Addr: e.Addr})
	s.eventQ = append(s.eventQ, Event{Member: e.Member, Prev: prev})
	if s.deaths != nil {
		s.deaths.Inc()
	}
	s.mu.Unlock()
	s.flushEvents()
}

// Deliver ingests an inbound membership message. Safe from any goroutine.
// Warmup frames are the driver's business and are ignored here beyond their
// piggybacked updates.
func (s *Service) Deliver(m *core.MembershipMsg) {
	if m == nil {
		return
	}
	var reply *core.MembershipMsg
	var replyTo core.ServerID
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	switch m.Kind {
	case core.MembershipPing:
		s.absorbLocked(m)
		reply = s.buildLocked(core.MembershipAck, m.Seq, s.cfg.Self, s.cfg.Self)
		replyTo = m.From
	case core.MembershipAck:
		s.absorbLocked(m)
		if s.acksReceived != nil {
			s.acksReceived.Inc()
		}
		if pr, ok := s.pending[m.Seq]; ok && (m.From == pr.target || m.Target == pr.target) {
			delete(s.pending, m.Seq)
			s.probeSucceededLocked(pr.target, m.From == pr.target)
		}
		if rl, ok := s.relays[m.Seq]; ok && m.From == rl.target {
			delete(s.relays, m.Seq)
			reply = s.buildLocked(core.MembershipAck, rl.originSeq, s.cfg.Self, rl.target)
			replyTo = rl.origin
		}
	case core.MembershipPingReq:
		s.absorbLocked(m)
		s.seq++
		relaySeq := s.seq
		s.relays[relaySeq] = relayEntry{origin: m.From, originSeq: m.Seq, target: m.Target}
		reply = s.buildLocked(core.MembershipPing, relaySeq, s.cfg.Self, m.Target)
		replyTo = m.Target
		time.AfterFunc(4*s.cfg.ProbeTimeout, func() {
			s.mu.Lock()
			delete(s.relays, relaySeq)
			s.mu.Unlock()
		})
	case core.MembershipJoin:
		// Learn the joiner's address unconditionally (its alive claim may
		// lose the incarnation race against our dead record — the snapshot
		// below lets it refute), then answer with the full membership view.
		for _, u := range m.Updates {
			if u.Server == m.From && u.Addr != "" {
				if e, ok := s.members[u.Server]; ok && e.Addr != u.Addr {
					e.Addr = u.Addr
				}
				if s.cfg.OnAddr != nil {
					s.cfg.OnAddr(u.Server, u.Addr)
				}
			}
		}
		s.absorbLocked(m)
		reply = s.snapshotLocked()
		replyTo = m.From
	case core.MembershipJoinAck:
		s.joined = true
		s.absorbLocked(m)
	default:
		s.absorbLocked(m)
	}
	s.mu.Unlock()
	s.flushEvents()
	if reply != nil {
		s.cfg.Send(replyTo, reply)
	}
}

// probeSucceededLocked records liveness evidence for a probed member. A
// direct ack clears local suspicion at the same incarnation (the suspect
// broadcast is refuted globally by the member's own incarnation bump, which
// its ack's piggybacked self-update carries when it has seen the claim).
func (s *Service) probeSucceededLocked(id core.ServerID, direct bool) {
	e, ok := s.members[id]
	if !ok || !direct || e.State != Suspect {
		return
	}
	prev := e.State
	e.State = Alive
	e.suspectInc = e.Incarnation // invalidate only logically; timer checks state too
	s.eventQ = append(s.eventQ, Event{Member: e.Member, Prev: prev})
}

// selfUpdateLocked is the always-first piggybacked delta: our own aliveness,
// incarnation and dialable address.
func (s *Service) selfUpdateLocked() core.MemberUpdate {
	return core.MemberUpdate{
		Server: s.cfg.Self, State: uint8(Alive), Incarnation: s.incarnation,
		Addr: s.cfg.SelfAddr}
}

// buildLocked assembles an outgoing message: self-update first, the target's
// non-alive claim if we hold one (so the accused can refute), then the
// piggyback queue drained by remaining-budget priority.
func (s *Service) buildLocked(kind uint8, seq uint64, from, target core.ServerID) *core.MembershipMsg {
	m := &core.MembershipMsg{Kind: kind, Seq: seq, From: from, Target: target}
	m.Updates = append(m.Updates, s.selfUpdateLocked())
	if e, ok := s.members[target]; ok && target != s.cfg.Self && e.State != Alive {
		m.Updates = append(m.Updates, core.MemberUpdate{
			Server: target, State: uint8(e.State), Incarnation: e.Incarnation, Addr: e.Addr})
	}
	if len(s.updates) > 1 {
		sort.SliceStable(s.updates, func(i, j int) bool { return s.updates[i].left > s.updates[j].left })
	}
	kept := s.updates[:0]
	for _, qu := range s.updates {
		already := false
		for _, u := range m.Updates {
			if u.Server == qu.u.Server {
				already = true
				break
			}
		}
		if !already && len(m.Updates) < maxUpdatesPerMessage {
			m.Updates = append(m.Updates, qu.u)
			qu.left--
		}
		if qu.left > 0 {
			kept = append(kept, qu)
		}
	}
	s.updates = kept
	return m
}

// snapshotLocked builds a JoinAck carrying the entire member table.
func (s *Service) snapshotLocked() *core.MembershipMsg {
	m := &core.MembershipMsg{Kind: core.MembershipJoinAck, From: s.cfg.Self}
	ids := make([]core.ServerID, 0, len(s.members))
	for id := range s.members {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e := s.members[id]
		inc := e.Incarnation
		if id == s.cfg.Self {
			inc = s.incarnation
		}
		m.Updates = append(m.Updates, core.MemberUpdate{
			Server: id, State: uint8(e.State), Incarnation: inc, Addr: e.Addr})
	}
	return m
}

// queueLocked enqueues a delta for piggybacked dissemination, superseding
// any queued claim about the same server. The retransmit budget is
// RetransmitFactor × ⌈log₂(members+1)⌉ — SWIM's epidemic bound.
func (s *Service) queueLocked(u core.MemberUpdate) {
	budget := s.cfg.RetransmitFactor * bits.Len(uint(len(s.members)+1))
	for _, qu := range s.updates {
		if qu.u.Server == u.Server {
			qu.u = u
			qu.left = budget
			return
		}
	}
	s.updates = append(s.updates, &queuedUpdate{u: u, left: budget})
}

// absorbLocked folds every piggybacked delta into the member table.
func (s *Service) absorbLocked(m *core.MembershipMsg) {
	for _, u := range m.Updates {
		s.applyLocked(u)
	}
}

// applyLocked applies one delta under SWIM's precedence rules:
//
//   - about self: any non-alive claim at an incarnation ≥ ours is refuted by
//     bumping past it and re-announcing aliveness;
//   - alive overrides only strictly newer incarnations;
//   - suspect overrides alive at the same incarnation, or anything older;
//   - dead overrides suspect/alive at the same or older incarnation (death
//     is sticky; resurrection needs a strictly newer alive).
func (s *Service) applyLocked(u core.MemberUpdate) {
	if u.Server == s.cfg.Self {
		if State(u.State) != Alive && u.Incarnation >= s.incarnation {
			s.incarnation = u.Incarnation + 1
			if s.cfg.OnIncarnation != nil {
				s.cfg.OnIncarnation(s.incarnation)
			}
			s.queueLocked(s.selfUpdateLocked())
		}
		return
	}
	e, known := s.members[u.Server]
	if !known {
		e = &memberEntry{Member: Member{
			ID: u.Server, State: State(u.State), Incarnation: u.Incarnation, Addr: u.Addr}}
		s.members[u.Server] = e
		if u.Addr != "" && s.cfg.OnAddr != nil {
			s.cfg.OnAddr(u.Server, u.Addr)
		}
		s.queueLocked(u)
		s.eventQ = append(s.eventQ, Event{Member: e.Member, Prev: e.State, Joined: true})
		if e.State == Suspect {
			s.armSuspicionLocked(e)
		}
		return
	}
	accept := false
	switch State(u.State) {
	case Alive:
		accept = u.Incarnation > e.Incarnation
	case Suspect:
		accept = u.Incarnation > e.Incarnation ||
			(u.Incarnation == e.Incarnation && e.State == Alive)
	case Dead:
		accept = e.State != Dead && u.Incarnation >= e.Incarnation
	}
	if !accept {
		return
	}
	prev := e.State
	e.State = State(u.State)
	e.Incarnation = u.Incarnation
	if u.Addr != "" && u.Addr != e.Addr {
		e.Addr = u.Addr
		if s.cfg.OnAddr != nil {
			s.cfg.OnAddr(u.Server, u.Addr)
		}
	}
	s.queueLocked(core.MemberUpdate{
		Server: u.Server, State: u.State, Incarnation: u.Incarnation, Addr: e.Addr})
	if e.State == Suspect {
		s.armSuspicionLocked(e)
	}
	if e.State != prev {
		s.eventQ = append(s.eventQ, Event{Member: e.Member, Prev: prev})
		switch {
		case e.State == Dead && s.deaths != nil:
			s.deaths.Inc()
		case prev == Dead && e.State == Alive && s.resurrections != nil:
			s.resurrections.Inc()
		}
	}
}

func (s *Service) armSuspicionLocked(e *memberEntry) {
	e.suspectInc = e.Incarnation
	id, inc := e.ID, e.Incarnation
	time.AfterFunc(s.cfg.SuspicionTimeout, func() { s.onSuspicionExpired(id, inc) })
}

// flushEvents drains queued events to OnEvent, serialized: the evMu holder
// empties the queue, so events are observed in the order they were produced
// even when multiple goroutines race into this method.
func (s *Service) flushEvents() {
	if s.cfg.OnEvent == nil {
		s.mu.Lock()
		s.eventQ = nil
		s.mu.Unlock()
		return
	}
	s.evMu.Lock()
	defer s.evMu.Unlock()
	for {
		s.mu.Lock()
		if len(s.eventQ) == 0 {
			s.mu.Unlock()
			return
		}
		ev := s.eventQ[0]
		s.eventQ = s.eventQ[1:]
		s.mu.Unlock()
		s.cfg.OnEvent(ev)
	}
}

// Members returns a snapshot of the member table, sorted by ID.
func (s *Service) Members() []Member {
	s.mu.Lock()
	out := make([]Member, 0, len(s.members))
	for _, e := range s.members {
		m := e.Member
		if m.ID == s.cfg.Self {
			m.Incarnation = s.incarnation
		}
		out = append(out, m)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// StateOf returns the service's belief about one member (Dead, false if
// unknown).
func (s *Service) StateOf(id core.ServerID) (State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.members[id]
	if !ok {
		return Dead, false
	}
	return e.State, true
}

// Incarnation returns this member's own incarnation number.
func (s *Service) Incarnation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.incarnation
}

// Joined reports whether the join handshake completed (always true for
// statically bootstrapped services).
func (s *Service) Joined() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.joined
}

func (s *Service) countState(st State) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.members {
		if e.State == st {
			n++
		}
	}
	return n
}

// String summarizes the service for logs.
func (s *Service) String() string {
	return fmt.Sprintf("membership(self=%d alive=%d suspect=%d dead=%d inc=%d)",
		s.cfg.Self, s.countState(Alive), s.countState(Suspect), s.countState(Dead), s.Incarnation())
}
