package overlay

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/rng"
	"terradir/internal/telemetry"
)

// FaultOptions configures a FaultTransport's steady-state behavior. All
// fields may also be changed at runtime through the corresponding setters.
type FaultOptions struct {
	// DropProb drops each message independently with this probability.
	DropProb float64
	// Latency delays every delivered message by this much.
	Latency time.Duration
	// Seed seeds the deterministic fault RNG stream (default 1).
	Seed uint64
}

// FaultTransport wraps any Transport with deterministic fault injection:
// probabilistic message drops, added latency, asymmetric link partitions and
// crashed-peer sets. It composes over both LocalTransport and TCPTransport,
// letting the same failure scenario run against the in-process overlay and
// real sockets. All faults are applied on the send path; drops return nil
// (the soft-state protocol treats loss as normal).
type FaultTransport struct {
	inner Transport

	mu         sync.Mutex
	opts       FaultOptions
	src        *rng.Source
	crashed    map[core.ServerID]bool
	blocked    map[[2]core.ServerID]bool
	dropFilter func(from, to core.ServerID, m core.Message) bool

	faultDrops atomic.Uint64
	delayed    atomic.Uint64
}

// NewFaultTransport wraps inner with fault injection.
func NewFaultTransport(inner Transport, opts FaultOptions) *FaultTransport {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &FaultTransport{
		inner:   inner,
		opts:    opts,
		src:     rng.New(opts.Seed ^ 0x5bf03635),
		crashed: make(map[core.ServerID]bool),
		blocked: make(map[[2]core.ServerID]bool),
	}
}

// Crash marks peers as crashed: every message to or from them is dropped,
// mirroring the simulator's FailServer (fail-stop, routing state elsewhere
// untouched).
func (f *FaultTransport) Crash(ids ...core.ServerID) {
	f.mu.Lock()
	for _, id := range ids {
		f.crashed[id] = true
	}
	f.mu.Unlock()
}

// Revive clears the crashed flag for peers.
func (f *FaultTransport) Revive(ids ...core.ServerID) {
	f.mu.Lock()
	for _, id := range ids {
		delete(f.crashed, id)
	}
	f.mu.Unlock()
}

// Crashed reports whether a peer is currently marked crashed.
func (f *FaultTransport) Crashed(id core.ServerID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed[id]
}

// Block drops all messages flowing from → to (one direction only, so
// asymmetric partitions — A hears B but not vice versa — are expressible).
func (f *FaultTransport) Block(from, to core.ServerID) {
	f.mu.Lock()
	f.blocked[[2]core.ServerID{from, to}] = true
	f.mu.Unlock()
}

// Unblock removes a Block edge.
func (f *FaultTransport) Unblock(from, to core.ServerID) {
	f.mu.Lock()
	delete(f.blocked, [2]core.ServerID{from, to})
	f.mu.Unlock()
}

// Partition blocks all traffic between the two groups, in both directions.
// Heal it edge by edge with Unblock, or wholesale with HealPartition.
func (f *FaultTransport) Partition(a, b []core.ServerID) {
	f.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			f.blocked[[2]core.ServerID{x, y}] = true
			f.blocked[[2]core.ServerID{y, x}] = true
		}
	}
	f.mu.Unlock()
}

// HealPartition removes every blocked edge between the two groups.
func (f *FaultTransport) HealPartition(a, b []core.ServerID) {
	f.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			delete(f.blocked, [2]core.ServerID{x, y})
			delete(f.blocked, [2]core.ServerID{y, x})
		}
	}
	f.mu.Unlock()
}

// SetDropProb changes the per-message drop probability.
func (f *FaultTransport) SetDropProb(p float64) {
	f.mu.Lock()
	f.opts.DropProb = p
	f.mu.Unlock()
}

// SetDropFilter installs a predicate that drops exactly the messages it
// returns true for — targeted loss (e.g. "the query on the B→C edge")
// where DropProb is probabilistic. nil removes the filter. The filter runs
// under the transport lock; keep it fast and non-reentrant.
func (f *FaultTransport) SetDropFilter(filter func(from, to core.ServerID, m core.Message) bool) {
	f.mu.Lock()
	f.dropFilter = filter
	f.mu.Unlock()
}

// SetLatency changes the added delivery latency.
func (f *FaultTransport) SetLatency(latency time.Duration) {
	f.mu.Lock()
	f.opts.Latency = latency
	f.mu.Unlock()
}

// Send implements Transport, applying crash, partition, drop and latency
// faults before (possibly) forwarding to the wrapped transport.
func (f *FaultTransport) Send(from, to core.ServerID, m core.Message) error {
	f.mu.Lock()
	if f.crashed[from] || f.crashed[to] || f.blocked[[2]core.ServerID{from, to}] ||
		(f.dropFilter != nil && f.dropFilter(from, to, m)) ||
		(f.opts.DropProb > 0 && f.src.Float64() < f.opts.DropProb) {
		f.mu.Unlock()
		f.faultDrops.Add(1)
		return nil // loss is normal under soft state
	}
	delay := f.opts.Latency
	f.mu.Unlock()
	if delay <= 0 {
		return f.inner.Send(from, to, m)
	}
	f.delayed.Add(1)
	time.AfterFunc(delay, func() { _ = f.inner.Send(from, to, m) })
	return nil
}

// Close closes the wrapped transport.
func (f *FaultTransport) Close() error { return f.inner.Close() }

// SetAddr forwards runtime address learning to the wrapped transport when it
// supports it, so membership address discovery works through fault wrappers.
func (f *FaultTransport) SetAddr(id core.ServerID, addr string) {
	if as, ok := f.inner.(AddrSetter); ok {
		as.SetAddr(id, addr)
	}
}

// SendTo forwards address-directed sends (the join bootstrap path) to the
// wrapped transport. Note crash/partition faults are keyed by server ID and
// do not apply here: a join targets an address, not a known member.
func (f *FaultTransport) SendTo(addr string, m core.Message) error {
	if ds, ok := f.inner.(AddrSender); ok {
		return ds.SendTo(addr, m)
	}
	return fmt.Errorf("overlay: wrapped transport cannot send by address")
}

// SetReadHistogram forwards the frames-per-read histogram to the wrapped
// transport when it records one (TCPTransport does; LocalTransport has no
// read(2) path), so receive-batching telemetry survives fault wrapping.
func (f *FaultTransport) SetReadHistogram(h *telemetry.Histogram) {
	if hs, ok := f.inner.(ReadHistogramSetter); ok {
		hs.SetReadHistogram(h)
	}
}

// Stats reports the wrapped transport's counters (zero if it exports none)
// with this wrapper's injected drops added.
func (f *FaultTransport) Stats() TransportStats {
	var s TransportStats
	if sr, ok := f.inner.(StatsReporter); ok {
		s = sr.Stats()
	}
	s.FaultDrops += f.faultDrops.Load()
	return s
}

// Delayed returns how many messages were deferred by added latency.
func (f *FaultTransport) Delayed() uint64 { return f.delayed.Load() }
