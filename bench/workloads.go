package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
	"terradir/internal/rng"
	"terradir/internal/workload"
)

// zipfAlpha is the popularity exponent of every skewed workload.
const zipfAlpha = 0.9

// spec describes one workload: the system to boot and the traffic to offer.
// Every overlay.Options, core.Config and gateway.Options field stays at its
// default unless a workload's reason for existing requires otherwise, so the
// numbers are what terradird gives an operator who passes no flags.
type spec struct {
	name string
	why  string

	levels  int  // namespace is NewBalanced(2, levels)
	servers int  // overlay servers
	zipf    bool // Zipf(zipfAlpha) destinations, else uniform
	gateway bool // loopback-TCP peers behind a gateway, else in-process transport
	durable bool // persistence tier on, reads beside writes

	// rerank re-draws the Zipf popularity ranking between warm-up and
	// measurement: a flash-crowd shift, so routing caches warmed on the old
	// hot set must adapt while measured.
	rerank bool

	// openRate, when set, adds an open-loop phase to the traced pass:
	// arrivals per second on a fixed schedule, as independent users would
	// send them. Its latencies are reported per layer, not gated (README,
	// "Why every gated loop is closed").
	openRate float64

	roundOps int // operations per measured round
	warmOps  int // warm-up operations, charged to set-up

	// snapshotEvery is a durable workload's snapshot period while measured.
	// The library default (30 s) would complete none in a ten-second run, and
	// only entries a snapshot has covered may leave memory, so nothing would
	// be evicted or loaded cold either.
	snapshotEvery time.Duration

	// noTrace turns distributed tracing off on every node. No workload sets
	// it; the traced pass does, to price tracing itself.
	noTrace bool
}

// specs are the benchmark's workloads. Round sizes are set so that a round
// lasts most of a second on the 2-CPU reference host: long enough for a p99
// with forty or more samples beyond it, short enough that a run reports the
// median of ten rounds or more.
var specs = []spec{
	{
		name:   "wide-unif",
		why:    "64 servers x 512 nodes, uniform lookups, in-process: the paper's regime; routing, digests and shard queues do the work, no sockets or disk",
		levels: 15, servers: 64,
		roundOps: 20000, warmOps: 40000,
	},
	{
		name:   "dense-zipf",
		why:    "32 servers x 1024 nodes, Zipf(0.9), in-process: twice wide-unif's hosted state per server and a hot set, so snapshot publish and the fast path dominate, not routing",
		levels: 15, servers: 32, zipf: true,
		roundOps: 20000, warmOps: 40000,
	},
	{
		name:   "gw-tcp-zipf",
		why:    "8 loopback-TCP peers x 512 nodes behind a gateway, Zipf(0.9) re-ranked after warm-up: wire codec, sockets, gateway cache do the work; traced pass adds an open loop at 2000/s",
		levels: 12, servers: 8, zipf: true, gateway: true, rerank: true,
		openRate: 2000,
		roundOps: 8000, warmOps: 8000,
	},
	{
		name:   "durable-mixed",
		why:    "8 persistent servers x 1024 nodes at 1/10 residency, Zipf(0.9), 80% reads beside 20% owner writes, restart and read-back: WAL, snapshots, eviction, cold loads",
		levels: 13, servers: 8, zipf: true, durable: true,
		snapshotEvery: time.Second,
		roundOps:      4000, warmOps: 8000,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// clients is the closed loops' concurrency: two callers, or one on a
// single-CPU host where a second would only queue behind the first.
func clients() int {
	return min(runtime.NumCPU(), 2)
}

// writeFrac is durable-mixed's share of writes.
const writeFrac = 0.2

// dataBytes is the application payload seeded on every second node of
// durable-mixed; reads of those nodes fetch it (dataClient), the rest resolve
// only (Node.Lookup).
const dataBytes = 256

func hasData(nd core.NodeID) bool { return nd%2 == 0 }

// stream generates a workload's operations from the run's seed with the
// repo's own popularity machinery (internal/workload).
type stream struct {
	sp    spec
	w     *workload.Workload
	coin  *rng.Source
	owner []core.ServerID
	n     int // operations generated so far
}

// newStream builds the generator.
func newStream(sp spec, tree *namespace.Tree, owner []core.ServerID, seed uint64) *stream {
	src := rng.New(seed)
	var w *workload.Workload
	if sp.zipf {
		var reranks []float64
		if sp.rerank {
			reranks = []float64{float64(sp.warmOps)}
		}
		// Time is the operation index: the generator only needs it to be
		// non-decreasing and to place the re-rank.
		w = workload.New(sp.name, tree.Len(), src, []workload.Phase{{Kind: workload.Zipf, Alpha: zipfAlpha, Rate: 1}}, reranks)
	} else {
		w = workload.Unif(tree.Len(), src, 1, 0)
	}
	return &stream{sp: sp, w: w, coin: rng.New(seed ^ 0x5bd1e995), owner: owner}
}

func (s *stream) next(count int) []op {
	ops := make([]op, count)
	for i := range ops {
		o := op{dest: core.NodeID(s.w.Dest(float64(s.n))), src: int32(s.n % s.sp.servers)}
		if s.sp.durable && s.coin.Float64() < writeFrac {
			// A write is an owner's read-modify-write, so it is issued there.
			o.write = true
			o.src = int32(s.owner[o.dest])
		}
		ops[i] = o
		s.n++
	}
	return ops
}

// system is a booted workload: the cluster plus the bookkeeping its checks
// need.
type system struct {
	sp spec
	c  *cluster

	// durable-mixed only.
	dir     string
	mu      sync.Mutex
	acked   map[core.NodeID]string // last acknowledged value per written node
	wseq    uint64
	retried atomic.Int64 // second and third attempts
}

// boot brings the workload's system up, ready for traffic.
func boot(sp spec, tree *namespace.Tree, tap *tapTransport, dir string) (*system, error) {
	sys := &system{sp: sp, dir: dir}
	var err error
	switch {
	case sp.gateway:
		sys.c, err = newGatewayCluster(tree, sp.servers, tap)
	case sp.durable:
		sys.acked = make(map[core.NodeID]string)
		err = sys.bootDurable(tree, tap)
	default:
		var opts func(int) overlay.Options
		if sp.noTrace {
			opts = func(int) overlay.Options { return overlay.Options{TraceSample: -1} }
		}
		sys.c, err = newLocalCluster(tree, sp.servers, tap, opts)
		if err == nil {
			sys.c.start()
		}
	}
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// bootDurable prepares data directories the way a long-running deployment
// would have left them — payloads stored, one snapshot and index on disk —
// then restarts every node from them. The system measured is therefore a
// recovered one, and set-up time includes a full restart.
func (sys *system) bootDurable(tree *namespace.Tree, tap *tapTransport) error {
	sp := sys.sp
	per := tree.Len() / sp.servers
	// Frequent snapshots here only shorten the wait for the first one.
	seedOpts := func(i int) overlay.Options { return durableOpts(sys.dir, i, per, 50*time.Millisecond) }
	c, err := newLocalCluster(tree, sp.servers, nil, seedOpts)
	if err != nil {
		return err
	}
	payload := make([]byte, dataBytes)
	for nd, s := range c.owner {
		if hasData(core.NodeID(nd)) {
			copy(payload, strconv.Itoa(nd))
			if !c.nodes[s].StoreData(core.NodeID(nd), payload) {
				c.stop()
				return fmt.Errorf("server %d refused data for its own node %d", s, nd)
			}
		}
	}
	c.start()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	want := make([]float64, len(c.nodes))
	for i := range want {
		want[i] = 1
	}
	err = c.waitSnapshots(ctx, want)
	cancel()
	c.stop()
	if err != nil {
		return err
	}
	return sys.reopen(tree, tap)
}

// reopen boots the cluster from the existing data directories.
func (sys *system) reopen(tree *namespace.Tree, tap *tapTransport) error {
	per := tree.Len() / sys.sp.servers
	c, err := newLocalCluster(tree, sys.sp.servers, tap, func(i int) overlay.Options {
		return durableOpts(sys.dir, i, per, sys.sp.snapshotEvery)
	})
	if err != nil {
		return err
	}
	c.start()
	sys.c = c
	return nil
}

func (sys *system) stop() {
	if sys.c != nil {
		sys.c.stop()
		sys.c = nil
	}
}

func fromLookup(r overlay.LookupResult) answer {
	return answer{ok: r.OK, node: r.Node, name: r.Name, hosts: r.Hosts, hops: r.Hops, why: r.Reason.String()}
}

// attempts bounds an operation's tries. The system sometimes declines an
// operation it would complete a moment later, and a client — the gateway does
// it itself — simply asks again. At the seed commit: a lookup ends at its hop
// limit on stale routing state (rare once warm; one seen in ~500,000
// durable-mixed operations), an owner refuses a write because its copy of the
// node went back to disk after the lookup that loaded it (one write in
// ~5,000), or has no data to return for the same reason (one read in
// ~300,000). Extra attempts are counted and reported; an operation fails
// when every attempt was declined. A wrong answer is never retried.
const attempts = 3

// retryPause is how long a client waits before asking again, doubled before
// the third attempt. The states that decline an operation last well under a
// millisecond — in both hop-limit cases examined, three back-to-back
// attempts all failed and one a millisecond later succeeded.
const retryPause = 2 * time.Millisecond

// do executes o, asking again while the system declines it.
func (sys *system) do(ctx context.Context, o op) (answer, error) {
	for try := 1; ; try++ {
		a, err := sys.once(ctx, o)
		if err == nil || !errors.Is(err, errDeclined) || try == attempts || ctx.Err() != nil {
			return a, err
		}
		sys.retried.Add(1)
		time.Sleep(retryPause << (try - 1))
	}
}

// declined marks err as the system's own refusal or failure to complete an
// operation, as opposed to a wrong answer.
func declined(err error) error { return fmt.Errorf("%w: %w", errDeclined, err) }

// once makes one attempt at o and checks what comes back.
func (sys *system) once(ctx context.Context, o op) (answer, error) {
	c := sys.c
	switch {
	case sys.sp.gateway:
		r, err := c.gw.Lookup(ctx, o.dest)
		if err != nil {
			return answer{}, declined(err)
		}
		a := answer{ok: r.OK, node: r.Node, name: r.Name, hosts: r.Servers, hops: r.Hops, why: r.Reason.String()}
		return a, checkAnswer(c.tree, o.dest, a)
	case o.write:
		return sys.write(ctx, o)
	case sys.sp.durable && hasData(o.dest):
		// A read of a node with a payload resolves it and fetches the payload.
		a, err := sys.lookup(ctx, c.nodes[o.src], o.dest)
		if err != nil {
			return a, err
		}
		data, err := c.data.fetch(ctx, o.dest, a.hosts)
		if err != nil {
			return a, declined(err)
		}
		if want := strconv.Itoa(int(o.dest)); len(data) != dataBytes || string(data[:len(want)]) != want {
			return a, fmt.Errorf("node %d returned %d bytes of the wrong payload", o.dest, len(data))
		}
		return a, nil
	default:
		return sys.lookup(ctx, c.nodes[o.src], o.dest)
	}
}

func (sys *system) lookup(ctx context.Context, n *overlay.Node, dest core.NodeID) (answer, error) {
	r, err := n.Lookup(ctx, dest)
	if err != nil {
		return answer{}, declined(err)
	}
	a := fromLookup(r)
	return a, checkAnswer(sys.c.tree, dest, a)
}

// write is the owner's read-modify-write: resolve the node where it lives
// (which loads it from disk if it was cold), then replace its metadata.
func (sys *system) write(ctx context.Context, o op) (answer, error) {
	n := sys.c.nodes[o.src]
	a, err := sys.lookup(ctx, n, o.dest)
	if err != nil {
		return a, err
	}
	applied := false
	ran := n.Inspect(func(p *core.Peer) {
		sys.mu.Lock()
		sys.wseq++
		v := strconv.FormatUint(sys.wseq, 10)
		if p.SetMeta(o.dest, map[string]string{"v": v}) {
			sys.acked[o.dest] = v
			applied = true
		}
		sys.mu.Unlock()
	})
	if !ran {
		return a, declined(fmt.Errorf("server %d stopped during a write", o.src))
	}
	if !applied {
		return a, errRefused
	}
	return a, nil
}

// verify runs after the round, so a replica the answer named may have been
// evicted since. A miss is therefore checked once more against a fresh
// lookup before it counts as a wrong answer.
func (sys *system) verify(ctx context.Context, o op, hosts []core.ServerID) error {
	if checkHosted(sys.c.hostsNode, o.dest, hosts) == nil {
		return nil
	}
	var a answer
	var err error
	if sys.sp.gateway {
		a, err = sys.do(ctx, o)
	} else {
		a, err = sys.lookup(ctx, sys.c.nodes[o.src], o.dest)
	}
	if err != nil {
		return err
	}
	return checkHosted(sys.c.hostsNode, o.dest, a.hosts)
}

// restartAndReadBack stops every node, reopens them from their directories
// and reads every acknowledged write back at its owner. It returns how long
// the restart took — from the first reopen until every node has answered a
// lookup and every write has been read — and how many writes came back wrong.
//
// With quiesce set, the stop waits until a snapshot has covered the last
// write, so the restart finds an empty WAL tail. That is the restart the
// end-to-end run checks, and there every write must survive. Without it the
// nodes stop as they are, and at the seed commit that loses writes (README,
// "Findings"), which the traced pass reports as a per-layer number.
func (sys *system) restartAndReadBack(tree *namespace.Tree, quiesce bool) (took time.Duration, lost int, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if quiesce {
		// A snapshot already in flight may have taken its barrier before the
		// last write; the second to complete from now cannot have.
		done := sys.c.snapshotsWritten()
		for i := range done {
			done[i] += 2
		}
		if err := sys.c.waitSnapshots(ctx, done); err != nil {
			return 0, 0, err
		}
	}
	sys.stop()
	t0 := time.Now()
	if err := sys.reopen(tree, nil); err != nil {
		return 0, 0, err
	}
	// Ready means recovered and serving: each server resolves a node it
	// owns, which depends on that server alone. (Lookups that must be routed
	// can fail for good after a whole-cluster restart at the seed commit; see
	// README, "Findings".)
	probe := ownedBy(sys.c.owner, len(sys.c.nodes))
	for i, n := range sys.c.nodes {
		nd := probe[i][0]
		r, err := n.Lookup(ctx, nd)
		if err == nil {
			err = checkAnswer(tree, nd, fromLookup(r))
		}
		if err != nil {
			return 0, 0, fmt.Errorf("server %d after restart: %w", i, err)
		}
	}
	for nd, want := range sys.acked {
		r, err := sys.c.nodes[sys.c.owner[nd]].Lookup(ctx, nd)
		if err != nil {
			return 0, 0, fmt.Errorf("reading node %d back after restart: %w", nd, err)
		}
		if !r.OK || r.Meta.Attrs["v"] != want {
			lost++
		}
	}
	return time.Since(t0), lost, nil
}

// scratchDir makes a fresh directory for one durable boot, under the
// checkout's build directory so that nothing is written outside it.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "data-")
}
