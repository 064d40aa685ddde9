package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"terradir/internal/core"
	"terradir/internal/namespace"
	"terradir/internal/overlay"
	"terradir/internal/persist"
	"terradir/internal/rng"
	"terradir/internal/wire"
)

// This file times each layer's public functions in isolation, on state
// shaped like the workload's: the benchmark's spans around calls into the
// layers. The cluster is stopped while these run, so process-wide allocation
// counts belong to the function under test.

// layerSlice is how long each isolated timing runs. Some twenty of them must
// fit beside the traced rounds inside one run. The smoke test shortens it.
var layerSlice = 100 * time.Millisecond

// timeOp calls fn in batches until the slice is spent and returns the mean
// nanoseconds and heap allocations per call.
func timeOp(fn func()) (ns, allocs float64) {
	const batch = 64
	fn() // first call pays one-off growth (pools, lazily sized buffers)
	a0 := heapAllocs()
	t0 := time.Now()
	calls := 0
	for time.Since(t0) < layerSlice {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
	}
	el := time.Since(t0)
	return float64(el.Nanoseconds()) / float64(calls), float64(heapAllocs()-a0) / float64(calls)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

func traceNamespace(m map[string]metric, tree *namespace.Tree) {
	src := rng.New(11)
	n := tree.Len()
	pairs := make([][2]core.NodeID, 1024)
	names := make([]string, len(pairs))
	for i := range pairs {
		pairs[i] = [2]core.NodeID{core.NodeID(src.Intn(n)), core.NodeID(src.Intn(n))}
		names[i] = tree.Name(pairs[i][0])
	}
	i := 0
	ns, _ := timeOp(func() { p := pairs[i%len(pairs)]; sink += tree.Distance(p[0], p[1]); i++ })
	m["namespace.distance_ns"] = metric{ns, "ns"}
	ns, _ = timeOp(func() { p := pairs[i%len(pairs)]; sink += int(tree.LCA(p[0], p[1])); i++ })
	m["namespace.lca_ns"] = metric{ns, "ns"}
	ns, _ = timeOp(func() { sink += int(tree.Lookup(names[i%len(names)])); i++ })
	m["namespace.lookup_name_ns"] = metric{ns, "ns"}
}

// discardEnv is the core.Env of the standalone peer: a clock, and a network
// that drops everything.
type discardEnv struct{}

func (discardEnv) Now() float64                     { return 1 }
func (discardEnv) Load() float64                    { return 0.1 }
func (discardEnv) Send(core.ServerID, core.Message) {}
func (discardEnv) After(float64, func())            {}

// standalonePeer builds server 0 of the workload's cluster outside any
// overlay: its owned nodes, every other server's digest, and a full routing
// cache. resident, when positive, caps how many of its nodes server 0 holds:
// a server with a hot cache keeps only that many in the memory its routing
// snapshot is built from.
func standalonePeer(tree *namespace.Tree, owner []core.ServerID, servers, resident int) (p *core.Peer, mine []core.NodeID, digests []core.DigestUpdate, err error) {
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	owned := ownedBy(owner, servers)
	if resident > 0 && resident < len(owned[0]) {
		owned[0] = owned[0][:resident]
	}
	build := func(s int) (*core.Peer, error) {
		p, err := core.NewPeer(core.ServerID(s), tree, core.DefaultConfig(), discardEnv{}, rng.New(uint64(s)+1))
		if err != nil {
			return nil, err
		}
		for _, nd := range owned[s] {
			p.AddOwned(nd, core.Meta{})
		}
		p.FinishSetup(ownerOf)
		return p, nil
	}
	if p, err = build(0); err != nil {
		return nil, nil, nil, err
	}
	var pb core.Piggyback
	for s := 1; s < servers; s++ {
		other, err := build(s)
		if err != nil {
			return nil, nil, nil, err
		}
		pb.Digests = append(pb.Digests, core.DigestUpdate{Server: core.ServerID(s), Digest: other.Digest()})
	}
	src := rng.New(5)
	var learned []core.PathEntry
	for i := 0; i < core.DefaultConfig().CacheSlots; i++ {
		nd := core.NodeID(src.Intn(tree.Len()))
		if owner[nd] != 0 {
			learned = append(learned, core.PathEntry{Node: nd, Map: core.SingleServerMap(owner[nd])})
		}
	}
	p.FastAbsorb(pb, learned)
	return p, owned[0], pb.Digests, nil
}

func traceCoreAndBloom(m map[string]metric, tree *namespace.Tree, owner []core.ServerID, servers, resident int) error {
	p, mine, digests, err := standalonePeer(tree, owner, servers, resident)
	if err != nil {
		return err
	}
	// bloom: a whole server's digest (server 1's), the thing every other
	// server stores, ships and tests.
	digest := digests[0].Digest
	m["bloom.digest_bytes"] = metric{float64(len(digest.Marshal())), "B"}
	src := rng.New(7)
	keys := make([]uint64, 1024)
	dests := make([]core.NodeID, len(keys))
	for i := range keys {
		dests[i] = core.NodeID(src.Intn(tree.Len()))
		keys[i] = core.NodeKey(dests[i])
	}
	i := 0
	ns, _ := timeOp(func() {
		if digest.Test(keys[i%len(keys)]) {
			sink++
		}
		i++
	})
	m["bloom.test_ns"] = metric{ns, "ns"}

	// core: the loop path on uniformly drawn destinations (mostly forwards).
	ns, allocs := timeOp(func() {
		p.HandleQuery(&core.QueryMsg{QueryID: uint64(i), Dest: dests[i%len(dests)], Source: 1, OnBehalf: namespace.Invalid})
		i++
	})
	m["core.handle_query_ns"] = metric{ns, "ns"}
	m["core.handle_query_allocs"] = metric{allocs, "count"}

	ns, allocs = timeOp(p.PublishSnapshot)
	m["core.publish_snapshot_us"] = metric{ns / 1e3, "us"}
	m["core.publish_snapshot_allocs"] = metric{allocs, "count"}

	// The fast path's hit: a destination this server hosts, answered from the
	// published snapshot.
	snap := p.RoutingSnapshot()
	if snap == nil {
		return fmt.Errorf("standalone peer published no routing snapshot")
	}
	send := func(core.ServerID, core.Message) {}
	absorb := func(core.Piggyback, []core.PathEntry) {}
	var bad error
	ns, _ = timeOp(func() {
		q := &core.QueryMsg{QueryID: uint64(i), Dest: mine[i%len(mine)], Source: 1, OnBehalf: namespace.Invalid}
		if out := snap.HandleQueryFast(q, 1, core.NodeMap{}, send, absorb); out != core.FastResolved {
			bad = fmt.Errorf("fast path answered %d for a hosted node, want resolved", out)
		}
		i++
	})
	m["core.fast_query_ns"] = metric{ns, "ns"}
	return bad
}

// traceWire replays the frames the tap sampled from live traffic.
func traceWire(m map[string]metric, samples [][]byte) error {
	var queries, results []core.Message
	var qFrames, rFrames [][]byte
	var qBytes, rBytes int
	for _, f := range samples {
		msg, err := wire.Decode(f)
		if err != nil {
			return fmt.Errorf("decoding a sampled frame: %w", err)
		}
		switch msg.(type) {
		case *core.QueryMsg:
			queries = append(queries, msg)
			qFrames = append(qFrames, f)
			qBytes += len(f)
		case *core.ResultMsg:
			results = append(results, msg)
			rFrames = append(rFrames, f)
			rBytes += len(f)
		}
	}
	if len(queries) == 0 || len(results) == 0 {
		return fmt.Errorf("tap sampled %d queries and %d results; need both", len(queries), len(results))
	}
	m["wire.query_bytes_mean"] = metric{float64(qBytes) / float64(len(queries)), "B"}
	m["wire.result_bytes_mean"] = metric{float64(rBytes) / float64(len(results)), "B"}

	var buf []byte
	var bad error
	i := 0
	encode := func(msgs []core.Message) float64 {
		ns, _ := timeOp(func() {
			var err error
			if buf, err = wire.AppendMessage(buf[:0], msgs[i%len(msgs)]); err != nil {
				bad = err
			}
			i++
		})
		return ns
	}
	m["wire.encode_query_ns"] = metric{encode(queries), "ns"}
	m["wire.encode_result_ns"] = metric{encode(results), "ns"}

	decode := func(fs [][]byte) (float64, float64) {
		return timeOp(func() {
			if _, err := wire.Decode(fs[i%len(fs)]); err != nil {
				bad = err
			}
			i++
		})
	}
	qns, qa := decode(qFrames)
	rns, ra := decode(rFrames)
	m["wire.decode_query_ns"] = metric{qns, "ns"}
	m["wire.decode_result_ns"] = metric{rns, "ns"}
	m["wire.decode_allocs"] = metric{(qa + ra) / 2, "count"}

	// FrameReader over a byte stream of every sampled frame, as a connection
	// would deliver them; the reader is re-armed when the stream runs dry.
	var stream bytes.Buffer
	for _, f := range samples {
		if err := wire.WriteFrame(&stream, f); err != nil {
			return err
		}
	}
	rd := bytes.NewReader(stream.Bytes())
	fr := wire.NewFrameReader(rd)
	ns, _ := timeOp(func() {
		f, err := fr.Next()
		if err != nil {
			rd.Reset(stream.Bytes())
			fr.Release()
			fr = wire.NewFrameReader(rd)
			f, err = fr.Next()
		}
		if err != nil {
			bad = err
		}
		sink += len(f)
	})
	fr.Release()
	m["wire.framereader_next_ns"] = metric{ns, "ns"}
	return bad
}

// traceTCPEcho measures one message's round trip between two TCP transports
// on loopback: encode, queue, write, read, decode, deliver, and back.
func traceTCPEcho(m map[string]metric) error {
	var a, b *overlay.TCPTransport
	a, err := overlay.NewTCPTransport(0, "127.0.0.1:0", map[core.ServerID]string{})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err = overlay.NewTCPTransport(1, "127.0.0.1:0", map[core.ServerID]string{0: a.Addr()})
	if err != nil {
		return err
	}
	defer b.Close()
	a.SetAddr(1, b.Addr())
	back := make(chan struct{}, 1)
	a.ServeFunc(func(core.Message) { back <- struct{}{} })
	b.ServeFunc(func(msg core.Message) {
		if q, ok := msg.(*core.QueryMsg); ok {
			_ = b.Send(1, 0, &core.ResultMsg{QueryID: q.QueryID, Dest: q.Dest, OK: true})
		}
	})
	var rtts []float64
	deadline := time.Now().Add(4 * layerSlice)
	for i := 0; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		if err := a.Send(0, 1, &core.QueryMsg{QueryID: uint64(i + 1), Dest: 1, Source: 0, OnBehalf: namespace.Invalid}); err != nil {
			return err
		}
		select {
		case <-back:
		case <-time.After(2 * time.Second):
			return fmt.Errorf("tcp echo %d got no reply", i)
		}
		if i > 0 { // the first round trip pays the dials
			rtts = append(rtts, micros(time.Since(t0)))
		}
	}
	sort.Float64s(rtts)
	m["overlay.tcp_rtt_p50_us"] = metric{percentile(rtts, 0.5), "us"}
	return nil
}

// traceLocalLookup times one idle node resolving destinations it hosts: the
// floor under every client call (Lookup's bookkeeping plus one fast-path
// answer, no forwarding).
func traceLocalLookup(m map[string]metric, c *cluster) error {
	mine := ownedBy(c.owner, len(c.nodes))[0]
	ctx := context.Background()
	var bad error
	i := 0
	ns, _ := timeOp(func() {
		nd := mine[i%len(mine)]
		r, err := c.nodes[0].Lookup(ctx, nd)
		if err == nil {
			err = checkAnswer(c.tree, nd, fromLookup(r))
		}
		if err != nil {
			bad = err
		}
		i++
	})
	m["overlay.local_lookup_ns"] = metric{ns, "ns"}
	return bad
}

// tracePersist times the store's own calls on a store of its own, sized like
// one durable-mixed server: append and group-commit flush, snapshot-index
// point reads, and a replay of what was appended.
func tracePersist(m map[string]metric, hostedPerServer int) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "persist-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := persist.Options{NodeIndex: true, Logf: func(string, ...any) {}}
	st, _, err := persist.Open(dir, opts)
	if err != nil {
		return err
	}
	defer func() { st.Close() }()

	// A snapshot of one server's partition, and point reads through its index.
	recs := make([]core.HostedMutation, hostedPerServer)
	payload := make([]byte, dataBytes)
	for i := range recs {
		recs[i] = core.HostedMutation{Kind: core.MutUpsert, Node: core.NodeID(i * 8), Owned: true, HasData: true,
			Meta: core.Meta{Version: 1, Attrs: map[string]string{"v": strconv.Itoa(i)}},
			Map:  core.SingleServerMap(0), Data: payload}
	}
	seq, err := st.Mark()
	if err != nil {
		return err
	}
	if err := st.WriteSnapshot(seq, 0, recs); err != nil {
		return err
	}
	ix := st.AcquireIndex()
	if ix == nil {
		return fmt.Errorf("snapshot built no index")
	}
	var bad error
	i := 0
	ns, _ := timeOp(func() {
		rec, err := ix.Get(core.NodeID((i * 7919 % hostedPerServer) * 8))
		if err != nil || rec == nil {
			bad = fmt.Errorf("index read: %v (record %v)", err, rec)
		}
		i++
	})
	ix.Release()
	m["persist.index_get_us"] = metric{ns / 1e3, "us"}

	// Appends as a write makes them, flushed in groups of a shard batch.
	const group = 64
	mu := &core.HostedMutation{Kind: core.MutMeta, Node: 8, Meta: core.Meta{Version: 2, Attrs: map[string]string{"v": "123456"}}}
	var appendT, flushT time.Duration
	appends, flushes := 0, 0
	for t0 := time.Now(); time.Since(t0) < 2*layerSlice; {
		a := time.Now()
		for k := 0; k < group; k++ {
			if err := st.Append(mu); err != nil {
				return err
			}
		}
		b := time.Now()
		if err := st.Flush(); err != nil {
			return err
		}
		appendT += b.Sub(a)
		flushT += time.Since(b)
		appends += group
		flushes++
	}
	m["persist.wal_append_ns"] = metric{float64(appendT.Nanoseconds()) / float64(appends), "ns"}
	m["persist.wal_flush_us"] = metric{micros(flushT) / float64(flushes), "us"}

	// Replay: reopen the directory and count what comes back per second.
	if err := st.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	st2, rs, err := persist.Open(dir, opts)
	if err != nil {
		return err
	}
	took := time.Since(t0)
	st = st2
	replayed := len(rs.Mutations) + rs.IndexedRecords
	if len(rs.Mutations) != appends {
		return fmt.Errorf("replay returned %d WAL records, appended %d", len(rs.Mutations), appends)
	}
	m["persist.replay_records_per_s"] = metric{float64(replayed) / took.Seconds(), "1/s"}
	return bad
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a snapshot or WAL segment retired mid-walk
			}
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
