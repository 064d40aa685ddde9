package overlay

import (
	"context"
	"math"
	"testing"
	"time"

	"terradir/internal/core"
	"terradir/internal/telemetry"
)

// TestTCPLookupTraceEndToEnd routes a traced lookup between two live TCP
// peers and checks that the result's span chain describes the route: one
// span per hop in Seq order, the first produced by the initiating server,
// the last a resolve at the destination's owner — and that the initiator's
// trace store holds the same, complete, record.
func TestTCPLookupTraceEndToEnd(t *testing.T) {
	nodes, _, _ := startTCPPairNodes(t, TCPTransportOptions{}, Options{TraceSample: 1})
	owner := Assign(testTree(), 2, 7)
	dest := ownedByServer(t, owner, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := nodes[0].Lookup(ctx, dest)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("lookup failed: %s", res.Reason)
	}
	if res.TraceID == 0 {
		t.Fatal("lookup not traced despite TraceSample=1")
	}
	if len(res.Trace) != res.Hops+1 {
		t.Fatalf("trace has %d spans for %d hops, want %d", len(res.Trace), res.Hops, res.Hops+1)
	}
	for i, sp := range res.Trace {
		if int(sp.Seq) != i {
			t.Fatalf("span %d has Seq %d: chain not contiguous: %+v", i, sp.Seq, res.Trace)
		}
		if sp.QueueWaitMicros < 0 || sp.ServiceMicros < 0 {
			t.Fatalf("span %d has negative timing: %+v", i, sp)
		}
	}
	if res.Trace[0].Server != 0 {
		t.Fatalf("first span from server %d, want the initiator 0", res.Trace[0].Server)
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Reason != telemetry.HopResolve {
		t.Fatalf("terminal span reason %s, want resolve", last.Reason)
	}
	if last.Server != int32(owner[dest]) || last.Node != int32(dest) {
		t.Fatalf("resolve span at server %d for node %d, want %d/%d",
			last.Server, last.Node, owner[dest], dest)
	}
	for _, sp := range res.Trace[:len(res.Trace)-1] {
		switch sp.Reason {
		case telemetry.HopParent, telemetry.HopChild, telemetry.HopCache, telemetry.HopReplica:
		default:
			t.Fatalf("intermediate span has non-forwarding reason %s: %+v", sp.Reason, sp)
		}
	}

	// Complete is called before Lookup returns, so the store is settled.
	rec, ok := nodes[0].Traces().Get(res.TraceID)
	if !ok {
		t.Fatal("trace store has no record for the lookup")
	}
	if !rec.Done || !rec.OK || rec.Hops != res.Hops {
		t.Fatalf("store record out of sync with result: %+v", rec)
	}
	if rec.Truncated() {
		t.Fatalf("completed trace reads as truncated: %+v", rec.Spans)
	}
	if len(rec.Spans) != len(res.Trace) {
		t.Fatalf("store kept %d spans, result carried %d", len(rec.Spans), len(res.Trace))
	}
}

// TestTCPLookupTraceTruncatedOnDrop injects a fault that swallows the query
// as it leaves the initiator: the lookup times out, but the out-of-band span
// report from hop 0 has already reached the initiator's trace store, leaving
// a partial record that reads as truncated — the observable a dropped query
// is supposed to leave behind.
func TestTCPLookupTraceTruncatedOnDrop(t *testing.T) {
	tree := testTree()
	owner := Assign(tree, 2, 7)
	ownerOf := func(nd core.NodeID) core.ServerID { return owner[nd] }
	ownedBy := make([][]core.NodeID, 2)
	for nd, s := range owner {
		ownedBy[s] = append(ownedBy[s], core.NodeID(nd))
	}
	addrs := map[core.ServerID]string{}
	transports := make([]*TCPTransport, 2)
	for i := 0; i < 2; i++ {
		tr, err := NewTCPTransportOpts(core.ServerID(i), "127.0.0.1:0", addrs, TCPTransportOptions{})
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		addrs[core.ServerID(i)] = tr.Addr()
	}
	fault := NewFaultTransport(transports[0], FaultOptions{Seed: 1})
	fault.SetDropFilter(func(from, to core.ServerID, m core.Message) bool {
		_, isQuery := m.(*core.QueryMsg)
		return isQuery // queries never leave server 0; control traffic flows
	})
	nodes := make([]*Node, 2)
	for i := 0; i < 2; i++ {
		n, err := NewNode(core.ServerID(i), tree, ownedBy[i], ownerOf, Options{Seed: uint64(i) + 1, TraceSample: 1})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	StartTCPNodeVia(nodes[0], transports[0], fault)
	StartTCPNode(nodes[1], transports[1])
	t.Cleanup(func() {
		for i := range nodes {
			nodes[i].Stop()
			transports[i].Close()
		}
	})

	dest := ownedByServer(t, owner, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	if _, err := nodes[0].Lookup(ctx, dest); err == nil {
		t.Fatal("lookup completed despite the query being dropped")
	}
	if fault.Stats().FaultDrops == 0 {
		t.Fatal("fault transport never dropped the query")
	}

	// Hop 0's span self-report bypasses the transport but still crosses the
	// control channel asynchronously; wait for it.
	store := nodes[0].Traces()
	waitFor(t, 2*time.Second, func() bool { return store.Len() > 0 })
	ids := store.IDs()
	if len(ids) != 1 {
		t.Fatalf("trace store holds %d records, want 1", len(ids))
	}
	rec, ok := store.Get(ids[0])
	if !ok {
		t.Fatal("trace vanished from store")
	}
	if rec.Done {
		t.Fatalf("trace marked done but no result ever arrived: %+v", rec)
	}
	if !rec.Truncated() {
		t.Fatal("dropped lookup's trace should read as truncated")
	}
	if len(rec.Spans) == 0 {
		t.Fatal("truncated trace kept no spans; hop 0's report was lost")
	}
	sp := rec.Spans[0]
	if sp.Seq != 0 || sp.Server != 0 {
		t.Fatalf("surviving span should be hop 0 at the initiator: %+v", sp)
	}
	switch sp.Reason {
	case telemetry.HopParent, telemetry.HopChild, telemetry.HopCache, telemetry.HopReplica:
	default:
		t.Fatalf("hop 0 should record a forwarding reason, got %s", sp.Reason)
	}
}

// TestDefaultTraceSampleShare: a node left at the default traces a share of
// its lookups within binomial bounds of DefaultTraceSample, decided by (seed,
// query ID) alone — a second node with the same seed traces the same lookups.
func TestDefaultTraceSampleShare(t *testing.T) {
	tree := testTree()
	owned := make([]core.NodeID, tree.Len())
	for i := range owned {
		owned[i] = core.NodeID(i)
	}
	ownerOf := func(core.NodeID) core.ServerID { return 0 }
	node := func() *Node {
		n, err := NewNode(0, tree, owned, ownerOf, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b := node(), node()
	if a.opts.TraceSample != DefaultTraceSample {
		t.Fatalf("TraceSample filled as %v, want DefaultTraceSample %v", a.opts.TraceSample, DefaultTraceSample)
	}
	const lookups = 64000
	traced := 0
	for qid := uint64(1); qid <= lookups; qid++ {
		id := a.traceID(qid)
		if id != b.traceID(qid) {
			t.Fatalf("query %d: same seed, trace IDs %d and %d", qid, id, b.traceID(qid))
		}
		if id != 0 {
			traced++
		}
	}
	mean := lookups * DefaultTraceSample
	sd := math.Sqrt(mean * (1 - DefaultTraceSample))
	if math.Abs(float64(traced)-mean) > 4*sd {
		t.Fatalf("traced %d of %d lookups, want %.0f ± %.0f", traced, lookups, mean, 4*sd)
	}
}
