package wire

import (
	"bytes"
	"reflect"
	"testing"

	"terradir/internal/bloom"
	"terradir/internal/core"
	"terradir/internal/telemetry"
)

func samplePiggy() core.Piggyback {
	f := bloom.New(128, 7)
	f.Add(core.NodeKey(3))
	f.Add(core.NodeKey(9))
	f.SetVersion(4)
	return core.Piggyback{
		From: 2,
		Load: 0.42,
		Adverts: []core.Advert{
			{Node: 5, Servers: []core.ServerID{1, 3}},
		},
		Digests: []core.DigestUpdate{{Server: 2, Digest: f}},
	}
}

func checkPiggy(t *testing.T, got, want core.Piggyback) {
	t.Helper()
	if got.From != want.From || got.Load != want.Load {
		t.Fatalf("piggy header: %+v vs %+v", got, want)
	}
	if !reflect.DeepEqual(got.Adverts, want.Adverts) {
		t.Fatalf("adverts: %+v vs %+v", got.Adverts, want.Adverts)
	}
	if len(got.Digests) != len(want.Digests) {
		t.Fatalf("digest count %d vs %d", len(got.Digests), len(want.Digests))
	}
	for i := range got.Digests {
		g, w := got.Digests[i], want.Digests[i]
		if g.Server != w.Server || g.Digest.Version() != w.Digest.Version() {
			t.Fatalf("digest %d metadata mismatch", i)
		}
		if !g.Digest.Test(core.NodeKey(3)) || !g.Digest.Test(core.NodeKey(9)) {
			t.Fatalf("digest %d lost members", i)
		}
	}
}

func roundTrip(t *testing.T, m core.Message) core.Message {
	t.Helper()
	data, err := Encode(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestQueryRoundTrip(t *testing.T) {
	q := &core.QueryMsg{
		QueryID:  42,
		Dest:     7,
		Source:   3,
		OnBehalf: 5,
		Hops:     2,
		Started:  1.25,
		PrevDist: 4,
		Path: []core.PathEntry{
			{Node: 1, Map: core.NodeMap{Servers: []core.ServerID{0, 2}, NumAdvertised: 1}},
			{Node: 9, Map: core.SingleServerMap(4)},
		},
		Piggy: samplePiggy(),
	}
	got := roundTrip(t, q).(*core.QueryMsg)
	if got.QueryID != q.QueryID || got.Dest != q.Dest || got.Source != q.Source ||
		got.OnBehalf != q.OnBehalf || got.Hops != q.Hops || got.Started != q.Started ||
		got.PrevDist != q.PrevDist {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Path, q.Path) {
		t.Fatalf("path mismatch: %+v vs %+v", got.Path, q.Path)
	}
	checkPiggy(t, got.Piggy, q.Piggy)
}

func TestResultRoundTrip(t *testing.T) {
	r := &core.ResultMsg{
		QueryID: 9,
		Dest:    11,
		OK:      true,
		Reason:  core.FailNone,
		Hops:    3,
		Started: 0.5,
		Meta:    core.Meta{Version: 2, Attrs: map[string]string{"k": "v"}},
		Map:     core.NodeMap{Servers: []core.ServerID{1, 5}, NumAdvertised: 1},
		Path:    []core.PathEntry{{Node: 11, Map: core.SingleServerMap(5)}},
		Piggy:   samplePiggy(),
	}
	got := roundTrip(t, r).(*core.ResultMsg)
	if got.QueryID != 9 || !got.OK || got.Hops != 3 || got.Meta.Attrs["k"] != "v" {
		t.Fatalf("result mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Map, r.Map) {
		t.Fatalf("map mismatch: %+v", got.Map)
	}
}

func TestFailureResultRoundTrip(t *testing.T) {
	r := &core.ResultMsg{QueryID: 1, Dest: 2, OK: false, Reason: core.FailTTL, Hops: 64}
	got := roundTrip(t, r).(*core.ResultMsg)
	if got.OK || got.Reason != core.FailTTL {
		t.Fatalf("failure result mismatch: %+v", got)
	}
}

func TestControlRoundTrips(t *testing.T) {
	probe := &core.LoadProbeMsg{Session: 3, From: 1, Piggy: samplePiggy()}
	gp := roundTrip(t, probe).(*core.LoadProbeMsg)
	if gp.Session != 3 || gp.From != 1 {
		t.Fatalf("probe mismatch: %+v", gp)
	}
	checkPiggy(t, gp.Piggy, probe.Piggy)

	reply := &core.LoadProbeReply{Session: 3, From: 2, Load: 0.7}
	gr := roundTrip(t, reply).(*core.LoadProbeReply)
	if gr.Session != 3 || gr.From != 2 || gr.Load != 0.7 {
		t.Fatalf("probe reply mismatch: %+v", gr)
	}

	req := &core.ReplicateRequest{
		Session: 5,
		From:    1,
		Load:    0.9,
		Nodes: []core.ReplicaPayload{{
			Node:       4,
			Meta:       core.Meta{Version: 1},
			SelfMap:    core.SingleServerMap(1),
			WeightHint: 12.5,
			Neighbors:  []core.NeighborMap{{Node: 2, Map: core.SingleServerMap(0)}},
		}},
	}
	gq := roundTrip(t, req).(*core.ReplicateRequest)
	if gq.Session != 5 || gq.Load != 0.9 || len(gq.Nodes) != 1 {
		t.Fatalf("request mismatch: %+v", gq)
	}
	if gq.Nodes[0].WeightHint != 12.5 || len(gq.Nodes[0].Neighbors) != 1 {
		t.Fatalf("payload mismatch: %+v", gq.Nodes[0])
	}

	rep := &core.ReplicateReply{
		Session:  core.ServerSession{ID: 5, From: 2},
		Accepted: []core.NodeID{4},
		Load:     0.55,
	}
	gg := roundTrip(t, rep).(*core.ReplicateReply)
	if gg.Session.ID != 5 || gg.Session.From != 2 || len(gg.Accepted) != 1 || gg.Accepted[0] != 4 {
		t.Fatalf("reply mismatch: %+v", gg)
	}
}

func TestTraceFieldsRoundTrip(t *testing.T) {
	spans := []telemetry.Span{
		{Seq: 0, Server: 1, Node: 3, Reason: telemetry.HopChild, QueueWaitMicros: 12, ServiceMicros: 340},
		{Seq: 1, Server: 4, Node: 7, Reason: telemetry.HopCache, QueueWaitMicros: 5, ServiceMicros: 88},
	}
	q := &core.QueryMsg{
		QueryID:  8,
		Dest:     7,
		Source:   1,
		TraceID:  0xdeadbeefcafe,
		Enqueued: 99.5, // driver-local: must NOT survive the wire
		ServedAt: 99.6,
	}
	gq := roundTrip(t, q).(*core.QueryMsg)
	if gq.TraceID != q.TraceID {
		t.Fatalf("trace header mismatch: %+v", gq)
	}
	if gq.Enqueued != 0 || gq.ServedAt != 0 {
		t.Fatalf("driver-local timestamps crossed the wire: %+v", gq)
	}

	r := &core.ResultMsg{QueryID: 8, Dest: 7, OK: true, Hops: 1, TraceID: q.TraceID}
	gr := roundTrip(t, r).(*core.ResultMsg)
	if gr.TraceID != q.TraceID {
		t.Fatalf("result trace mismatch: %+v", gr)
	}

	ts := &core.TraceSpanMsg{TraceID: q.TraceID, Span: spans[1], Piggy: samplePiggy()}
	gt := roundTrip(t, ts).(*core.TraceSpanMsg)
	if gt.TraceID != q.TraceID || gt.Span != spans[1] {
		t.Fatalf("trace-span mismatch: %+v", gt)
	}
	checkPiggy(t, gt.Piggy, ts.Piggy)
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Decode([]byte{99, 0, 0}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Decode([]byte{1, 0xff}); err == nil {
		t.Fatal("garbage gob accepted")
	}
	// Corrupt digest payload inside an otherwise valid message.
	q := &core.QueryMsg{QueryID: 1, Piggy: samplePiggy()}
	data, err := Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	_ = data // valid baseline decodes fine
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeUnknownType(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("nil message accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, []byte{1}); err != nil {
		t.Fatal(err)
	}
	got1, err := ReadFrame(&buf)
	if err != nil || string(got1) != "hello frames" {
		t.Fatalf("frame 1: %q %v", got1, err)
	}
	got2, err := ReadFrame(&buf)
	if err != nil || len(got2) != 1 || got2[0] != 1 {
		t.Fatalf("frame 2: %v %v", got2, err)
	}
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("read from empty buffer succeeded")
	}
}

func TestFrameBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Zero-length header.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Huge advertised length.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame header accepted")
	}
	// Truncated body.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestEncodedMessageThroughFrames(t *testing.T) {
	q := &core.QueryMsg{QueryID: 7, Dest: 3, Source: 1, Piggy: samplePiggy()}
	data, err := Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, data); err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if m.(*core.QueryMsg).QueryID != 7 {
		t.Fatal("query lost through framing")
	}
}

func TestDataMessagesRoundTrip(t *testing.T) {
	req := &core.DataRequest{ReqID: 11, Node: 4, From: 2, Piggy: samplePiggy()}
	gq := roundTrip(t, req).(*core.DataRequest)
	if gq.ReqID != 11 || gq.Node != 4 || gq.From != 2 {
		t.Fatalf("data request mismatch: %+v", gq)
	}
	rep := &core.DataReply{ReqID: 11, Node: 4, OK: true, Data: []byte{1, 2, 3}, From: 5}
	gr := roundTrip(t, rep).(*core.DataReply)
	if gr.ReqID != 11 || !gr.OK || string(gr.Data) != "\x01\x02\x03" || gr.From != 5 {
		t.Fatalf("data reply mismatch: %+v", gr)
	}
	miss := &core.DataReply{ReqID: 12, Node: 4, OK: false, From: 5}
	gm := roundTrip(t, miss).(*core.DataReply)
	if gm.OK || gm.Data != nil {
		t.Fatalf("negative data reply mismatch: %+v", gm)
	}
}

func TestMembershipRoundTrip(t *testing.T) {
	m := &core.MembershipMsg{
		Kind:   core.MembershipAck,
		Seq:    77,
		From:   3,
		Target: 9,
		Updates: []core.MemberUpdate{
			{Server: 1, State: 0, Incarnation: 4, Addr: "10.0.0.1:7100"},
			{Server: 2, State: 2, Incarnation: 0},
		},
	}
	got := roundTrip(t, m).(*core.MembershipMsg)
	if got.Kind != m.Kind || got.Seq != m.Seq || got.From != m.From || got.Target != m.Target {
		t.Fatalf("membership header mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Updates, m.Updates) {
		t.Fatalf("updates mismatch: %+v vs %+v", got.Updates, m.Updates)
	}

	w := &core.MembershipMsg{
		Kind: core.MembershipWarmup,
		From: 5,
		Warmup: []core.PathEntry{
			{Node: 2, Map: core.NodeMap{Servers: []core.ServerID{5, 1}, NumAdvertised: 1}},
			{Node: 8, Map: core.SingleServerMap(5)},
		},
	}
	gw := roundTrip(t, w).(*core.MembershipMsg)
	if gw.Kind != core.MembershipWarmup || !reflect.DeepEqual(gw.Warmup, w.Warmup) {
		t.Fatalf("warmup mismatch: %+v vs %+v", gw, w)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := &core.HelloMsg{ID: core.ClientID(3), Role: core.RoleClient}
	got := roundTrip(t, h).(*core.HelloMsg)
	if got.ID != h.ID || got.Role != h.Role {
		t.Fatalf("hello mismatch: got %+v want %+v", got, h)
	}
	if !core.IsClient(got.ID) {
		t.Fatalf("ClientID(3)=%d not in client range", got.ID)
	}
}
