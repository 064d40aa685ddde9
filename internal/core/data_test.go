package core

import "testing"

func TestSetDataOwnerOnly(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	if !p.SetData(ids["/u"], []byte("root-data")) {
		t.Fatal("owner refused data")
	}
	if p.SetData(ids["/u/pub"], []byte("x")) {
		t.Fatal("non-hosted node accepted data")
	}
	// Replicas never store data.
	pl := ReplicaPayload{Node: ids["/u/pub"], SelfMap: SingleServerMap(1), WeightHint: 1}
	if !p.installReplica(&pl, 1) {
		t.Fatal("install failed")
	}
	if p.SetData(ids["/u/pub"], []byte("x")) {
		t.Fatal("replica accepted data")
	}
	if _, ok := p.DataOf(ids["/u/pub"]); ok {
		t.Fatal("replica reported data")
	}
	data, ok := p.DataOf(ids["/u"])
	if !ok || string(data) != "root-data" {
		t.Fatalf("DataOf = %q %v", data, ok)
	}
}

func TestDataOfReturnsCopy(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	orig := []byte("abc")
	p.SetData(ids["/u"], orig)
	orig[0] = 'x' // SetData must have copied
	got, _ := p.DataOf(ids["/u"])
	if string(got) != "abc" {
		t.Fatalf("SetData aliased caller buffer: %q", got)
	}
	got[0] = 'y' // DataOf must return a copy
	got2, _ := p.DataOf(ids["/u"])
	if string(got2) != "abc" {
		t.Fatalf("DataOf aliased internal buffer: %q", got2)
	}
}

func TestDataRequestHandler(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), env)
	p.SetData(ids["/u"], []byte("blob"))

	p.HandleControl(&DataRequest{ReqID: 5, Node: ids["/u"], From: 3})
	sent := env.take()
	if len(sent) != 1 || sent[0].to != 3 {
		t.Fatalf("reply routing wrong: %+v", sent)
	}
	rep := sent[0].msg.(*DataReply)
	if !rep.OK || string(rep.Data) != "blob" || rep.ReqID != 5 || rep.From != 0 {
		t.Fatalf("reply wrong: %+v", rep)
	}

	// Request for a node we do not own: negative reply.
	p.HandleControl(&DataRequest{ReqID: 6, Node: ids["/u/priv"], From: 3})
	rep2 := env.take()[0].msg.(*DataReply)
	if rep2.OK || rep2.Data != nil {
		t.Fatalf("negative reply wrong: %+v", rep2)
	}
}

func TestDataReplyAbsorbsPiggy(t *testing.T) {
	tree, ids := paperTree()
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"]}, 1, DefaultConfig(), &fakeEnv{})
	p.HandleControl(&DataReply{ReqID: 1, Node: ids["/u"], From: 7, Piggy: Piggyback{From: 7, Load: 0.6}})
	if load, ok := p.knownLoads[7]; !ok || load != 0.6 {
		t.Fatal("data reply rider not absorbed")
	}
}
