package core

import (
	"reflect"
	"testing"

	"terradir/internal/bloom"
	"terradir/internal/namespace"
)

// TestClientRidersCarryNoDigests: on both executors, the span report and the
// result sent to an edge client carry the rider without digests — adverts,
// From and Load intact — while every rider addressed to a server, including
// the query forwarded on a client's behalf, carries the digests it always
// did. On the loop, a client-bound resolve draws nothing from the peer's RNG.
// A DataReply follows the same rule as a result.
func TestClientRidersCarryNoDigests(t *testing.T) {
	tree, ids := paperTree()
	// riderPeer owns /u and /u/pub, knows two foreign digests and holds one
	// fresh advert.
	riderPeer := func() (*Peer, *fakeEnv) {
		env := &fakeEnv{now: 1, load: 0.25}
		p := newTestPeer(t, tree, 0, []NodeID{ids["/u"], ids["/u/pub"]}, 1, DefaultConfig(), env)
		for s := ServerID(2); s <= 3; s++ {
			f := bloom.New(256, 3)
			f.Add(NodeKey(ids["/u/priv"]))
			f.BumpVersion()
			p.storeDigest(s, f)
		}
		p.recentAdverts = append(p.recentAdverts, advertRecord{node: ids["/u/pub"], servers: []ServerID{4}, created: env.now})
		return p, env
	}
	// checkRider requires identity, load and the advert on every rider, no
	// digests on one addressed to a client, and the own digest first plus
	// two foreign ones on one addressed to a server.
	checkRider := func(what string, to ServerID, pb Piggyback) {
		t.Helper()
		if pb.From != 0 || pb.Load != 0.25 || len(pb.Adverts) != 1 || pb.Adverts[0].Servers[0] != 4 {
			t.Fatalf("%s to %d: rider lost identity, load or adverts: %+v", what, to, pb)
		}
		if IsClient(to) {
			if pb.Digests != nil {
				t.Fatalf("%s to client %d carries %d digests", what, to, len(pb.Digests))
			}
		} else if len(pb.Digests) != 3 || pb.Digests[0].Server != 0 {
			t.Fatalf("%s to server %d: digests %+v, want own first and two foreign", what, to, pb.Digests)
		}
	}

	for _, fast := range []bool{false, true} {
		for _, source := range []ServerID{ClientID(0), 5} {
			for _, dest := range []NodeID{ids["/u/pub"], ids["/u/priv/people/staff/Ann"]} {
				p, env := riderPeer()
				q := &QueryMsg{QueryID: 9, Dest: dest, Source: source, OnBehalf: namespace.Invalid, TraceID: 77}

				var snap *RouteSnapshot
				src := *p.src
				if fast {
					p.PublishSnapshot()
					snap = p.RoutingSnapshot()
					if out := snap.HandleQueryFast(q, env.now, NodeMap{}, env.Send, nil); out == FastFallback {
						t.Fatalf("fast path declined dest %d", dest)
					}
				} else {
					p.HandleQuery(q)
				}

				sent := env.take()
				if len(sent) != 2 {
					t.Fatalf("fast=%v source=%d dest=%d: %d messages sent, want a span report and a result or forward", fast, source, dest, len(sent))
				}
				forwarded := false
				for _, m := range sent {
					var pb Piggyback
					switch x := m.msg.(type) {
					case *TraceSpanMsg:
						pb = x.Piggy
					case *ResultMsg:
						pb = x.Piggy
					case *QueryMsg:
						pb, forwarded = x.Piggy, true
					default:
						t.Fatalf("unexpected %T", m.msg)
					}
					what := reflect.TypeOf(m.msg).Elem().Name()
					checkRider(what, m.to, pb)
					if fast && IsClient(m.to) {
						pb.Digests = snap.piggy.Digests
					}
					if fast && !reflect.DeepEqual(pb, snap.piggy) {
						t.Fatalf("fast %s to %d: rider %+v differs from the published %+v", what, m.to, pb, snap.piggy)
					}
				}
				if forwarded != (dest != ids["/u/pub"]) {
					t.Fatalf("fast=%v dest=%d: forwarded=%v, want a resolve of /u/pub and a forward otherwise", fast, dest, forwarded)
				}
				if !fast && IsClient(source) && dest == ids["/u/pub"] && *p.src != src {
					t.Fatal("a client-bound resolve drew from the peer's RNG")
				}
			}
		}
	}

	for _, from := range []ServerID{ClientID(0), 5} {
		p, env := riderPeer()
		p.HandleControl(&DataRequest{ReqID: 3, Node: ids["/u/pub"], From: from, Piggy: Piggyback{From: NoServer}})
		sent := env.take()
		if len(sent) != 1 || sent[0].to != from {
			t.Fatalf("data request from %d: sent %+v, want one reply to the requester", from, sent)
		}
		rep, ok := sent[0].msg.(*DataReply)
		if !ok {
			t.Fatalf("data request from %d answered with %T", from, sent[0].msg)
		}
		checkRider("DataReply", from, rep.Piggy)
	}
}

// fastRider serves a lookup of /u/pub from server 5 on s and returns the
// result's rider: what the fast path attaches to every message it sends.
func fastRider(t *testing.T, s *RouteSnapshot, env *fakeEnv, ids map[string]NodeID) Piggyback {
	t.Helper()
	q := &QueryMsg{QueryID: 1, Dest: ids["/u/pub"], Source: 5, OnBehalf: namespace.Invalid}
	if out := s.HandleQueryFast(q, env.now, NodeMap{}, env.Send, nil); out != FastResolved {
		t.Fatalf("fast path: %v, want a resolve", out)
	}
	sent := env.take()
	if len(sent) != 1 {
		t.Fatalf("fast path sent %d messages, want one result", len(sent))
	}
	return sent[0].msg.(*ResultMsg).Piggy
}

// TestRiderLoadIsLive: messages that move only load — the sender's, in its
// rider, this peer's measured load and its hysteresis bias — leave the
// published snapshot as it was, yet the next fast-path message reports the
// peer's current effLoad: the rider reads its load from a cell each publish
// call refreshes.
func TestRiderLoadIsLive(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{now: 1, load: 0.25}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"], ids["/u/pub"]}, 1, DefaultConfig(), env)
	p.PublishSnapshot()
	s := p.RoutingSnapshot()

	env.load = 0.5
	p.FastAbsorb(Piggyback{From: 2, Load: 0.7}, nil)
	p.loadBias = 0.1
	p.Maintain() // halves the bias
	p.PublishSnapshot()
	if p.RoutingSnapshot() != s {
		t.Fatal("a change of load alone republished the snapshot")
	}
	if got, want := fastRider(t, s, env, ids).Load, p.effLoad(); got != want || want != 0.55 {
		t.Fatalf("fast-path rider reports load %v, want the current effLoad %v (0.55)", got, want)
	}
}

// TestPublishFollowsRoutingChanges: a message that changes a map, the cache,
// a stored digest or a pending advert of this peer still publishes, and the
// new snapshot equals the full freeze of the live peer, rider included.
func TestPublishFollowsRoutingChanges(t *testing.T) {
	tree, ids := paperTree()
	digest := bloom.New(256, 3)
	digest.Add(NodeKey(ids["/u/priv"]))
	digest.BumpVersion()
	for _, tc := range []struct {
		name string
		msg  func(p *Peer)
	}{
		{"neighbor map", func(p *Peer) {
			p.HandleResult(&ResultMsg{Path: []PathEntry{{Node: ids["/u/priv"], Map: NodeMap{Servers: []ServerID{7}}}}, Piggy: Piggyback{From: 2}})
		}},
		{"cache", func(p *Peer) {
			p.HandleResult(&ResultMsg{Dest: ids["/u/priv/people/staff/Ann"], OK: true, Map: NodeMap{Servers: []ServerID{7}}, Piggy: Piggyback{From: 2}})
		}},
		{"digest", func(p *Peer) {
			p.FastAbsorb(Piggyback{From: 2, Digests: []DigestUpdate{{Server: 2, Digest: digest}}}, nil)
		}},
		{"received advert", func(p *Peer) {
			p.FastAbsorb(Piggyback{From: 2, Adverts: []Advert{{Node: ids["/u/priv"], Servers: []ServerID{4}}}}, nil)
		}},
		{"own advert", func(p *Peer) {
			// The replica target accepts a node this peer no longer hosts:
			// only the advert the rider carries changes.
			p.sess = replSession{id: 7, state: replAwaitReply, candidate: 3, tried: map[ServerID]bool{}}
			p.HandleControl(&ReplicateReply{Session: ServerSession{ID: 7, From: 3}, Accepted: []NodeID{ids["/u/priv"]}, Piggy: Piggyback{From: 3}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := &fakeEnv{now: 1, load: 0.25}
			p := newTestPeer(t, tree, 0, []NodeID{ids["/u"], ids["/u/pub"]}, 1, DefaultConfig(), env)
			p.PublishSnapshot()
			s := p.RoutingSnapshot()
			tc.msg(p)
			p.PublishSnapshot()
			if p.RoutingSnapshot() == s {
				t.Fatal("the change did not republish the snapshot")
			}
			if diff := imagesDiffer(publishedImage(t, p, p.RoutingSnapshot()), fullFreeze(p)); diff != "" {
				t.Fatalf("published view is not the full freeze of the live peer: %s", diff)
			}
		})
	}
}

// TestFastRiderAdvertsExpire: the published rider carries a pending advert
// for advertTTL and no longer: the first publish call after it expires
// rebuilds the rider without it, and until then publish calls stay no-ops.
func TestFastRiderAdvertsExpire(t *testing.T) {
	tree, ids := paperTree()
	env := &fakeEnv{now: 1}
	p := newTestPeer(t, tree, 0, []NodeID{ids["/u"], ids["/u/pub"]}, 1, DefaultConfig(), env)
	p.recentAdverts = append(p.recentAdverts, advertRecord{node: ids["/u/pub"], servers: []ServerID{4}, created: env.now})
	p.PublishSnapshot()
	s := p.RoutingSnapshot()

	env.now += advertTTL // as old as an advert gets
	p.PublishSnapshot()
	if p.RoutingSnapshot() != s {
		t.Fatal("a publish before the advert expired republished the snapshot")
	}
	if pb := fastRider(t, s, env, ids); len(pb.Adverts) != 1 {
		t.Fatalf("rider carries %d adverts before expiry, want 1", len(pb.Adverts))
	}
	env.now += 0.001
	p.PublishSnapshot()
	if pb := fastRider(t, p.RoutingSnapshot(), env, ids); len(pb.Adverts) != 0 {
		t.Fatalf("fast-path rider carries %d adverts past advertTTL", len(pb.Adverts))
	}
}

// TestClientResultCarriesAnswerOnce: on both executors a result addressed to
// an edge client carries the answer in Dest and Map only, with no path entry
// repeating it; a result addressed to a server still ends its path with the
// (Dest, Map) entry the source caches.
func TestClientResultCarriesAnswerOnce(t *testing.T) {
	tree, ids := paperTree()
	for _, fast := range []bool{false, true} {
		for _, source := range []ServerID{ClientID(0), 5} {
			env := &fakeEnv{now: 1}
			p := newTestPeer(t, tree, 0, []NodeID{ids["/u"], ids["/u/pub"]}, 1, DefaultConfig(), env)
			in := []PathEntry{{Node: ids["/u/priv"], Map: NodeMap{Servers: []ServerID{1}}}}
			q := &QueryMsg{QueryID: 9, Dest: ids["/u/pub"], Source: source, OnBehalf: namespace.Invalid, Hops: 1, Path: in}
			if fast {
				p.PublishSnapshot()
				if out := p.RoutingSnapshot().HandleQueryFast(q, env.now, NodeMap{}, env.Send, nil); out != FastResolved {
					t.Fatalf("fast path: %v, want a resolve", out)
				}
			} else {
				p.HandleQuery(q)
			}
			sent := env.take()
			if len(sent) != 1 {
				t.Fatalf("fast=%v source=%d: %d messages sent, want one result", fast, source, len(sent))
			}
			res := sent[0].msg.(*ResultMsg)
			if !res.OK || res.Dest != q.Dest || !reflect.DeepEqual(res.Map.Servers, []ServerID{0}) {
				t.Fatalf("fast=%v source=%d: result %+v does not answer /u/pub from server 0", fast, source, res)
			}
			want := in
			if !IsClient(source) {
				want = append(in[:1:1], PathEntry{Node: q.Dest, Map: res.Map})
			}
			if !reflect.DeepEqual(res.Path, want) {
				t.Fatalf("fast=%v source=%d: path %+v, want %+v", fast, source, res.Path, want)
			}
		}
	}
}
