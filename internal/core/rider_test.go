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
