package wire

import (
	"testing"

	"terradir/internal/bloom"
	"terradir/internal/core"
)

// benchQuery builds a representative mid-route query: a few path entries, a
// trace span, and a piggyback rider carrying an advert and a digest — the
// shape the overlay actually puts on the wire per hop.
func benchQuery() *core.QueryMsg {
	return &core.QueryMsg{
		QueryID:  0xfeedface,
		Dest:     731,
		Source:   3,
		OnBehalf: 12,
		Hops:     4,
		Started:  1.25,
		PrevDist: 6,
		Path: []core.PathEntry{
			{Node: 1, Map: core.NodeMap{Servers: []core.ServerID{0, 2, 5}, NumAdvertised: 2}},
			{Node: 9, Map: core.SingleServerMap(4)},
			{Node: 40, Map: core.NodeMap{Servers: []core.ServerID{1, 7}, NumAdvertised: 1}},
		},
		TraceID: 0xdeadbeef,
		Piggy:   samplePiggy(),
	}
}

func benchResult() *core.ResultMsg {
	return &core.ResultMsg{
		QueryID: 0xfeedface,
		Dest:    731,
		OK:      true,
		Hops:    5,
		Started: 1.25,
		Meta:    core.Meta{Version: 3, Attrs: map[string]string{"owner": "svc-a", "zone": "eu"}},
		Map:     core.NodeMap{Servers: []core.ServerID{2, 5, 7}, NumAdvertised: 2},
		Path: []core.PathEntry{
			{Node: 1, Map: core.NodeMap{Servers: []core.ServerID{0, 2}, NumAdvertised: 1}},
			{Node: 731, Map: core.SingleServerMap(5)},
		},
		TraceID: 0xdeadbeef,
		Piggy:   samplePiggy(),
	}
}

func BenchmarkWireEncode(b *testing.B) {
	msgs := map[string]core.Message{
		"query":  benchQuery(),
		"result": benchResult(),
	}
	for name, m := range msgs {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWireDecode(b *testing.B) {
	msgs := map[string]core.Message{
		"query":  benchQuery(),
		"result": benchResult(),
	}
	for name, m := range msgs {
		data, err := Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBloomDigestEncode measures serializing a realistic hosted-set
// digest (64 names at 1% FP), the dominant payload inside piggyback riders.
func BenchmarkBloomDigestEncode(b *testing.B) {
	f := bloom.New(1024, 7)
	for i := uint64(0); i < 64; i++ {
		f.Add(bloom.HashString("/bench/node") + i*0x9e3779b9)
	}
	f.SetVersion(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := f.Marshal()
		if len(buf) < 32 {
			b.Fatal("short digest")
		}
	}
}
