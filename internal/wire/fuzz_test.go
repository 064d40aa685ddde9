package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"terradir/internal/core"
	"terradir/internal/telemetry"
)

// FuzzDecode asserts that arbitrary bytes never panic the message decoder —
// a TCP peer must survive any frame a broken or hostile peer sends.
func FuzzDecode(f *testing.F) {
	// Seed with every valid message kind plus junk.
	seeds := []core.Message{
		&core.QueryMsg{QueryID: 1, Dest: 2, Source: 3, Piggy: samplePiggy()},
		&core.ResultMsg{QueryID: 1, OK: true, Map: core.SingleServerMap(2)},
		&core.LoadProbeMsg{Session: 1, From: 2},
		&core.LoadProbeReply{Session: 1, From: 2, Load: 0.5},
		&core.ReplicateRequest{Session: 1, From: 2, Nodes: []core.ReplicaPayload{{Node: 3}}},
		&core.ReplicateReply{Session: core.ServerSession{ID: 1, From: 2}},
		&core.DataRequest{ReqID: 1, Node: 2, From: 3},
		&core.DataReply{ReqID: 1, Node: 2, OK: true, Data: []byte{1}},
		&core.TraceSpanMsg{TraceID: 7, Piggy: samplePiggy(),
			Span: telemetry.Span{Seq: 1, Server: 2, Node: 3, ServiceMicros: 40}},
		&core.MembershipMsg{Kind: core.MembershipPing, Seq: 9, From: 1, Target: 2,
			Updates: []core.MemberUpdate{{Server: 2, State: 1, Incarnation: 3, Addr: "h:1"}}},
		&core.MembershipMsg{Kind: core.MembershipWarmup, From: 1,
			Warmup: []core.PathEntry{{Node: 4, Map: core.SingleServerMap(1)}}},
	}
	for _, m := range seeds {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	// A wire ≤3 frame leads with its kind tag: an unknown marker, never a panic.
	f.Add([]byte{1, 0xde, 0xad})
	// Magic byte with truncated payloads.
	f.Add([]byte{Magic})
	f.Add([]byte{Magic, 1})
	f.Add([]byte{Magic, 2, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err == nil && msg == nil {
			t.Fatal("nil message without error")
		}
		// Round-trip property: a successfully decoded message re-encodes.
		if err == nil {
			if _, err2 := Encode(msg); err2 != nil {
				t.Fatalf("decoded message failed to re-encode: %v", err2)
			}
		}
	})
}

// FuzzReadFrame asserts the frame reader never panics or over-allocates on an
// arbitrary byte stream (truncated headers, hostile lengths, trailing junk).
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			if len(payload) > MaxFrame {
				t.Fatalf("frame of %d bytes exceeds MaxFrame", len(payload))
			}
		}
	})
}

// FuzzFrameReader is the differential target proving the batched FrameReader
// is a reader-side optimization only: on arbitrary input — torn headers,
// hostile lengths, multi-frame streams — it must yield byte-identical frame
// sequences and the identical terminating error classification as ReadFrame,
// at window sizes that force the refill, compaction and spill paths.
func FuzzFrameReader(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		f.Fatal(err)
	}
	WriteFrame(&buf, []byte("world"))
	f.Add(buf.Bytes(), uint16(64))
	// The adversarial corpus from TestReadFrameAdversarial.
	f.Add([]byte{}, uint16(5))
	f.Add([]byte{0x00}, uint16(5))
	f.Add([]byte{0x00, 0x00, 0x01}, uint16(9))
	f.Add([]byte{0, 0, 0, 0}, uint16(16))
	f.Add(lenPrefix(MaxFrame+1), uint16(5))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(7))
	f.Add(append(lenPrefix(10), 1, 2), uint16(6))
	f.Add(append(lenPrefix(4), 1, 2, 3), uint16(32))
	f.Fuzz(func(t *testing.T, data []byte, window uint16) {
		r1 := bytes.NewReader(data)
		r2 := newFrameReaderSize(bytes.NewReader(data), int(window))
		for {
			want, wantErr := ReadFrame(r1)
			got, gotErr := r2.Next()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error divergence: ReadFrame %v, FrameReader %v", wantErr, gotErr)
			}
			if wantErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("error text divergence: %q vs %q", gotErr, wantErr)
				}
				if errors.Is(gotErr, ErrFrameSize) != errors.Is(wantErr, ErrFrameSize) ||
					errors.Is(gotErr, io.ErrUnexpectedEOF) != errors.Is(wantErr, io.ErrUnexpectedEOF) ||
					(gotErr == io.EOF) != (wantErr == io.EOF) {
					t.Fatalf("error class divergence: %v vs %v", gotErr, wantErr)
				}
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame divergence: %d vs %d bytes", len(got), len(want))
			}
		}
	})
}
