// Package wire serializes TerraDir protocol messages for real transports
// (the TCP overlay). Version 4 frames are hand-rolled binary: a leading
// magic byte, a one-byte kind tag, then fixed-width little-endian fields
// with u32-length-prefixed strings, byte slices, and repeated groups. Bloom
// digests travel in their compact binary form (bloom.AppendTo/Unmarshal).
// The encoder is append-style (AppendMessage) so transports can reuse one
// buffer across writes; the decoder is a bounds-checked cursor that
// classifies every malformed input as an error — it never panics and never
// allocates more than the frame's own length implies.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"terradir/internal/bloom"
	"terradir/internal/core"
	"terradir/internal/telemetry"
)

// Version is the wire protocol version. Version 2 added per-lookup trace
// fields to query/result frames and the trace-span message kind; version 3
// added the membership frame kind. Version 4 replaced the gob payload
// encoding with the fixed-width binary layout this package now implements;
// version 5 added the hello frame kind (client-role handshake, used by the
// gateway/edge tier); version 6 extended the membership frame with the
// persistence-tier reconcile fields (per-update has-state flag, rejoiner
// incarnation + Bloom digest, the reconcile/reconcile-ack kinds) and fixed
// the hosted-record layout that WAL records and snapshots reuse
// (AppendHosted/DecodeHosted); version 7 removed the in-band span chain
// from query and result frames (the query's span budget and span array, the
// result's span array), leaving the trace-span frame the only span carrier;
// version 8 removed v6's reconcile fields again (the per-update has-state
// byte, the frame's incarnation and digest-length fields, and the
// reconcile/reconcile-ack kinds): a restarted member takes the same warmup
// stream as any other, so the hosted-record layout is all that v6 left.
// Version ≥4 frames lead with the Magic byte;
// versions 1–3 led with the kind tag directly (1..10, disjoint from Magic),
// so the decoder rejects their frames as an unknown frame marker.
// Mixed-version deployments are not supported; v6 and v8 changed the
// membership frame layout, so v4/v5 and v6/v7 membership frames do not
// decode, and v7 changed the query and result layouts, so v6 query and
// result frames do not decode.
const Version = 8

// Magic is the first byte of every version-4 frame. It is disjoint from the
// kind-tag range (1..10) that led wire ≤3 frames, so such a frame can never
// be misread as a current one.
const Magic byte = 0xD4

// Message kind tags (second byte of a v4 frame; first byte of legacy
// frames).
const (
	kindQuery byte = iota + 1
	kindResult
	kindLoadProbe
	kindLoadProbeReply
	kindReplicateReq
	kindReplicateReply
	kindDataRequest
	kindDataReply
	kindTraceSpan  // wire version 2
	kindMembership // wire version 3
	kindHello      // wire version 5 (client-role handshake)
)

// MaxFrame bounds accepted frame sizes (1 MiB) to protect against corrupt or
// hostile length prefixes.
const MaxFrame = 1 << 20

// ErrFrameSize reports a frame length outside (0, MaxFrame]: an oversized
// outgoing message, or a corrupt/hostile incoming length prefix. Detect it
// with errors.Is; transports use it to classify read failures as corruption
// rather than connection errors.
var ErrFrameSize = errors.New("wire: frame size out of range")

// ErrUnknownKind reports a well-framed current-format message (Magic marker
// intact) whose kind byte this build does not recognize — what a frame from a
// newer peer looks like during a rolling upgrade. Receivers should count and
// skip it, not treat it as corruption or tear down the connection.
var ErrUnknownKind = errors.New("wire: unknown message kind")

// ---------------------------------------------------------------------------
// Encoding

// Encode serializes a protocol message into a fresh buffer. Hot paths that
// write many messages should prefer AppendMessage with a reused buffer.
func Encode(m core.Message) ([]byte, error) {
	return AppendMessage(nil, m)
}

// AppendMessage appends m's version-4 encoding to dst and returns the
// extended slice. Passing a reused dst[:0] makes steady-state encoding
// allocation-free once the buffer has grown to the working-set frame size.
func AppendMessage(dst []byte, m core.Message) ([]byte, error) {
	switch v := m.(type) {
	case *core.QueryMsg:
		b := append(dst, Magic, kindQuery)
		b = binary.LittleEndian.AppendUint64(b, v.QueryID)
		b = appendI32(b, int32(v.Dest))
		b = appendI32(b, int32(v.Source))
		b = appendI32(b, int32(v.OnBehalf))
		b = appendI32(b, int32(v.Hops))
		b = appendF64(b, v.Started)
		b = appendI32(b, v.PrevDist)
		b = appendPath(b, v.Path)
		b = binary.LittleEndian.AppendUint64(b, v.TraceID)
		return appendPiggy(b, v.Piggy), nil
	case *core.ResultMsg:
		b := append(dst, Magic, kindResult)
		b = binary.LittleEndian.AppendUint64(b, v.QueryID)
		b = appendI32(b, int32(v.Dest))
		b = appendBool(b, v.OK)
		b = append(b, uint8(v.Reason))
		b = appendI32(b, int32(v.Hops))
		b = appendF64(b, v.Started)
		b = appendMeta(b, v.Meta)
		b = appendNodeMap(b, v.Map)
		b = appendPath(b, v.Path)
		b = binary.LittleEndian.AppendUint64(b, v.TraceID)
		return appendPiggy(b, v.Piggy), nil
	case *core.TraceSpanMsg:
		b := append(dst, Magic, kindTraceSpan)
		b = binary.LittleEndian.AppendUint64(b, v.TraceID)
		b = appendSpan(b, v.Span)
		return appendPiggy(b, v.Piggy), nil
	case *core.LoadProbeMsg:
		b := append(dst, Magic, kindLoadProbe)
		b = binary.LittleEndian.AppendUint64(b, v.Session)
		b = appendI32(b, int32(v.From))
		return appendPiggy(b, v.Piggy), nil
	case *core.LoadProbeReply:
		b := append(dst, Magic, kindLoadProbeReply)
		b = binary.LittleEndian.AppendUint64(b, v.Session)
		b = appendI32(b, int32(v.From))
		b = appendF64(b, v.Load)
		return appendPiggy(b, v.Piggy), nil
	case *core.ReplicateRequest:
		b := append(dst, Magic, kindReplicateReq)
		b = binary.LittleEndian.AppendUint64(b, v.Session)
		b = appendI32(b, int32(v.From))
		b = appendF64(b, v.Load)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v.Nodes)))
		for i := range v.Nodes {
			p := &v.Nodes[i]
			b = appendI32(b, int32(p.Node))
			b = appendMeta(b, p.Meta)
			b = appendNodeMap(b, p.SelfMap)
			b = appendF64(b, p.WeightHint)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Neighbors)))
			for _, nb := range p.Neighbors {
				b = appendI32(b, int32(nb.Node))
				b = appendNodeMap(b, nb.Map)
			}
		}
		return appendPiggy(b, v.Piggy), nil
	case *core.ReplicateReply:
		b := append(dst, Magic, kindReplicateReply)
		b = binary.LittleEndian.AppendUint64(b, v.Session.ID)
		b = appendI32(b, int32(v.Session.From))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v.Accepted)))
		for _, n := range v.Accepted {
			b = appendI32(b, int32(n))
		}
		b = appendF64(b, v.Load)
		return appendPiggy(b, v.Piggy), nil
	case *core.DataRequest:
		b := append(dst, Magic, kindDataRequest)
		b = binary.LittleEndian.AppendUint64(b, v.ReqID)
		b = appendI32(b, int32(v.Node))
		b = appendI32(b, int32(v.From))
		return appendPiggy(b, v.Piggy), nil
	case *core.DataReply:
		b := append(dst, Magic, kindDataReply)
		b = binary.LittleEndian.AppendUint64(b, v.ReqID)
		b = appendI32(b, int32(v.Node))
		b = appendBool(b, v.OK)
		b = appendBytes(b, v.Data)
		b = appendI32(b, int32(v.From))
		return appendPiggy(b, v.Piggy), nil
	case *core.MembershipMsg:
		b := append(dst, Magic, kindMembership)
		b = append(b, v.Kind)
		b = binary.LittleEndian.AppendUint64(b, v.Seq)
		b = appendI32(b, int32(v.From))
		b = appendI32(b, int32(v.Target))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v.Updates)))
		for _, u := range v.Updates {
			b = appendI32(b, int32(u.Server))
			b = append(b, u.State)
			b = binary.LittleEndian.AppendUint64(b, u.Incarnation)
			b = appendStr(b, u.Addr)
		}
		return appendPath(b, v.Warmup), nil
	case *core.HelloMsg:
		b := append(dst, Magic, kindHello)
		b = appendI32(b, int32(v.ID))
		return append(b, v.Role), nil
	default:
		return nil, fmt.Errorf("wire: unknown message type %T", m)
	}
}

func appendI32(b []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func appendNodeMap(b []byte, m core.NodeMap) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Servers)))
	for _, s := range m.Servers {
		b = appendI32(b, int32(s))
	}
	return appendI32(b, int32(m.NumAdvertised))
}

func appendPath(b []byte, path []core.PathEntry) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(path)))
	for i := range path {
		b = appendI32(b, int32(path[i].Node))
		b = appendNodeMap(b, path[i].Map)
	}
	return b
}

func appendSpan(b []byte, s telemetry.Span) []byte {
	b = appendI32(b, s.Seq)
	b = appendI32(b, s.Server)
	b = appendI32(b, s.Node)
	b = append(b, uint8(s.Reason))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.QueueWaitMicros))
	return binary.LittleEndian.AppendUint64(b, uint64(s.ServiceMicros))
}

func appendMeta(b []byte, m core.Meta) []byte {
	b = binary.LittleEndian.AppendUint64(b, m.Version)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Attrs)))
	for k, v := range m.Attrs {
		b = appendStr(b, k)
		b = appendStr(b, v)
	}
	return b
}

func appendPiggy(b []byte, p core.Piggyback) []byte {
	b = appendI32(b, int32(p.From))
	b = appendF64(b, p.Load)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Adverts)))
	for _, a := range p.Adverts {
		b = appendI32(b, int32(a.Node))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(a.Servers)))
		for _, s := range a.Servers {
			b = appendI32(b, int32(s))
		}
	}
	// Digest count is written after filtering nil filters, so the prefix is
	// exact. Each digest is length-prefixed because bloom.Unmarshal demands
	// an exact-length slice.
	live := 0
	for _, d := range p.Digests {
		if d.Digest != nil {
			live++
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(live))
	for _, d := range p.Digests {
		if d.Digest == nil {
			continue
		}
		b = appendI32(b, int32(d.Server))
		lenAt := len(b)
		b = binary.LittleEndian.AppendUint32(b, 0) // patched below
		b = d.Digest.AppendTo(b)
		binary.LittleEndian.PutUint32(b[lenAt:], uint32(len(b)-lenAt-4))
	}
	return b
}

// ---------------------------------------------------------------------------
// Decoding

// reader is a bounds-checked cursor over one frame. Every accessor returns a
// zero value once an overrun is recorded; the caller checks r.err exactly
// once, after the full message has been walked.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if len(r.data)-r.off < n {
		r.fail("truncated frame")
		return false
	}
	return true
}

func (r *reader) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) i32() int32    { return int32(r.u32()) }
func (r *reader) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *reader) boolean() bool { return r.u8() != 0 }

// count reads a u32 element count and rejects any count that could not fit
// in the remaining bytes given a per-element minimum — the guard that keeps
// a hostile 4-byte prefix from provoking a giant allocation.
func (r *reader) count(minElem int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int(n) > (len(r.data)-r.off)/minElem {
		r.fail("element count exceeds frame size")
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := int(r.u32())
	if !r.need(n) {
		return ""
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s
}

// bytes returns a copy of a length-prefixed byte field (nil when empty) —
// decoded messages must not alias the transport's frame buffer.
func (r *reader) bytes() []byte {
	n := int(r.u32())
	if n == 0 || !r.need(n) {
		return nil
	}
	p := make([]byte, n)
	copy(p, r.data[r.off:r.off+n])
	r.off += n
	return p
}

// Per-element minimum encoded sizes, used by count guards.
const (
	minServer  = 4
	minPath    = 12 // node + servers count + NumAdvertised
	minAdvert  = 8
	minDigest  = 8
	minPayload = 36
	minUpdate  = 17
	minAttr    = 8
)

func (r *reader) servers() []core.ServerID {
	n := r.count(minServer)
	if n == 0 {
		return nil
	}
	out := make([]core.ServerID, n)
	for i := range out {
		out[i] = core.ServerID(r.i32())
	}
	return out
}

func (r *reader) nodeMap() core.NodeMap {
	m := core.NodeMap{Servers: r.servers()}
	m.NumAdvertised = int(r.i32())
	return m
}

func (r *reader) path() []core.PathEntry {
	n := r.count(minPath)
	if n == 0 {
		return nil
	}
	out := make([]core.PathEntry, n)
	for i := range out {
		out[i].Node = core.NodeID(r.i32())
		out[i].Map = r.nodeMap()
	}
	return out
}

func (r *reader) span() telemetry.Span {
	return telemetry.Span{
		Seq:             r.i32(),
		Server:          r.i32(),
		Node:            r.i32(),
		Reason:          telemetry.HopReason(r.u8()),
		QueueWaitMicros: int64(r.u64()),
		ServiceMicros:   int64(r.u64()),
	}
}

func (r *reader) meta() core.Meta {
	m := core.Meta{Version: r.u64()}
	n := r.count(minAttr)
	if n == 0 {
		return m
	}
	m.Attrs = make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.str()
		m.Attrs[k] = r.str()
	}
	return m
}

func (r *reader) piggy() core.Piggyback {
	p := core.Piggyback{From: core.ServerID(r.i32()), Load: r.f64()}
	if n := r.count(minAdvert); n > 0 {
		p.Adverts = make([]core.Advert, n)
		for i := range p.Adverts {
			p.Adverts[i].Node = core.NodeID(r.i32())
			p.Adverts[i].Servers = r.servers()
		}
	}
	n := r.count(minDigest)
	if n == 0 {
		return p
	}
	p.Digests = make([]core.DigestUpdate, 0, n)
	for i := 0; i < n; i++ {
		server := core.ServerID(r.i32())
		raw := int(r.u32())
		if !r.need(raw) {
			return p
		}
		f, err := bloom.Unmarshal(r.data[r.off : r.off+raw])
		r.off += raw
		if err != nil {
			r.fail(fmt.Sprintf("digest from server %d: %v", server, err))
			return p
		}
		p.Digests = append(p.Digests, core.DigestUpdate{Server: server, Digest: f})
	}
	return p
}

// Decode deserializes a protocol message produced by Encode/AppendMessage.
// Malformed input yields a descriptive error. Decode never panics.
func Decode(data []byte) (core.Message, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("wire: short message (%d bytes)", len(data))
	}
	if data[0] != Magic {
		return nil, fmt.Errorf("wire: unknown frame marker 0x%02x", data[0])
	}
	kind := data[1]
	r := &reader{data: data, off: 2}
	var m core.Message
	switch kind {
	case kindQuery:
		q := &core.QueryMsg{QueryID: r.u64(), Dest: core.NodeID(r.i32()),
			Source: core.ServerID(r.i32()), OnBehalf: core.NodeID(r.i32()),
			Hops: int(r.i32()), Started: r.f64(), PrevDist: r.i32(), Path: r.path(),
			TraceID: r.u64()}
		q.Piggy = r.piggy()
		m = q
	case kindResult:
		res := &core.ResultMsg{QueryID: r.u64(), Dest: core.NodeID(r.i32()),
			OK: r.boolean(), Reason: core.FailReason(r.u8()), Hops: int(r.i32()),
			Started: r.f64(), Meta: r.meta(), Map: r.nodeMap(), Path: r.path(),
			TraceID: r.u64()}
		res.Piggy = r.piggy()
		m = res
	case kindTraceSpan:
		ts := &core.TraceSpanMsg{TraceID: r.u64(), Span: r.span()}
		ts.Piggy = r.piggy()
		m = ts
	case kindLoadProbe:
		p := &core.LoadProbeMsg{Session: r.u64(), From: core.ServerID(r.i32())}
		p.Piggy = r.piggy()
		m = p
	case kindLoadProbeReply:
		p := &core.LoadProbeReply{Session: r.u64(), From: core.ServerID(r.i32()), Load: r.f64()}
		p.Piggy = r.piggy()
		m = p
	case kindReplicateReq:
		req := &core.ReplicateRequest{Session: r.u64(), From: core.ServerID(r.i32()), Load: r.f64()}
		if n := r.count(minPayload); n > 0 {
			req.Nodes = make([]core.ReplicaPayload, n)
			for i := range req.Nodes {
				p := &req.Nodes[i]
				p.Node = core.NodeID(r.i32())
				p.Meta = r.meta()
				p.SelfMap = r.nodeMap()
				p.WeightHint = r.f64()
				if nn := r.count(minPath); nn > 0 {
					p.Neighbors = make([]core.NeighborMap, nn)
					for j := range p.Neighbors {
						p.Neighbors[j].Node = core.NodeID(r.i32())
						p.Neighbors[j].Map = r.nodeMap()
					}
				}
			}
		}
		req.Piggy = r.piggy()
		m = req
	case kindReplicateReply:
		rep := &core.ReplicateReply{Session: core.ServerSession{ID: r.u64(), From: core.ServerID(r.i32())}}
		if n := r.count(minServer); n > 0 {
			rep.Accepted = make([]core.NodeID, n)
			for i := range rep.Accepted {
				rep.Accepted[i] = core.NodeID(r.i32())
			}
		}
		rep.Load = r.f64()
		rep.Piggy = r.piggy()
		m = rep
	case kindDataRequest:
		req := &core.DataRequest{ReqID: r.u64(), Node: core.NodeID(r.i32()), From: core.ServerID(r.i32())}
		req.Piggy = r.piggy()
		m = req
	case kindDataReply:
		rep := &core.DataReply{ReqID: r.u64(), Node: core.NodeID(r.i32()),
			OK: r.boolean(), Data: r.bytes(), From: core.ServerID(r.i32())}
		rep.Piggy = r.piggy()
		m = rep
	case kindMembership:
		mm := &core.MembershipMsg{Kind: r.u8(), Seq: r.u64(),
			From: core.ServerID(r.i32()), Target: core.ServerID(r.i32())}
		if n := r.count(minUpdate); n > 0 {
			mm.Updates = make([]core.MemberUpdate, n)
			for i := range mm.Updates {
				u := &mm.Updates[i]
				u.Server = core.ServerID(r.i32())
				u.State = r.u8()
				u.Incarnation = r.u64()
				u.Addr = r.str()
			}
		}
		mm.Warmup = r.path()
		m = mm
	case kindHello:
		m = &core.HelloMsg{ID: core.ServerID(r.i32()), Role: r.u8()}
	default:
		return nil, fmt.Errorf("%w %d", ErrUnknownKind, kind)
	}
	if r.err != nil {
		return nil, fmt.Errorf("wire: decode kind %d: %w", kind, r.err)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("wire: decode kind %d: %d trailing bytes", kind, len(data)-r.off)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Framing

// WriteFrame writes a length-prefixed message frame.
func WriteFrame(w io.Writer, data []byte) error {
	if len(data) > MaxFrame {
		return fmt.Errorf("%w: frame too large (%d bytes)", ErrFrameSize, len(data))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// ---------------------------------------------------------------------------
// Hosted-state records (persistence tier)

// AppendHosted appends the binary encoding of one hosted-state mutation
// record to dst. This is the payload format of internal/persist WAL records
// and snapshot entries: the same fixed-width primitives as every other wire
// structure, so hosted nodes persist in their wire form.
func AppendHosted(dst []byte, mu *core.HostedMutation) []byte {
	b := append(dst, byte(mu.Kind))
	b = appendI32(b, int32(mu.Node))
	var flags byte
	if mu.Owned {
		flags |= 1
	}
	if mu.Adopted {
		flags |= 2
	}
	if mu.HasData {
		flags |= 4
	}
	b = append(b, flags)
	b = appendF64(b, mu.Weight)
	b = appendMeta(b, mu.Meta)
	b = appendNodeMap(b, mu.Map)
	return appendBytes(b, mu.Data)
}

// DecodeHosted decodes one hosted-state mutation record produced by
// AppendHosted. Hostile input never panics; malformed records report an
// error.
func DecodeHosted(data []byte) (*core.HostedMutation, error) {
	r := &reader{data: data}
	mu := &core.HostedMutation{
		Kind: core.MutationKind(r.u8()),
		Node: core.NodeID(r.i32()),
	}
	flags := r.u8()
	mu.Owned = flags&1 != 0
	mu.Adopted = flags&2 != 0
	mu.HasData = flags&4 != 0
	mu.Weight = r.f64()
	mu.Meta = r.meta()
	mu.Map = r.nodeMap()
	mu.Data = r.bytes()
	if r.err != nil {
		return nil, fmt.Errorf("wire: decode hosted record: %w", r.err)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("wire: hosted record: %d trailing bytes", len(data)-r.off)
	}
	if mu.Kind < core.MutUpsert || mu.Kind > core.MutMap {
		return nil, fmt.Errorf("wire: hosted record: unknown mutation kind %d", mu.Kind)
	}
	return mu, nil
}
