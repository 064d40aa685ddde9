package telemetry

import (
	"sort"
	"sync"
	"time"
)

// HopReason classifies why a traced server handled a lookup the way it did:
// which routing mechanism chose the next hop, or how the lookup terminated.
type HopReason uint8

const (
	// HopNone: no classification (untraced or unknown).
	HopNone HopReason = iota
	// HopParent: forwarded up the namespace via a parent neighbor map.
	HopParent
	// HopChild: forwarded down the namespace via a child neighbor map.
	HopChild
	// HopCache: forwarded via a cached pointer (§2.4 path caching).
	HopCache
	// HopReplica: forwarded to a replica found via a digest shortcut
	// (§3.6.1).
	HopReplica
	// HopResolve: the server hosted the destination and answered.
	HopResolve
	// HopFail: the server terminated the lookup (TTL exceeded or no route).
	HopFail
)

func (r HopReason) String() string {
	switch r {
	case HopParent:
		return "parent"
	case HopChild:
		return "child"
	case HopCache:
		return "cache"
	case HopReplica:
		return "replica"
	case HopResolve:
		return "resolve"
	case HopFail:
		return "fail"
	}
	return "none"
}

// MarshalJSON renders the reason as its string name in trace dumps.
func (r HopReason) MarshalJSON() ([]byte, error) {
	return []byte(`"` + r.String() + `"`), nil
}

// Span is one hop's record in a per-lookup trace: who served it, on behalf
// of which namespace node, why it was forwarded (or resolved), and how long
// the query waited in the server's queue and was serviced. Spans are
// appended in-band to the query as it routes and additionally reported
// out-of-band to the initiating server, so a trace survives — truncated —
// even when the query itself is lost mid-route.
type Span struct {
	// Seq is the hop index (0 = the initiating server's own service step).
	Seq int32
	// Server is the peer that produced this span.
	Server int32
	// Node is the namespace node the hop acted for: the routing candidate
	// selected for forwarding, or the destination when resolving.
	Node int32
	// Reason classifies the hop.
	Reason HopReason
	// QueueWaitMicros is time spent in the server's request queue (µs).
	QueueWaitMicros int64
	// ServiceMicros is the service time at this server (µs).
	ServiceMicros int64
}

// TraceRecord is the assembled state of one lookup trace.
type TraceRecord struct {
	ID uint64
	// Spans are ordered by Seq. Gaps mean hops whose span report was lost.
	Spans []Span
	// Done is set when the lookup's result arrived at the initiator.
	Done bool
	// OK mirrors the lookup outcome (valid when Done).
	OK bool
	// Hops is the final hop count from the result (valid when Done).
	Hops int
	// Updated is the wall-clock time of the last change.
	Updated time.Time
}

// Truncated reports whether the span chain is incomplete: the lookup never
// completed (query or result lost in flight), or spans are missing relative
// to the hop count — either lost span reports or an exhausted span budget.
// An in-flight trace reads as truncated until its result lands.
func (tr *TraceRecord) Truncated() bool {
	if !tr.Done {
		return true
	}
	if len(tr.Spans) < tr.Hops+1 {
		return true
	}
	for i, s := range tr.Spans {
		if int(s.Seq) != i {
			return true
		}
	}
	return false
}

// TraceStore collects completed and in-flight lookup traces at the
// initiating server, bounded to a fixed number of records (FIFO eviction).
// Safe for concurrent use.
type TraceStore struct {
	mu   sync.Mutex
	cap  int
	recs map[uint64]*TraceRecord
	fifo []uint64
	now  func() time.Time
}

// DefaultTraceCap is the number of traces a live node retains.
const DefaultTraceCap = 256

// NewTraceStore creates a store retaining up to cap traces.
func NewTraceStore(cap int) *TraceStore {
	return &TraceStore{
		cap:  cap,
		recs: make(map[uint64]*TraceRecord, cap),
		now:  time.Now,
	}
}

// record returns (creating and possibly evicting) the record for id.
// Caller holds s.mu.
func (s *TraceStore) record(id uint64) *TraceRecord {
	if tr, ok := s.recs[id]; ok {
		return tr
	}
	// A full store recycles the record it evicts, span array included: records
	// never leave the store (Get copies), and a node that traces every lookup
	// would otherwise allocate one of each per lookup.
	var tr *TraceRecord
	for len(s.fifo) >= s.cap {
		victim := s.fifo[0]
		s.fifo = s.fifo[1:]
		tr = s.recs[victim]
		delete(s.recs, victim)
	}
	if tr == nil {
		// Reserve a typical route's worth of spans up front so the
		// one-at-a-time inserts don't regrow the slice every hop.
		tr = &TraceRecord{Spans: make([]Span, 0, 8)}
	}
	*tr = TraceRecord{ID: id, Spans: tr.Spans[:0]}
	s.recs[id] = tr
	s.fifo = append(s.fifo, id)
	return tr
}

// AddSpan folds one out-of-band span report into the trace, keeping spans
// Seq-ordered. Duplicate sequence numbers are ignored (the in-band copy may
// arrive alongside the report).
func (s *TraceStore) AddSpan(id uint64, sp Span) {
	if id == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.record(id)
	tr.insert(sp)
	tr.Updated = s.now()
}

// Complete marks a trace finished with the lookup outcome and merges the
// in-band span chain carried by the result.
func (s *TraceStore) Complete(id uint64, spans []Span, ok bool, hops int) {
	if id == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.record(id)
	for _, sp := range spans {
		tr.insert(sp)
	}
	tr.Done = true
	tr.OK = ok
	tr.Hops = hops
	tr.Updated = s.now()
}

// insert places sp in Seq order, skipping duplicates.
func (tr *TraceRecord) insert(sp Span) {
	i := sort.Search(len(tr.Spans), func(i int) bool { return tr.Spans[i].Seq >= sp.Seq })
	if i < len(tr.Spans) && tr.Spans[i].Seq == sp.Seq {
		return
	}
	tr.Spans = append(tr.Spans, Span{})
	copy(tr.Spans[i+1:], tr.Spans[i:])
	tr.Spans[i] = sp
}

// Get returns a copy of the trace for id.
func (s *TraceStore) Get(id uint64) (TraceRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr, ok := s.recs[id]
	if !ok {
		return TraceRecord{}, false
	}
	out := *tr
	out.Spans = append([]Span(nil), tr.Spans...)
	return out, true
}

// IDs returns the retained trace IDs, oldest first.
func (s *TraceStore) IDs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.fifo...)
}

// Len returns the number of retained traces.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}
