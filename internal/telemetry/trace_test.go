package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestTraceStoreCompleteAndTruncated(t *testing.T) {
	s := NewTraceStore(4)
	// Span reports arrive per hop, possibly out of order.
	s.AddSpan(7, Span{Seq: 1, Server: 2, Reason: HopChild})
	s.AddSpan(7, Span{Seq: 0, Server: 1, Reason: HopParent})
	tr, ok := s.Get(7)
	if !ok || len(tr.Spans) != 2 {
		t.Fatalf("in-flight trace = %+v, ok=%v", tr, ok)
	}
	if !tr.Truncated() {
		t.Fatal("in-flight trace must read as truncated")
	}
	// A duplicate report, then the resolving hop's report and the result.
	s.AddSpan(7, Span{Seq: 1, Server: 2, Reason: HopChild})
	s.AddSpan(7, Span{Seq: 2, Server: 3, Reason: HopResolve})
	s.Complete(7, true, 2)
	tr, _ = s.Get(7)
	if !tr.Done || !tr.OK || tr.Hops != 2 {
		t.Fatalf("completed trace = %+v", tr)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("duplicate spans not merged: %+v", tr.Spans)
	}
	for i, sp := range tr.Spans {
		if int(sp.Seq) != i {
			t.Fatalf("spans out of order: %+v", tr.Spans)
		}
	}
	if tr.Truncated() {
		t.Fatal("complete contiguous trace reported truncated")
	}
}

func TestTraceStoreTruncatedOnGapOrShortfall(t *testing.T) {
	s := NewTraceStore(4)
	// Hop 1's report was lost; result claims 2 hops.
	s.AddSpan(9, Span{Seq: 0, Server: 1})
	s.AddSpan(9, Span{Seq: 2, Server: 3, Reason: HopResolve})
	s.Complete(9, true, 2)
	tr, _ := s.Get(9)
	if !tr.Truncated() {
		t.Fatal("gap in Seq must read as truncated")
	}
	// Query dropped mid-route: spans but never Done.
	s.AddSpan(11, Span{Seq: 0, Server: 1})
	s.AddSpan(11, Span{Seq: 1, Server: 2})
	tr, _ = s.Get(11)
	if tr.Done || !tr.Truncated() {
		t.Fatalf("lost lookup: %+v", tr)
	}
}

func TestTraceStoreFIFOEviction(t *testing.T) {
	s := NewTraceStore(2)
	s.AddSpan(1, Span{})
	s.AddSpan(2, Span{})
	s.AddSpan(3, Span{}) // evicts 1
	if _, ok := s.Get(1); ok {
		t.Fatal("oldest trace not evicted")
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestTraceStoreIgnoresZeroID(t *testing.T) {
	s := NewTraceStore(2)
	s.AddSpan(0, Span{})
	s.Complete(0, true, 0)
	if s.Len() != 0 {
		t.Fatal("id 0 (untraced) must not create records")
	}
}

func TestAdminHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "h").Inc()
	traces := NewTraceStore(4)
	traces.AddSpan(42, Span{Seq: 0, Server: 1, Reason: HopResolve})
	traces.Complete(42, true, 0)
	srv := httptest.NewServer(Handler(reg, traces))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_total 1") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/trace/42"); code != 200 {
		t.Fatalf("/trace/42: %d %q", code, body)
	} else {
		var out struct {
			ID        uint64
			Spans     []map[string]any
			Truncated bool
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatalf("trace json: %v in %q", err, body)
		}
		if out.ID != 42 || out.Truncated || len(out.Spans) != 1 {
			t.Fatalf("trace dump = %+v", out)
		}
		if out.Spans[0]["Reason"] != "resolve" {
			t.Fatalf("reason not rendered as string: %v", out.Spans[0])
		}
	}
	if code, _ := get("/trace/999"); code != 404 {
		t.Fatalf("missing trace: %d", code)
	}
	if code, body := get("/traces"); code != 200 || !strings.Contains(body, "42") {
		t.Fatalf("/traces: %d %q", code, body)
	}
	if code, _ := get("/debug/vars"); code != 404 {
		t.Fatalf("/debug/vars: %d, want 404 (/metrics is the one exposition)", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path: %d", code)
	}
}
