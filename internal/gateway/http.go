package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"terradir/internal/overlay"
)

// httpServer is the gateway's HTTP/JSON surface:
//
//	GET /lookup?name=/n0/n1  ->  200 lookupResponse (ok true or false)
//	                             404 unknown name
//	                             429 shed (Retry-After set)
//	                             503 draining (Retry-After set)
//	                             504 upstream timeout
//	GET /healthz             ->  200 ok, 503 once draining (LB ejection)
//	GET /metrics             ->  Prometheus text
type httpServer struct {
	g   *Gateway
	srv *http.Server
	ln  net.Listener
}

// lookupResponse is the JSON body for /lookup.
type lookupResponse struct {
	Name      string  `json:"name"`
	Node      int64   `json:"node"`
	OK        bool    `json:"ok"`
	Reason    string  `json:"reason,omitempty"`
	Hops      int     `json:"hops"`
	LatencyMS float64 `json:"latency_ms"`
	Servers   []int32 `json:"servers,omitempty"`
	Hedged    bool    `json:"hedged"`
	HedgeWon  bool    `json:"hedge_won,omitempty"`
	Coalesced bool    `json:"coalesced"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// StartHTTP binds the HTTP/JSON surface on addr and returns the bound
// address. Call once; Close (or Drain+Close) tears it down.
func (g *Gateway) StartHTTP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("gateway: http listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /lookup", g.handleLookup)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		g.reg.WritePrometheus(w)
	})
	s := &httpServer{
		g:  g,
		ln: ln,
		srv: &http.Server{
			Handler: mux,
			// Slowloris hardening, mirroring the telemetry admin server: a
			// client trickling its headers cannot pin a connection forever.
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			IdleTimeout:       60 * time.Second,
		},
	}
	g.httpSrv = s
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		s.srv.Serve(ln) // returns on close
	}()
	return ln.Addr().String(), nil
}

func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// tenantOf identifies the admission-control tenant: the X-Tenant header
// when present, else the client IP.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if g.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func (g *Gateway) handleLookup(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	if ok, retry := g.adm.allow(tenantOf(r)); !ok {
		g.m.shedHTTP.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "rate limit exceeded"})
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing name parameter"})
		return
	}
	node := g.tree.Lookup(name)
	if node == invalidNode {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no such name %q", name)})
		return
	}
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(r.Context(), overlay.LookupTimeout+time.Second)
	res, err := g.Lookup(ctx, node)
	cancel()
	if err != nil {
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error()})
		return
	}
	body := lookupResponse{
		Name:      res.Name,
		Node:      int64(res.Node),
		OK:        res.OK,
		Hops:      res.Hops,
		LatencyMS: float64(res.Latency) / float64(time.Millisecond),
		Hedged:    res.Hedged,
		HedgeWon:  res.HedgeWon,
		Coalesced: res.Coalesced,
	}
	if !res.OK {
		body.Reason = res.Reason.String()
	}
	for _, s := range res.Servers {
		body.Servers = append(body.Servers, int32(s))
	}
	writeJSON(w, http.StatusOK, body)
}
