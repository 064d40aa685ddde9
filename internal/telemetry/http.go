package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Handler builds the admin endpoint multiplexer:
//
//	/metrics       Prometheus text exposition of reg
//	/debug/pprof/  runtime profiling
//	/traces        JSON list of retained trace IDs
//	/trace/<id>    JSON span dump of one trace (decimal id)
//
// traces may be nil, in which case the trace routes answer 404.
func Handler(reg *Registry, traces *TraceStore) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		if traces == nil {
			http.NotFound(w, nil)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(traces.IDs())
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		if traces == nil {
			http.NotFound(w, r)
			return
		}
		idStr := strings.TrimPrefix(r.URL.Path, "/trace/")
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		tr, ok := traces.Get(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			TraceRecord
			Truncated bool
		}{tr, tr.Truncated()})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "terradir admin: /metrics /debug/pprof/ /traces /trace/<id>\n")
	})
	return mux
}

// AdminServer is a running admin HTTP listener.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// Admin server timeout policy. The endpoint is unauthenticated operational
// plumbing, so it must not let one slow client pin a connection goroutine
// forever (slowloris). No WriteTimeout: /debug/pprof/profile and /trace
// legitimately stream for ~30s+, and a write deadline would cut them off.
const (
	adminReadHeaderTimeout = 5 * time.Second
	adminReadTimeout       = time.Minute
	adminIdleTimeout       = 2 * time.Minute
	adminShutdownTimeout   = 5 * time.Second
)

// StartAdmin binds addr and serves the admin Handler on it in a background
// goroutine. Close the returned server to stop it.
func StartAdmin(addr string, reg *Registry, traces *TraceStore) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: admin listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(reg, traces),
		ReadHeaderTimeout: adminReadHeaderTimeout,
		ReadTimeout:       adminReadTimeout,
		IdleTimeout:       adminIdleTimeout,
	}
	go srv.Serve(ln)
	return &AdminServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (a *AdminServer) Addr() string { return a.ln.Addr().String() }

// Close stops the server gracefully, letting in-flight handlers finish for
// up to adminShutdownTimeout before force-closing whatever remains.
func (a *AdminServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), adminShutdownTimeout)
	defer cancel()
	if err := a.srv.Shutdown(ctx); err != nil {
		return a.srv.Close()
	}
	return nil
}
