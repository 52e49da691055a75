// Package ops is the server's operational HTTP surface: Prometheus
// /metrics over the obs registry, net/http/pprof, a nuclio-style
// readiness probe (/healthz answers 503 until WAL recovery completes and
// the data plane is listening), and a small read-only JSON admin API
// exposing the configuration chain and per-key state.
//
// The package is hook-based — it knows nothing about hosts or stores.
// The ares root package binds the hooks to a live Server; tests bind
// them to stubs. No admin verb changes server state: reconfiguration is a
// client protocol, run by reconfigurers over the data plane.
package ops

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/ares-storage/ares/internal/obs"
)

// AdminHooks implement the admin verbs. A nil hook answers 400 ("verb
// not available on this server"). Hooks return a JSON-marshalable result;
// errors render as {"ok":false,"error":...} with status 500 (or 400 for
// bad input, signaled by BadRequestError).
type AdminHooks struct {
	// Chain reports key's configuration chain (a read-config through the
	// ordinary recon path).
	Chain func(ctx context.Context, key string) (any, error)
	// KeyState reports the server-local view of key: materialized
	// (key, config) state per family and retirement info.
	KeyState func(key string) (any, error)
}

// BadRequestError marks a hook failure as the caller's fault (HTTP 400).
type BadRequestError struct{ Msg string }

func (e BadRequestError) Error() string { return e.Msg }

// Server is one ops surface. All fields are optional except Registry;
// a nil Ready reads as always-ready.
type Server struct {
	Registry *obs.Registry
	// Ready gates /healthz: the nuclio lifecycle idiom is that the ops
	// listener comes up first (so probes can distinguish "starting" from
	// "dead") and readiness flips only after recovery + data-plane bind.
	Ready func() bool
	// Info, when set, contributes identity fields to GET /admin/info.
	Info  func() map[string]any
	Admin AdminHooks
}

// adminTimeout bounds one admin verb's context.
const adminTimeout = 30 * time.Second

// Handler builds the ops mux. Routes:
//
//	GET  /metrics            Prometheus text exposition
//	GET  /metrics.json       registry snapshot as JSON
//	GET  /healthz            200 "ok" when ready, 503 "starting" before
//	     /debug/pprof/...    net/http/pprof
//	GET  /admin/info         identity + readiness
//	GET  /admin/chain?key=K
//	GET  /admin/keystate?key=K
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Registry.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Ready != nil && !s.Ready() {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("/admin/info", func(w http.ResponseWriter, r *http.Request) {
		info := map[string]any{"ready": s.Ready == nil || s.Ready()}
		if s.Info != nil {
			for k, v := range s.Info() {
				info[k] = v
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "result": info})
	})
	s.adminVerb(mux, "/admin/chain", func(ctx context.Context, r *http.Request) (any, error) {
		if s.Admin.Chain == nil {
			return nil, errNotConfigured
		}
		return s.Admin.Chain(ctx, r.FormValue("key"))
	})
	s.adminVerb(mux, "/admin/keystate", func(_ context.Context, r *http.Request) (any, error) {
		if s.Admin.KeyState == nil {
			return nil, errNotConfigured
		}
		return s.Admin.KeyState(r.FormValue("key"))
	})
	return mux
}

var errNotConfigured = BadRequestError{Msg: "verb not available on this server"}

// adminVerb wires one read-only hook route with method checking (GET only),
// key validation, timeout, and uniform JSON rendering.
func (s *Server) adminVerb(mux *http.ServeMux, path string, fn func(ctx context.Context, r *http.Request) (any, error)) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSON(w, http.StatusMethodNotAllowed,
				map[string]any{"ok": false, "error": "use GET"})
			return
		}
		if r.FormValue("key") == "" {
			writeJSON(w, http.StatusBadRequest,
				map[string]any{"ok": false, "error": "missing ?key="})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), adminTimeout)
		defer cancel()
		result, err := fn(ctx, r)
		if err != nil {
			status := http.StatusInternalServerError
			if _, ok := err.(BadRequestError); ok {
				status = http.StatusBadRequest
			}
			writeJSON(w, status, map[string]any{"ok": false, "error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "result": result})
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Serve runs the ops surface on l until the returned stop function is
// called. Connection lifetimes get modest hard bounds: this is a
// diagnostics listener, not a data plane.
func Serve(l net.Listener, s *Server) (stop func()) {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { _ = srv.Serve(l) }()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
}

// Listen binds addr and serves the ops surface on it, returning the bound
// address (addr may use port 0) and a stop function.
func Listen(addr string, s *Server) (bound string, stop func(), err error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	return l.Addr().String(), Serve(l, s), nil
}
