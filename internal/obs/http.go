package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"time"
)

// DebugServer is the optional HTTP debug endpoint of a running node or
// cluster process. It serves:
//
//	/metrics      the registry in Prometheus text exposition format
//	/debug/vars   expvar-style JSON (process vars plus the registry)
//	/healthz      liveness ("ok", plus any configured identity lines)
//	/debug/pprof  the standard Go profiler endpoints
//
// The server owns its listener and goroutine; Close shuts it down and
// waits, so a stopping node leaks nothing (see TestDebugServerNoLeak).
type DebugServer struct {
	ln     net.Listener
	srv    *http.Server
	served chan struct{}
}

// DebugOptions tunes ServeDebugOpts beyond the registry.
type DebugOptions struct {
	// Health, when non-nil, is queried per /healthz request; its
	// key=value pairs are appended (sorted by key) after the "ok" line,
	// so a probe learns *which* node answered — id, current protocol
	// epoch — not just that something did.
	Health func() map[string]string
	// Extra handlers are mounted under their map key (e.g. "/jobs" →
	// a serve.JourneysHandler, "/health" → a Monitor's handler).
	// Built-in paths cannot be overridden.
	Extra map[string]http.HandlerFunc
}

// ServeDebug starts a debug server on addr (e.g. "127.0.0.1:0") over
// the given registry. A nil registry serves empty metrics — the
// endpoints stay up so probes and dashboards need not care.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	return ServeDebugOpts(addr, reg, DebugOptions{})
}

// ServeDebugOpts is ServeDebug with options (health identity lines).
func ServeDebugOpts(addr string, reg *Registry, opts DebugOptions) (*DebugServer, error) {
	mux := newMux(opts.Extra, "/healthz", "/metrics", "/debug/vars", "/debug/pprof/")
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		if opts.Health == nil {
			return
		}
		kv := opts.Health()
		keys := make([]string, 0, len(kv))
		for k := range kv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s=%s\n", k, kv[k])
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		serveVars(w, reg)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return startServer(addr, "debug", mux)
}

// newMux returns a mux with the extra handlers mounted under their
// paths, except the caller's built-in ones, which it mounts itself.
func newMux(extra map[string]http.HandlerFunc, builtin ...string) *http.ServeMux {
	mux := http.NewServeMux()
	for path, h := range extra {
		if h != nil && !slices.Contains(builtin, path) {
			mux.HandleFunc(path, h)
		}
	}
	return mux
}

// startServer serves mux on addr until Close; kind names the server in
// a listen error.
func startServer(addr, kind string, mux *http.ServeMux) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %s listen %s: %w", kind, addr, err)
	}
	s := &DebugServer{ln: ln, served: make(chan struct{}),
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns on Shutdown/Close
	}()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// URL returns the http base URL of the server.
func (s *DebugServer) URL() string { return "http://" + s.Addr() }

// Close gracefully shuts the server down and waits for its goroutines;
// requests still running after a short grace window are cut off. Safe
// to call more than once.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Stragglers (a running pprof profile) get cut off hard.
		_ = s.srv.Close()
	}
	<-s.served
	return err
}

// serveVars writes the expvar JSON document: every published process
// var (importing expvar gives cmdline and memstats) plus the registry
// under the "metrics" key.
func serveVars(w http.ResponseWriter, reg *Registry) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{")
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if !first {
			fmt.Fprintf(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n%q: %s", kv.Key, kv.Value)
	})
	if !first {
		fmt.Fprintf(w, ",")
	}
	fmt.Fprintf(w, "\n%q: ", "metrics")
	if err := reg.WriteJSON(w); err != nil {
		return
	}
	fmt.Fprintf(w, "}\n")
}
