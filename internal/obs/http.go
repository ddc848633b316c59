package obs

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
)

// ServeEndpoint binds addr and serves HandlerWith(r, h) on it — a
// daemon's -metrics flag — until ctx ends. It returns the bound address
// (a 0 port resolved) or the bind error; an empty addr serves nothing
// and returns a nil address. It writes nothing: the caller announces
// the endpoint on its own output.
func ServeEndpoint(ctx context.Context, addr string, r *Registry, h *Health) (net.Addr, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: HandlerWith(r, h)}
	context.AfterFunc(ctx, func() { _ = srv.Close() })
	go func() { _ = srv.Serve(ln) }() // returns once Close has run
	return ln.Addr(), nil
}

// Handler serves the registry over HTTP with no health surface wired in
// — /healthz and /readyz always answer 200. Processes with real
// lifecycle state use HandlerWith.
func Handler(r *Registry) http.Handler {
	return HandlerWith(r, nil)
}

// HandlerWith serves the registry and health surface over HTTP:
//
//	GET /metrics             the RegistrySnapshot as JSON
//	GET /metrics?format=prom Prometheus text exposition (version 0.0.4)
//	GET /healthz             liveness probe (h's liveness checks)
//	GET /readyz              readiness probe (SetReady gate + checks)
//	GET /debug/pprof/*       the standard Go profiling endpoints
//
// A nil h keeps both probes unconditionally healthy, so every existing
// Handler caller gains the routes without gaining state to manage.
//
// The pprof routes are mounted explicitly rather than through the
// net/http/pprof side-effect import, so the endpoint works on a private
// mux and importing this package never mutates http.DefaultServeMux.
func HandlerWith(r *Registry, h *Health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := r.WriteProm(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", healthHandler(h.Liveness))
	mux.HandleFunc("/readyz", healthHandler(h.Readiness))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
