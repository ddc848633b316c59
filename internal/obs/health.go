package obs

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Health is the liveness/readiness surface a long-running process hangs
// off its ops mux: /healthz answers "is the process wedged" (liveness)
// and /readyz answers "should traffic/scrapes trust it yet" (readiness).
// Liveness runs a set of pluggable named checks; readiness is an
// explicit SetReady flip, so a daemon stays unready through its first
// warm-up epoch however healthy its internals look.
//
// The zero value is usable; a nil *Health is "always healthy, always
// ready" (the Handler wiring for processes that don't care). Checks must
// be safe for concurrent use — they are called from HTTP handlers.
type Health struct {
	ready atomic.Bool

	mu         sync.RWMutex
	liveChecks map[string]func() error
}

// NewHealth returns a Health that is alive but not yet ready.
func NewHealth() *Health {
	return &Health{}
}

// SetReady flips the explicit readiness gate.
func (h *Health) SetReady(ok bool) {
	if h != nil {
		h.ready.Store(ok)
	}
}

// AddLiveness registers a named liveness check; a non-nil error marks
// the process unhealthy. Re-registering a name replaces the check.
func (h *Health) AddLiveness(name string, check func() error) {
	if h == nil || check == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.liveChecks == nil {
		h.liveChecks = make(map[string]func() error)
	}
	h.liveChecks[name] = check
}

// CheckResult is one named check's outcome.
type CheckResult struct {
	Name string
	Err  error
}

// Liveness runs every liveness check and reports overall health plus
// per-check results in sorted name order. A nil Health is healthy.
func (h *Health) Liveness() (bool, []CheckResult) {
	if h == nil {
		return true, nil
	}
	h.mu.RLock()
	names := make([]string, 0, len(h.liveChecks))
	checks := make([]func() error, 0, len(h.liveChecks))
	for name := range h.liveChecks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		checks = append(checks, h.liveChecks[name])
	}
	h.mu.RUnlock()

	ok := true
	results := make([]CheckResult, len(names))
	for i, name := range names {
		err := checks[i]()
		results[i] = CheckResult{Name: name, Err: err}
		if err != nil {
			ok = false
		}
	}
	return ok, results
}

// Readiness reports whether SetReady(true) has been called. A nil
// Health is ready.
func (h *Health) Readiness() (bool, []CheckResult) {
	if h == nil || h.ready.Load() {
		return true, nil
	}
	return false, []CheckResult{{Name: "ready", Err: fmt.Errorf("not ready")}}
}

// healthHandler renders one probe: 200 "ok" plus per-check lines when
// everything passes, 503 with the failing checks otherwise. The body is
// plain text for humans and `kubectl describe`; machines key on the
// status code.
func healthHandler(probe func() (bool, []CheckResult)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		ok, results := probe()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		if ok {
			fmt.Fprintln(w, "ok")
		} else {
			fmt.Fprintln(w, "unavailable")
		}
		for _, r := range results {
			if r.Err != nil {
				fmt.Fprintf(w, "%s: %v\n", r.Name, r.Err)
			} else {
				fmt.Fprintf(w, "%s: ok\n", r.Name)
			}
		}
	}
}
