package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func getProbe(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestHealthLifecycle walks the daemon lifecycle the probes exist for:
// alive-but-unready at start, ready after the warm-up flip, unhealthy
// when a liveness check starts failing, unready again when the gate
// flips back.
func TestHealthLifecycle(t *testing.T) {
	h := NewHealth()
	var liveErr error
	h.AddLiveness("epoch-streak", func() error { return liveErr })
	srv := httptest.NewServer(HandlerWith(NewRegistry(), h))
	defer srv.Close()

	if code, body := getProbe(t, srv, "/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok\n") {
		t.Errorf("fresh /healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := getProbe(t, srv, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "ready: not ready") {
		t.Errorf("fresh /readyz = %d %q, want 503 not-ready", code, body)
	}

	h.SetReady(true)
	if code, _ := getProbe(t, srv, "/readyz"); code != http.StatusOK {
		t.Errorf("ready /readyz = %d, want 200", code)
	}

	liveErr = fmt.Errorf("5 consecutive epoch failures")
	if code, body := getProbe(t, srv, "/healthz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "epoch-streak: 5 consecutive epoch failures") {
		t.Errorf("failing /healthz = %d %q", code, body)
	}
	liveErr = nil

	h.SetReady(false)
	if code, body := getProbe(t, srv, "/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "ready: not ready") {
		t.Errorf("unready /readyz = %d %q", code, body)
	}
}

// TestHealthNil: Handler (nil Health) keeps both probes green — the
// compatibility contract for existing callers.
func TestHealthNil(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry()))
	defer srv.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, body := getProbe(t, srv, path); code != http.StatusOK || body != "ok\n" {
			t.Errorf("nil-health %s = %d %q, want 200 ok", path, code, body)
		}
	}

	// Nil receiver methods are no-ops, not panics.
	var h *Health
	h.SetReady(true)
	h.AddLiveness("x", func() error { return nil })
	if ok, _ := h.Liveness(); !ok {
		t.Error("nil Health not alive")
	}
	if ok, _ := h.Readiness(); !ok {
		t.Error("nil Health not ready")
	}
}

// TestHealthCheckOrder: probe bodies list checks in sorted name order,
// so two probes of the same state render identically.
func TestHealthCheckOrder(t *testing.T) {
	h := NewHealth()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		h.AddLiveness(name, func() error { return nil })
	}
	srv := httptest.NewServer(HandlerWith(NewRegistry(), h))
	defer srv.Close()
	_, body := getProbe(t, srv, "/healthz")
	want := "ok\nalpha: ok\nmid: ok\nzeta: ok\n"
	if body != want {
		t.Errorf("body %q, want %q", body, want)
	}
}
