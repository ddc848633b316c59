package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"govdns/internal/dnswire"
)

const testZone = `$ORIGIN gov.br.
$TTL 3600
@	3600	IN	SOA	ns1.gov.br. hostmaster.gov.br. 2021041500 7200 3600 1209600 300
@	3600	IN	NS	ns1.gov.br.
ns1	3600	IN	A	192.0.2.1
www	3600	IN	A	192.0.2.80
`

// TestServeOneQuery starts the server on an ephemeral loopback port,
// reads the bound address from its serving line, asks it one A query
// over UDP, and stops it by cancelling the context.
func TestServeOneQuery(t *testing.T) {
	const wantResponse = "076f1f315a405baee51b75ab2701b1436897b99409d2d65254d6193a74e4cd5b"
	zonePath := filepath.Join(t.TempDir(), "gov.br.zone")
	if err := os.WriteFile(zonePath, []byte(testZone), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	defer pr.Close() // a failed test stops reading; the server's writes then fail, not block
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-zone", zonePath, "-origin", "gov.br", "-listen", "127.0.0.1:0"}, pw, io.Discard)
		_ = pw.Close()
		done <- err
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("no serving line: %v", <-done)
	}
	serving := lines.Text()
	_, rest, _ := strings.Cut(serving, " on ")
	addr, _, _ := strings.Cut(rest, " ")
	if want := "serving gov.br. (4 records) on " + addr + " (udp+tcp, edns-buf 1232, cache true)"; serving != want {
		t.Errorf("serving line %q, want %q", serving, want)
	}

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	query, err := dnswire.Encode(dnswire.NewQuery(7, "www.gov.br.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(query); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no answer: %v", err)
	}
	resp, err := dnswire.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data.String() != "192.0.2.80" {
		t.Errorf("answer:\n%s", resp)
	}
	if sum := sha256.Sum256(buf[:n]); hex.EncodeToString(sum[:]) != wantResponse {
		t.Errorf("response digest %x, want %s", sum, wantResponse)
	}

	cancel()
	var after []string
	for lines.Scan() {
		after = append(after, lines.Text())
	}
	if err := <-done; err != nil {
		t.Errorf("run after cancel: %v", err)
	}
	if len(after) != 1 || after[0] != "shutting down" {
		t.Errorf("lines after cancel %q, want [shutting down]", after)
	}
}

// lockedBuffer is a writer a test can read while run writes to it, and
// that counts the writes made after the test sealed it.
type lockedBuffer struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	closed bool
	late   int
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		b.late++
	}
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *lockedBuffer) seal() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
}

func (b *lockedBuffer) lateWrites() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.late
}

// TestMetricsEndpoint: -metrics on port 0 binds before the zone loads,
// the telemetry line on run's stderr names the bound port, /metrics
// answers there, and nothing writes to stderr after run returns. A
// -metrics address that cannot be bound makes run fail.
func TestMetricsEndpoint(t *testing.T) {
	zonePath := filepath.Join(t.TempDir(), "gov.br.zone")
	if err := os.WriteFile(zonePath, []byte(testZone), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	defer pr.Close()
	stderr := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		err := run(ctx, []string{"-zone", zonePath, "-origin", "gov.br", "-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}, pw, stderr)
		_ = pw.Close()
		done <- err
	}()
	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("no serving line: %v", <-done)
	}

	line, _, _ := strings.Cut(stderr.String(), "\n")
	rest, ok := strings.CutPrefix(line, "telemetry on http://127.0.0.1:")
	port, _, _ := strings.Cut(rest, "/")
	if !ok || port == "" || port == "0" {
		t.Fatalf("stderr %q: no telemetry line with a bound port", stderr.String())
	}
	if want := "telemetry on http://127.0.0.1:" + port + "/metrics /healthz /readyz (pprof under /debug/pprof/)"; line != want {
		t.Errorf("telemetry line %q, want %q", line, want)
	}
	resp, err := http.Get("http://127.0.0.1:" + port + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var snapshot map[string]any
	err = json.NewDecoder(resp.Body).Decode(&snapshot)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Errorf("GET /metrics: status %d, decode error %v", resp.StatusCode, err)
	}

	cancel()
	for lines.Scan() { // drain stdout so run can write its last line
	}
	if err := <-done; err != nil {
		t.Errorf("run after cancel: %v", err)
	}
	stderr.seal()

	if err := run(context.Background(), []string{"-zone", zonePath, "-origin", "gov.br", "-metrics", "127.0.0.1:port"}, io.Discard, io.Discard); err == nil || !strings.HasPrefix(err.Error(), "-metrics: ") {
		t.Errorf("unbindable -metrics address: run returned %v, want a -metrics error", err)
	}
	if late := stderr.lateWrites(); late != 0 {
		t.Errorf("%d writes to stderr after run returned", late)
	}
}

func TestFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"no origin":            {"-zone", "x.zone"},
		"neither zone nor xfr": {"-origin", "gov.br"},
		"both zone and xfr":    {"-origin", "gov.br", "-zone", "x.zone", "-xfr", "127.0.0.1:1"},
		"missing zone file":    {"-origin", "gov.br", "-zone", filepath.Join(t.TempDir(), "nope.zone")},
	} {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: run(%q) succeeded", name, args)
		}
	}
}
