package monitor

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"govdns/internal/authserver"
	"govdns/internal/dnsname"
	"govdns/internal/measure"
	"govdns/internal/miniworld"
	"govdns/internal/obs"
	"govdns/internal/resolver"
)

// monitorWorld is the integration fixture: the hand-crafted miniworld
// plus extra provider-hosted children, so an epoch is long enough to
// kill mid-flight.
func monitorWorld() (*miniworld.World, []dnsname.Name) {
	w := miniworld.Build()
	extra := w.AddHostedChildren(32)
	return w, append(miniworld.Domains(), extra...)
}

// epochScanner builds the fresh per-epoch scanner RunEpoch requires:
// fresh resolver caches so the epoch re-measures instead of replaying
// the last epoch's cache.
func epochScanner(w *miniworld.World, workers int, reg *obs.Registry) *measure.Scanner {
	client := resolver.NewClient(w.Net)
	client.Timeout = 20 * time.Millisecond
	client.AttachRegistry(reg)
	it := resolver.NewIterator(client, w.Roots)
	s := measure.NewScanner(it)
	s.Concurrency = workers
	s.PerDomainParallelism = 2
	if reg != nil {
		s.Metrics = measure.NewScanMetrics(reg)
	}
	return s
}

// mutateWorld applies the between-epoch incident script: city's
// delegation is hijacked and lame's one working server dies.
func mutateWorld(w *miniworld.World) {
	w.HijackCity()
	w.Servers["ns1.lame.gov.br."].SetBehavior(authserver.BehaviorUnresponsive)
}

// gatedSource yields the first gate domains freely, then blocks until
// the context dies before yielding the rest. The miniworld sim is fast
// enough that an ungated kill test races: every domain finishes before
// cancellation propagates. Gating the feed pins the kill mid-epoch
// without touching emission order, so the killed archive stays a prefix
// of the uninterrupted run's.
func gatedSource(ctx context.Context, domains []dnsname.Name, gate int) measure.DomainSource {
	i := 0
	return func() (dnsname.Name, bool) {
		if i >= len(domains) {
			return "", false
		}
		if i == gate {
			<-ctx.Done()
		}
		d := domains[i]
		i++
		return d, true
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runTwoEpochs runs the epoch-0 baseline scan, the incident mutation,
// and the epoch-1 re-scan in a fresh state dir, returning the dir.
func runTwoEpochs(t *testing.T, workers int, reg *obs.Registry) string {
	t.Helper()
	dir := t.TempDir()
	w, domains := monitorWorld()
	m, err := Open(Config{StateDir: dir, ScanKey: "miniworld", CheckpointEvery: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	rep0, err := m.RunEpoch(ctx, epochScanner(w, workers, reg), measure.SliceSource(domains))
	if err != nil {
		t.Fatalf("epoch 0: %v", err)
	}
	if len(rep0.Alerts) != 0 {
		t.Fatalf("epoch 0 (no baseline) produced %d alerts", len(rep0.Alerts))
	}
	if rep0.Domains != len(domains) {
		t.Fatalf("epoch 0 covered %d of %d domains", rep0.Domains, len(domains))
	}
	mutateWorld(w)
	rep1, err := m.RunEpoch(ctx, epochScanner(w, workers, reg), measure.SliceSource(domains))
	if err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	if len(rep1.Alerts) == 0 {
		t.Fatal("epoch 1 saw the incident but produced no alerts")
	}
	return dir
}

// TestMonitorAlertsDeterministic is the alert differential: the alert
// log and the epoch archives must be bit-identical whatever the scan
// concurrency and whether instrumentation is attached — alerts inherit
// the scan's determinism contract.
func TestMonitorAlertsDeterministic(t *testing.T) {
	serial := runTwoEpochs(t, 1, nil)
	parallel := runTwoEpochs(t, 8, obs.NewRegistry())

	for _, name := range []string{"alerts.jsonl", "epoch-0.jsonl", "epoch-1.jsonl"} {
		a := mustRead(t, filepath.Join(serial, name))
		b := mustRead(t, filepath.Join(parallel, name))
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between serial and parallel+instrumented runs", name)
		}
	}

	alerts, err := ReadAlerts(bytes.NewReader(mustRead(t, filepath.Join(serial, "alerts.jsonl"))))
	if err != nil {
		t.Fatalf("ReadAlerts: %v", err)
	}
	if len(alerts) != 2 {
		t.Fatalf("incident produced %d alerts, want 2 (city hijack, lame flip):\n%+v", len(alerts), alerts)
	}
	city, lame := alerts[0], alerts[1]
	if city.Domain != "city.gov.br." || city.Severity != SevCritical || !hasKind(city, "hijack-pattern") {
		t.Errorf("alert 0 = %+v, want critical hijack-pattern for city.gov.br.", city)
	}
	if lame.Domain != "lame.gov.br." || lame.Severity != SevCritical || !hasKind(lame, "class-flip") {
		t.Errorf("alert 1 = %+v, want critical class-flip for lame.gov.br.", lame)
	}
	if lame.PrevClass != "partially-lame" || lame.Class != "fully-lame" {
		t.Errorf("lame flip %s -> %s, want partially-lame -> fully-lame", lame.PrevClass, lame.Class)
	}
}

// TestMonitorKillResumeAlertLog is the crash drill (the alert-stream
// analogue of TestScanStreamKillAtNResumeClean): kill the daemon
// mid-epoch, restart against the same state dir, and require the alert
// log to come out append-only, gap-free, and bit-identical to an
// uninterrupted run's. The lost-flush leg additionally simulates a hard
// kill landing between the scan checkpoint and the alert flush by
// deleting the flushed tail — resume reconciliation must regenerate it.
func TestMonitorKillResumeAlertLog(t *testing.T) {
	want := runTwoEpochs(t, 4, nil)
	wantAlerts := mustRead(t, filepath.Join(want, "alerts.jsonl"))
	wantEpoch1 := mustRead(t, filepath.Join(want, "epoch-1.jsonl"))

	for _, tamper := range []struct {
		name string
		fn   func(t *testing.T, alertPath string)
	}{
		{"clean-kill", func(*testing.T, string) {}},
		{"lost-flush-and-torn-tail", func(t *testing.T, alertPath string) {
			// Drop the last durable alert line (the flush a hard kill
			// would have lost) and leave a torn half-line behind it.
			data := mustRead(t, alertPath)
			trimmed := data[:len(data)-1] // strip final newline
			if i := bytes.LastIndexByte(trimmed, '\n'); i >= 0 {
				trimmed = trimmed[:i+1]
			} else {
				trimmed = nil
			}
			torn := append(trimmed, []byte(`{"seq":99,"epo`)...)
			if err := os.WriteFile(alertPath, torn, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tamper.name, func(t *testing.T) {
			dir := t.TempDir()
			w, domains := monitorWorld()
			killAt := 6
			n := 0
			armed := false
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := Config{
				StateDir: dir, ScanKey: "miniworld", CheckpointEvery: 4,
				OnResult: func(*measure.DomainResult) {
					if !armed {
						return
					}
					if n++; n == killAt {
						cancel()
					}
				},
			}
			m, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.RunEpoch(ctx, epochScanner(w, 4, nil), measure.SliceSource(domains)); err != nil {
				t.Fatalf("epoch 0: %v", err)
			}
			mutateWorld(w)
			armed = true
			rep, err := m.RunEpoch(ctx, epochScanner(w, 4, nil), gatedSource(ctx, domains, 2*killAt))
			if err == nil {
				t.Fatalf("killed epoch returned no error (emitted %d)", rep.Domains)
			}
			if m.ConsecutiveFailures() != 1 {
				t.Errorf("failure streak = %d, want 1", m.ConsecutiveFailures())
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			// The interrupted epoch's archive must be a clean prefix.
			killed, err := loadResults(filepath.Join(dir, "epoch-1.jsonl"))
			if err != nil {
				t.Fatalf("killed epoch prefix unreadable: %v", err)
			}
			if len(killed) < killAt || len(killed) >= len(domains) {
				t.Fatalf("kill landed at %d emitted of %d: not a mid-epoch interruption", len(killed), len(domains))
			}
			alertsAfterKill := mustRead(t, filepath.Join(dir, "alerts.jsonl"))
			tamper.fn(t, filepath.Join(dir, "alerts.jsonl"))

			// "Restart the daemon": a fresh Monitor over the same state.
			m2, err := Open(Config{StateDir: dir, ScanKey: "miniworld", CheckpointEvery: 4})
			if err != nil {
				t.Fatalf("reopening state: %v", err)
			}
			defer m2.Close()
			if m2.Epoch() != 1 {
				t.Fatalf("reopened monitor at epoch %d, want 1 (in progress)", m2.Epoch())
			}
			rep2, err := m2.RunEpoch(context.Background(), epochScanner(w, 4, nil), measure.SliceSource(domains))
			if err != nil {
				t.Fatalf("resumed epoch: %v", err)
			}
			if !rep2.Resumed || rep2.ResumedFrom != len(killed) {
				t.Errorf("resume report %+v, want Resumed from %d", rep2, len(killed))
			}
			if rep2.Domains != len(domains) {
				t.Errorf("resumed epoch emitted %d of %d", rep2.Domains, len(domains))
			}

			final := mustRead(t, filepath.Join(dir, "alerts.jsonl"))
			if !bytes.Equal(final, wantAlerts) {
				t.Errorf("resumed alert log differs from uninterrupted run:\n--- got ---\n%s--- want ---\n%s", final, wantAlerts)
			}
			if tamper.name == "clean-kill" && !bytes.HasPrefix(final, alertsAfterKill) {
				t.Error("alert log was rewritten, not appended")
			}
			if got := mustRead(t, filepath.Join(dir, "epoch-1.jsonl")); !bytes.Equal(got, wantEpoch1) {
				t.Error("resumed epoch archive differs from uninterrupted run")
			}
		})
	}
}

// TestMonitorStaleCheckpointSweep: a crash between advancing state.json
// and removing the finished epoch's checkpoint orphans the ckpt file —
// no resume ever consults an epoch the state has passed. Open must sweep
// such stale checkpoints while leaving the current epoch's (live resume
// state) untouched.
func TestMonitorStaleCheckpointSweep(t *testing.T) {
	dir := t.TempDir()
	w, domains := monitorWorld()
	m, err := Open(Config{StateDir: dir, ScanKey: "miniworld"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunEpoch(context.Background(), epochScanner(w, 4, nil), measure.SliceSource(domains)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Recreate the orphan the crash window leaves behind (epoch 0 is
	// complete; state.json already says next_epoch=1), plus a live
	// checkpoint for the in-progress epoch 1.
	stale := filepath.Join(dir, "epoch-0.ckpt")
	live := filepath.Join(dir, "epoch-1.ckpt")
	for _, p := range []string{stale, live} {
		if err := os.WriteFile(p, []byte("ckpt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m2, err := Open(Config{StateDir: dir, ScanKey: "miniworld"})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale %s survived Open (err=%v), want swept", stale, err)
	}
	if _, err := os.Stat(live); err != nil {
		t.Errorf("live %s: %v, want kept for resume", live, err)
	}
}

// TestMonitorStateGuards: a state dir refuses to serve a different scan
// key, and a completed state reopens at the right epoch with its
// baseline loaded.
func TestMonitorStateGuards(t *testing.T) {
	dir := t.TempDir()
	w, domains := monitorWorld()
	m, err := Open(Config{StateDir: dir, ScanKey: "key-a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunEpoch(context.Background(), epochScanner(w, 4, nil), measure.SliceSource(domains)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Config{StateDir: dir, ScanKey: "key-b"}); err == nil {
		t.Error("state dir served a different scan key")
	}

	m2, err := Open(Config{StateDir: dir, ScanKey: "key-a"})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Epoch() != 1 {
		t.Errorf("reopened at epoch %d, want 1", m2.Epoch())
	}
	if m2.differ.baseline == nil {
		t.Error("reopened monitor has no baseline despite a completed epoch")
	}
}
