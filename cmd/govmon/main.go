// Command govmon is the continuous-monitoring daemon built on the
// streaming scanner: it re-scans a domain population on a schedule,
// diffs every epoch against the previous one, and appends
// classification flips, NS-set churn, and hijack-pattern transitions to
// a durable alert log. Every alerted domain's full resolution span tree
// is retained alongside, so triage starts from evidence, not a re-scan.
//
// Subcommands:
//
//	govmon run  -state DIR [-interval 1m] [-epochs N] [-metrics :9090]
//	            run the daemon against the synthetic world; a killed
//	            daemon restarted with the same -state resumes mid-epoch
//	govmon tail -state DIR [-n 10] [-traces]
//	            render the newest alerts (optionally with each alerted
//	            domain's retained span tree inline)
//	govmon demo
//	            two-epoch miniworld demo with an injected NS hijack;
//	            prints the resulting alert and its span tree
//
// With -metrics the daemon also serves /healthz (liveness: the epoch
// failure streak stays under 5), /readyz (ready once the first epoch
// completes), and /metrics?format=prom.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"govdns/internal/measure"
	"govdns/internal/miniworld"
	"govdns/internal/monitor"
	"govdns/internal/obs"
	"govdns/internal/resolver"
	"govdns/internal/trace"
	"govdns/internal/worldgen"
)

func main() {
	// An interrupt cancels the running epoch cleanly: the stream writer
	// checkpoints the emitted prefix and the flushed alerts stay durable,
	// so a restart with the same -state resumes mid-epoch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "govmon: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: govmon run|tail|demo [flags]")
	}
	switch args[0] {
	case "run":
		return runDaemon(ctx, args[1:], stdout, stderr)
	case "tail":
		return runTail(args[1:], stdout, stderr)
	case "demo":
		return runDemo(ctx, args[1:], stdout, stderr)
	default:
		return fmt.Errorf("unknown subcommand %q (want run, tail, or demo)", args[0])
	}
}

// maxFailureStreak is the liveness threshold: this many consecutive
// failed epochs means the daemon is wedged, not unlucky.
const maxFailureStreak = 5

func runDaemon(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // the telemetry endpoint serves until runDaemon returns
	fs := flag.NewFlagSet("govmon run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stateDir := fs.String("state", "", "state directory (required; survives restarts)")
	interval := fs.Duration("interval", time.Minute, "pause between epoch starts (0 = back-to-back)")
	epochs := fs.Int("epochs", 0, "stop after this many completed epochs (0 = run until interrupted)")
	seed := fs.Int64("seed", 42, "synthetic world seed")
	scale := fs.Float64("scale", 0.02, "synthetic world scale")
	concurrency := fs.Int("concurrency", measure.DefaultConcurrency, "concurrent domains per epoch")
	timeout := fs.Duration("timeout", 25*time.Millisecond, "per-query timeout")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /healthz, /readyz, and pprof on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stateDir == "" {
		return errors.New("govmon run: -state is required")
	}

	active := worldgen.Build(worldgen.Generate(worldgen.Config{Seed: *seed, Scale: *scale}))

	reg := obs.NewRegistry()
	m, err := monitor.Open(monitor.Config{
		StateDir: *stateDir,
		ScanKey:  fmt.Sprintf("govmon sim seed=%d scale=%g", *seed, *scale),
		Registry: reg,
	})
	if err != nil {
		return err
	}
	defer func() { _ = m.Close() }()

	health := obs.NewHealth()
	health.AddLiveness("epoch-failures", func() error {
		if n := m.ConsecutiveFailures(); n >= maxFailureStreak {
			return fmt.Errorf("%d consecutive epoch failures", n)
		}
		return nil
	})
	if bound, err := obs.ServeEndpoint(ctx, *metricsAddr, reg, health); err != nil {
		return fmt.Errorf("-metrics: %w", err)
	} else if bound != nil {
		fmt.Fprintf(stderr, "telemetry on http://%s/metrics /healthz /readyz (pprof under /debug/pprof/)\n", bound)
	}

	fmt.Fprintf(stderr, "monitoring %d domains (epoch %d, interval %v, state %s)\n",
		len(active.QueryList), m.Epoch(), *interval, *stateDir)
	completed := 0
	for {
		epochStart := time.Now()
		scanner := newSimScanner(active, *concurrency, *timeout, reg)
		rep, err := m.RunEpoch(ctx, scanner, measure.SliceSource(active.QueryList))
		switch {
		case err == nil:
			resumed := ""
			if rep.Resumed {
				resumed = fmt.Sprintf(" (resumed from %d)", rep.ResumedFrom)
			}
			fmt.Fprintf(stderr, "epoch %d: %d domains%s in %v, %d alerts, %d traces retained (digest %s)\n",
				rep.Epoch, rep.Domains, resumed, time.Since(epochStart).Round(time.Millisecond),
				len(rep.Alerts), rep.Traces, rep.DigestHex)
			for _, a := range rep.Alerts {
				monitor.WriteAlert(stdout, a)
			}
			health.SetReady(true)
			completed++
		case errors.Is(err, context.Canceled):
			// rep is nil on error; m.Epoch() still names the interrupted
			// epoch because a failed RunEpoch does not advance it.
			fmt.Fprintf(stderr, "epoch %d interrupted; state at %s resumes it\n", m.Epoch(), *stateDir)
			return nil
		default:
			fmt.Fprintf(stderr, "epoch %d failed (streak %d): %v\n", m.Epoch(), m.ConsecutiveFailures(), err)
		}
		if *epochs > 0 && completed >= *epochs {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

func newSimScanner(active *worldgen.Active, concurrency int, timeout time.Duration, reg *obs.Registry) *measure.Scanner {
	client := resolver.NewClient(active.Net)
	client.Timeout = timeout
	client.AttachRegistry(reg)
	s := measure.NewScanner(resolver.NewIterator(client, active.Roots))
	s.Concurrency = concurrency
	s.Metrics = measure.NewScanMetrics(reg)
	return s
}

func runTail(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("govmon tail", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stateDir := fs.String("state", "", "state directory (required)")
	n := fs.Int("n", 10, "newest alerts to show")
	withTraces := fs.Bool("traces", false, "render each alerted domain's retained span tree inline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stateDir == "" {
		return errors.New("govmon tail: -state is required")
	}

	// Tail is strictly read-only: a live daemon owns the alert log, so
	// triage reads the files directly instead of opening a Monitor.
	f, err := os.Open(filepath.Join(*stateDir, "alerts.jsonl"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(stdout, "no alerts")
			return nil
		}
		return err
	}
	alerts, err := monitor.ReadAlerts(f)
	_ = f.Close()
	if err != nil {
		return err
	}
	if len(alerts) == 0 {
		fmt.Fprintln(stdout, "no alerts")
		return nil
	}
	if len(alerts) > *n {
		alerts = alerts[len(alerts)-*n:]
	}
	// Alerts from one epoch share a trace file; load each epoch once.
	traces := map[int]map[string]*trace.DomainTrace{}
	for _, a := range alerts {
		monitor.WriteAlert(stdout, a)
		if !*withTraces {
			continue
		}
		byDomain, ok := traces[a.Epoch]
		if !ok {
			byDomain = loadEpochTraces(filepath.Join(*stateDir, fmt.Sprintf("epoch-%d.traces.jsonl", a.Epoch)))
			traces[a.Epoch] = byDomain
		}
		if dt := byDomain[string(a.Domain)]; dt != nil {
			if err := trace.RenderTree(stdout, dt); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(stdout, "  (no retained trace for %s in epoch %d)\n", a.Domain, a.Epoch)
		}
	}
	return nil
}

// loadEpochTraces indexes an epoch's trace archive by domain; a missing
// or unreadable archive just means no inline trees.
func loadEpochTraces(path string) map[string]*trace.DomainTrace {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer func() { _ = f.Close() }()
	all, err := trace.ReadJSONL(f)
	if err != nil {
		return nil
	}
	out := make(map[string]*trace.DomainTrace, len(all))
	for _, dt := range all {
		out[string(dt.Domain)] = dt
	}
	return out
}

func runDemo(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("govmon demo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "govmon-demo-*")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	w := miniworld.Build()
	domains := miniworld.Domains()
	m, err := monitor.Open(monitor.Config{StateDir: dir, ScanKey: "demo"})
	if err != nil {
		return err
	}
	defer func() { _ = m.Close() }()

	if _, err := m.RunEpoch(ctx, newMiniScanner(w), measure.SliceSource(domains)); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "epoch 0: baseline over %d domains, no alerts\n", len(domains))

	evil := w.HijackCity()
	fmt.Fprintf(stdout, "injected: city.gov.br. delegation replaced with %s\n\n", evil)

	rep, err := m.RunEpoch(ctx, newMiniScanner(w), measure.SliceSource(domains))
	if err != nil {
		return err
	}
	traces := loadEpochTraces(m.TracesPath(rep.Epoch))
	for _, a := range rep.Alerts {
		monitor.WriteAlert(stdout, a)
		if dt := traces[string(a.Domain)]; dt != nil {
			if err := trace.RenderTree(stdout, dt); err != nil {
				return err
			}
		}
	}
	return nil
}

func newMiniScanner(w *miniworld.World) *measure.Scanner {
	client := resolver.NewClient(w.Net)
	client.Timeout = 25 * time.Millisecond
	s := measure.NewScanner(resolver.NewIterator(client, w.Roots))
	s.Concurrency = 4
	return s
}
