package measure

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/miniworld"
	"govdns/internal/obs"
	"govdns/internal/resolver"
	"govdns/internal/trace"
)

// These tests pin the observability layer's two load-bearing promises:
// metrics are *free* (a metrics-on scan digests bit-identical to a
// metrics-off one) and metrics are *honest* (stage histograms account
// for the scan's wall clock, and the HTTP snapshot reconciles with the
// resolver's own Stats).

// scanInstrumented is scanWith with a live metrics registry wired
// through the whole pipeline: resolver counters and RTT histogram on
// the client, stage histograms and progress counters on the scanner.
func scanInstrumented(t *testing.T, tr resolver.Transport, roots []netip.Addr, domains []dnsname.Name, workers, fanout int) ([]*DomainResult, *resolver.Client, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	client := resolver.NewClient(tr)
	client.Timeout = 10 * time.Millisecond
	client.Retries = 1
	client.AttachRegistry(reg)
	it := resolver.NewIterator(client, roots)
	it.AdaptiveOrder = true
	s := NewScanner(it)
	s.Concurrency = workers
	s.PerDomainParallelism = fanout
	s.Metrics = NewScanMetrics(reg)
	return s.Scan(context.Background(), domains), client, reg
}

// slowTransport adds a fixed per-exchange delay, honouring the context
// so timed-out attempts still abort on schedule. The stage-accounting
// test uses it to make wire waits dominate scan time, which turns
// "stage sums ≈ wall clock" into a robust assertion instead of a race
// against scheduler noise.
type slowTransport struct {
	inner resolver.Transport
	d     time.Duration
}

func (s slowTransport) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	timer := time.NewTimer(s.d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timer.C:
	}
	return s.inner.Exchange(ctx, server, query)
}

// TestScanMetricsDigestBitIdentical: instrumenting a scan must not
// change what it measures. Same world, same schedule shape, fresh
// caches both times — the digests must match bit for bit.
func TestScanMetricsDigestBitIdentical(t *testing.T) {
	w := miniworld.Build()
	domains := miniworld.Domains()

	off := scanWith(t, w.Net, w.Roots, domains, 4, 2, true)
	on, _, _ := scanInstrumented(t, w.Net, w.Roots, domains, 4, 2)

	if a, b := DigestHex(off), DigestHex(on); a != b {
		t.Errorf("metrics-on digest %s != metrics-off digest %s", b, a)
	}
}

// TestScanMetricsStageAccounting runs a fully serial scan over a
// delay-dominated transport and checks the stage histograms against
// ground truth: counts match the scan's structure, and — because every
// recorded stage interval nests inside its domain's interval, and
// serial domains partition the scan's wall clock — the sums obey
// stages ≤ domains ≤ wall clock, with the delay making the inequalities
// tight.
func TestScanMetricsStageAccounting(t *testing.T) {
	w := miniworld.Build()
	domains := miniworld.Domains()
	tr := slowTransport{inner: w.Net, d: 2 * time.Millisecond}

	start := time.Now()
	results, _, reg := scanInstrumented(t, tr, w.Roots, domains, 1, 1)
	wall := time.Since(start)

	parentWalk := reg.Histogram("scan_stage_parent_walk")
	nsFetch := reg.Histogram("scan_stage_ns_fetch")
	childProbe := reg.Histogram("scan_stage_child_probe")
	secondRound := reg.Histogram("scan_stage_second_round")
	domainHist := reg.Histogram("scan_domain_duration")

	var secondRounds uint64
	for _, r := range results {
		if r.Rounds == 2 {
			secondRounds++
		}
	}
	if secondRounds == 0 {
		t.Fatal("no domain took a second round; the fixture should include at least one fully defective domain")
	}
	if got := secondRound.Count(); got != secondRounds {
		t.Errorf("second-round histogram count = %d, want %d (results with Rounds==2)", got, secondRounds)
	}
	if got := reg.Counter("scan_second_rounds_total").Load(); got != secondRounds {
		t.Errorf("scan_second_rounds_total = %d, want %d", got, secondRounds)
	}
	// Each round's scanOnce records exactly one parent walk, so the walk
	// histogram counts first rounds plus retries.
	if got, want := parentWalk.Count(), uint64(len(domains))+secondRounds; got != want {
		t.Errorf("parent-walk histogram count = %d, want %d (%d domains + %d second rounds)", got, want, len(domains), secondRounds)
	}
	if got := domainHist.Count(); got != uint64(len(domains)) {
		t.Errorf("domain histogram count = %d, want %d", got, len(domains))
	}
	if got := reg.Counter("scan_domains_done_total").Load(); got != uint64(len(domains)) {
		t.Errorf("scan_domains_done_total = %d, want %d", got, len(domains))
	}
	if got := reg.Gauge("scan_domains_total").Load(); got != int64(len(domains)) {
		t.Errorf("scan_domains_total gauge = %d, want %d", got, len(domains))
	}

	// Sum accounting. The second-round histogram is excluded from the
	// stage sum: its interval *contains* the retry's walk/fetch/probe
	// intervals, which are already counted.
	stages := parentWalk.Sum() + nsFetch.Sum() + childProbe.Sum()
	domainsSum := domainHist.Sum()
	if stages > domainsSum {
		t.Errorf("stage sums (%v) exceed domain-duration sum (%v); stage intervals must nest inside their domain", stages, domainsSum)
	}
	if domainsSum > wall {
		t.Errorf("domain-duration sum (%v) exceeds scan wall clock (%v); serial domains must partition the scan", domainsSum, wall)
	}
	// Tightness: with a 2ms floor under every exchange, time outside the
	// recorded stages is bookkeeping noise.
	if float64(stages) < 0.8*float64(domainsSum) {
		t.Errorf("stage sums (%v) cover only %.0f%% of domain time (%v); want ≥ 80%% under a delay-dominated transport",
			stages, 100*float64(stages)/float64(domainsSum), domainsSum)
	}
	if float64(domainsSum) < 0.8*float64(wall) {
		t.Errorf("domain time (%v) covers only %.0f%% of wall clock (%v); want ≥ 80%% for a serial scan",
			domainsSum, 100*float64(domainsSum)/float64(wall), wall)
	}
}

// TestStageRecordsShareOneReading: a stage that is both metered and
// traced is timed once, at its stage edge, so its span and its
// histogram observation are the same duration. With every domain's
// trace kept, each stage histogram counts exactly the spans of its
// stage, and its sum equals their durations' sum to the nanosecond.
func TestStageRecordsShareOneReading(t *testing.T) {
	w := miniworld.Build()
	domains := miniworld.Domains()
	reg := obs.NewRegistry()
	client := resolver.NewClient(w.Net)
	client.Timeout = 10 * time.Millisecond
	client.Retries = 1
	client.AttachRegistry(reg)
	s := NewScanner(resolver.NewIterator(client, w.Roots))
	s.Concurrency = 4
	s.PerDomainParallelism = 2
	s.Metrics = NewScanMetrics(reg)
	s.Trace = trace.NewFlightRecorder(trace.Config{Pinned: len(domains)})
	s.TracePin = func(*DomainResult) bool { return true }
	s.Scan(context.Background(), domains)

	traces := s.Trace.Retained()
	if len(traces) != len(domains) {
		t.Fatalf("retained %d traces, want one per domain (%d)", len(traces), len(domains))
	}
	type tally struct {
		n   uint64
		sum time.Duration
	}
	byKind := make(map[trace.Kind]*tally)
	var secondRounds tally
	for _, dt := range traces {
		if dt.DroppedSpans != 0 {
			t.Fatalf("%s: %d spans dropped", dt.Domain, dt.DroppedSpans)
		}
		for i := range dt.Spans {
			sp := &dt.Spans[i]
			if sp.Event {
				continue
			}
			if !sp.Ended() {
				t.Fatalf("%s: span %d (%s %s) left open", dt.Domain, sp.ID, sp.Kind, sp.Name)
			}
			tl := byKind[sp.Kind]
			if sp.Kind == trace.KindRound && sp.Name == "round 2" {
				tl = &secondRounds
			}
			if tl == nil {
				tl = &tally{}
				byKind[sp.Kind] = tl
			}
			tl.n++
			tl.sum += sp.Duration
		}
	}
	if secondRounds.n == 0 {
		t.Fatal("no domain took a second round; the fixture should include at least one fully defective domain")
	}
	for _, c := range []struct {
		hist  string
		spans *tally
	}{
		{"scan_domain_duration", byKind[trace.KindDomain]},
		{"scan_stage_parent_walk", byKind[trace.KindParentWalk]},
		{"scan_stage_ns_fetch", byKind[trace.KindNSFetch]},
		{"scan_stage_child_probe", byKind[trace.KindChildProbe]},
		{"scan_stage_second_round", &secondRounds},
		{"resolver_attempt_rtt", byKind[trace.KindExchange]},
	} {
		h := reg.Histogram(c.hist)
		if c.spans == nil || c.spans.n == 0 {
			t.Errorf("%s: no spans of its stage were recorded", c.hist)
			continue
		}
		if h.Count() != c.spans.n {
			t.Errorf("%s: count %d, want %d (one per span)", c.hist, h.Count(), c.spans.n)
		}
		if h.Sum() != c.spans.sum {
			t.Errorf("%s: sum %d ns, spans' durations sum to %d ns", c.hist, h.Sum(), c.spans.sum)
		}
	}
}

// TestMetricsHandlerReconcilesWithStats serves a post-scan registry
// over the same HTTP handler govscan's -metrics flag mounts, and checks
// the snapshot a client would download against resolver.Stats. The two
// views read the same atomics, so any drift means the migration left a
// counter behind.
func TestMetricsHandlerReconcilesWithStats(t *testing.T) {
	w := miniworld.Build()
	_, client, reg := scanInstrumented(t, w.Net, w.Roots, miniworld.Domains(), 4, 2)

	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics snapshot: %v", err)
	}

	stats := client.Stats()
	checks := []struct {
		name string
		want uint64
	}{
		{"resolver_sent_total", stats.Sent},
		{"resolver_received_total", stats.Received},
		{"resolver_timeouts_total", stats.Timeouts},
		{"resolver_mismatches_total", stats.Mismatches},
		{"resolver_truncations_total", stats.Truncations},
	}
	for _, c := range checks {
		got, ok := snap.Counters[c.name]
		if !ok {
			t.Errorf("snapshot missing counter %q", c.name)
			continue
		}
		if got != c.want {
			t.Errorf("snapshot %s = %d, want %d (resolver.Stats)", c.name, got, c.want)
		}
	}
	if snap.Counters["resolver_sent_total"] == 0 {
		t.Error("resolver_sent_total = 0 after a full scan; registry not wired through the client")
	}
}

// TestMetricsSeriesBounded: the registry's series set is fixed — it must
// not grow with the number of servers a scan queries, which is what a
// per-address metric family did (ROADMAP item 5(b)). What each address
// did is read from the client's server table instead.
func TestMetricsSeriesBounded(t *testing.T) {
	w := miniworld.Build()
	domains := miniworld.Domains()
	_, oneClient, oneReg := scanInstrumented(t, w.Net, w.Roots, domains[:1], 4, 2)
	_, allClient, allReg := scanInstrumented(t, w.Net, w.Roots, domains, 4, 2)

	one, all := oneClient.WorstServers(-1), allClient.WorstServers(-1)
	if len(all) <= len(one) {
		t.Fatalf("full scan queried %d addresses, one-domain scan %d; the test needs the former to be more", len(all), len(one))
	}
	oneSnap, allSnap := oneReg.Snapshot(), allReg.Snapshot()
	if a, b := len(oneSnap.Counters), len(allSnap.Counters); a != b {
		t.Errorf("counter series: %d after one domain, %d after %d; the set must not depend on the servers queried", a, b, len(domains))
	}
	for name := range allSnap.Counters {
		for _, row := range all {
			if strings.Contains(name, row.Addr.String()) {
				t.Errorf("counter series %q is named by server address %s", name, row.Addr)
			}
		}
	}
	var timeouts uint64
	for _, row := range all {
		timeouts += row.Timeouts
	}
	if got := allClient.Stats().Timeouts; got != timeouts || got == 0 {
		t.Errorf("per-server timeouts sum to %d, resolver_timeouts_total = %d; want equal and non-zero", timeouts, got)
	}
}

// TestProgressETAEWMA drives the progress reporter's rate estimator
// with a synthetic clock through the scenario the EWMA exists for: a
// fast first phase, then the second round kicks in and the completion
// rate collapses. The ETA must converge to the current rate instead of
// the cumulative average, which still remembers the fast phase.
func TestProgressETAEWMA(t *testing.T) {
	base := time.Unix(1700000000, 0)
	const total = 10000
	const tick = 10 * time.Second

	st := &progressState{lastAt: base}
	now := base
	var done uint64

	// A zero-progress first window primes the rate at 0: no basis for
	// an ETA yet.
	now = now.Add(tick)
	line := progressLine(st, now, done, total, 0, 0, 0, 0, 0, 0)
	if !strings.Contains(line, "eta ?") {
		t.Errorf("zero-progress line should have no ETA: %q", line)
	}

	// Fast phase: 50 domains per 10s tick (5/s) for 20 ticks — over
	// three tau, enough to converge up from the zero-primed start.
	for i := 0; i < 20; i++ {
		done += 50
		now = now.Add(tick)
		line = progressLine(st, now, done, total, 0, 0, 0, 0, 0, 0)
	}
	if st.rate < 4.5 || st.rate > 5.0 {
		t.Fatalf("fast-phase rate = %.2f, want ~5/s", st.rate)
	}

	// Second round kicks in: 5 domains per tick (0.5/s) for 6 minutes
	// (6 tau), long enough for the fast phase to be forgotten.
	for i := 0; i < 36; i++ {
		done += 5
		now = now.Add(tick)
		line = progressLine(st, now, done, total, 0, 0, 0, 0, 0, 0)
	}
	if st.rate < 0.5 || st.rate > 0.6 {
		t.Errorf("slow-phase rate = %.3f/s, want ~0.5/s (EWMA must forget the fast phase)", st.rate)
	}

	// The cumulative average is still dominated by the fast phase —
	// the misestimate this estimator replaces. Guard the test's own
	// premise so the scenario stays meaningful if constants change.
	cumulative := float64(done) / now.Sub(base).Seconds()
	if cumulative < 2*st.rate {
		t.Fatalf("scenario too gentle: cumulative %.3f/s vs EWMA %.3f/s", cumulative, st.rate)
	}

	// The printed ETA is remaining/EWMA-rate, nowhere near the
	// cumulative extrapolation.
	wantETA := time.Duration(float64(total-done) / st.rate * float64(time.Second)).Round(time.Second)
	if !strings.Contains(line, "eta "+wantETA.String()) {
		t.Errorf("line %q should carry eta %s", line, wantETA)
	}

	// Finished scans stop predicting.
	now = now.Add(tick)
	line = progressLine(st, now, total, total, 0, 0, 0, 0, 0, 0)
	if !strings.Contains(line, "eta ?") {
		t.Errorf("completed scan should print no ETA: %q", line)
	}
}

// TestProgressLineCounters: rates and percentages come from the window
// deltas and done counts, and a non-advancing clock cannot divide by
// zero.
func TestProgressLineCounters(t *testing.T) {
	base := time.Unix(1700000000, 0)
	st := &progressState{lastAt: base}
	line := progressLine(st, base.Add(10*time.Second), 40, 100, 800, 10, 5, 0, 0, 0)
	for _, want := range []string{"40/100 domains", "(4.0/s, 80 qps)", "errors 25.0%", "transient 12.5%"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	// Same timestamp again: window clamps to 1s instead of dividing by
	// zero; deltas are zero so rates read 0.
	line = progressLine(st, base.Add(10*time.Second), 40, 100, 800, 10, 5, 0, 0, 0)
	if !strings.Contains(line, "(0.0/s, 0 qps)") {
		t.Errorf("zero-window line = %q", line)
	}
}

// TestProgressLineStreamed: the streamed-path tail appears only when the
// stream writer has been active, and the checkpoint age is computed from
// the synthetic clock, not the wall clock.
func TestProgressLineStreamed(t *testing.T) {
	base := time.Unix(1700000000, 0)

	// Slice path: no streamed results, no checkpoint — no tail.
	st := &progressState{lastAt: base}
	line := progressLine(st, base.Add(10*time.Second), 40, 100, 0, 0, 0, 0, 0, 0)
	if strings.Contains(line, "stream") || strings.Contains(line, "ckpt") {
		t.Errorf("slice-path line grew a streaming tail: %q", line)
	}

	// Streaming with a checkpoint 73s ago on the synthetic clock.
	st = &progressState{lastAt: base}
	now := base.Add(10 * time.Second)
	ckptNS := now.Add(-73 * time.Second).UnixNano()
	line = progressLine(st, now, 40, 100, 0, 0, 0, 37, 9, ckptNS)
	if want := "| stream 37 emitted buf 9 ckpt age 1m13s"; !strings.Contains(line, want) {
		t.Errorf("line %q missing %q", line, want)
	}

	// Streaming before the first checkpoint: tail present, age "none".
	st = &progressState{lastAt: base}
	line = progressLine(st, now, 40, 100, 0, 0, 0, 5, 2, 0)
	if want := "| stream 5 emitted buf 2 ckpt age none"; !strings.Contains(line, want) {
		t.Errorf("line %q missing %q", line, want)
	}

	// Resume-only window: checkpoint exists but nothing emitted yet this
	// run (the writer re-checkpointed on resume) — tail still shown.
	st = &progressState{lastAt: base}
	line = progressLine(st, now, 0, 100, 0, 0, 0, 0, 0, ckptNS)
	if !strings.Contains(line, "stream 0 emitted") {
		t.Errorf("resume-only line missing tail: %q", line)
	}
}
