package measure

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"govdns/internal/obs"
	"govdns/internal/trace"
)

// ScanMetrics holds the scanner's instrument handles on an obs.Registry:
// per-stage latency histograms for the paper's Fig. 1 pipeline
// (parent-zone poll → NS fetch → child probe → second round) and the
// progress counters the reporter and HTTP endpoint read. A nil
// *ScanMetrics is a valid no-op recorder, so the scanner's hot path
// never branches on "is observability on" beyond one nil check inside
// each record method.
type ScanMetrics struct {
	// Stage histograms by trace kind: the parent walk is the delegation
	// walk (Fig. 1 steps 1-2); the NS fetch is per-host nameserver
	// address resolution (step 3, including child-only hosts); the child
	// probe is one host's sequence of per-address NS queries (step 4);
	// the round's is the second round's, a full retry pass (§ III-B);
	// the domain's is the whole-domain wall clock including any second
	// round.
	stages [trace.KindChildProbe + 1]*obs.Histogram

	domainsTotal *obs.Gauge
	domainsDone  *obs.Counter
	walkFailures *obs.Counter
	errDomains   *obs.Counter
	transients   *obs.Counter
	secondRounds *obs.Counter
	probeQueries *obs.Counter

	// Streaming-path instruments (ScanStream + StreamWriter): results
	// flushed to the output in order, the high-water mark of the
	// out-of-order reorder buffer, checkpoint records written, and
	// domains skipped on resume because a previous run already emitted
	// them.
	streamed     *obs.Counter
	bufferHigh   *obs.Gauge
	checkpoints  *obs.Counter
	resumedSkips *obs.Counter
	lastCkptNS   *obs.Gauge

	// sent is the resolver's own query counter on the same registry,
	// read (never written) by the progress reporter for its QPS line.
	sent *obs.Counter
}

// NewScanMetrics builds the scanner's instruments on r. Instruments are
// get-or-create, so sharing r with the resolver's client gives one
// coherent registry for the whole pipeline.
func NewScanMetrics(r *obs.Registry) *ScanMetrics {
	return &ScanMetrics{
		stages: [...]*obs.Histogram{
			trace.KindDomain:     r.Histogram("scan_domain_duration"),
			trace.KindRound:      r.Histogram("scan_stage_second_round"),
			trace.KindParentWalk: r.Histogram("scan_stage_parent_walk"),
			trace.KindNSFetch:    r.Histogram("scan_stage_ns_fetch"),
			trace.KindChildProbe: r.Histogram("scan_stage_child_probe"),
		},
		domainsTotal: r.Gauge("scan_domains_total"),
		domainsDone:  r.Counter("scan_domains_done_total"),
		walkFailures: r.Counter("scan_walk_failures_total"),
		errDomains:   r.Counter("scan_error_domains_total"),
		transients:   r.Counter("scan_transient_domains_total"),
		secondRounds: r.Counter("scan_second_rounds_total"),
		probeQueries: r.Counter("scan_probe_queries_total"),
		streamed:     r.Counter("scan_results_streamed_total"),
		bufferHigh:   r.Gauge("scan_stream_buffer_highwater"),
		checkpoints:  r.Counter("scan_checkpoints_written_total"),
		resumedSkips: r.Counter("scan_resumed_skips_total"),
		lastCkptNS:   r.Gauge("scan_last_checkpoint_unix_ns"),
		sent:         r.Counter("resolver_sent_total"),
	}
}

// stage returns the latency histogram a scanner stage of kind k feeds,
// or nil when m is nil. KindRound's is the second round's: round one is
// timed by its domain.
func (m *ScanMetrics) stage(k trace.Kind) *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.stages[k]
}

// The record methods below bump the progress counters; every one
// tolerates a nil receiver so an uninstrumented scanner pays a single
// predictable branch.

func (m *ScanMetrics) recordDomain(r *DomainResult) {
	if m == nil {
		return
	}
	m.domainsDone.Inc()
	if r.Rounds == 2 {
		m.secondRounds.Inc()
	}
	if r.Err != "" {
		m.errDomains.Inc()
	}
	if r.ErrTransient {
		m.transients.Inc()
	}
}

// SetTotal records the expected domain count for progress reporting.
// Scan sets it itself from its slice; streaming callers that know their
// source's length (e.g. a SliceSource over a query list) set it here,
// since ScanStream cannot know how long its iterator runs.
func (m *ScanMetrics) SetTotal(n int) {
	if m == nil {
		return
	}
	m.domainsTotal.Set(int64(n))
}

func (m *ScanMetrics) recordStreamed() {
	if m == nil {
		return
	}
	m.streamed.Inc()
}

func (m *ScanMetrics) recordBufferHighwater(n int) {
	if m == nil {
		return
	}
	m.bufferHigh.Set(int64(n))
}

func (m *ScanMetrics) recordCheckpoint() {
	if m == nil {
		return
	}
	m.checkpoints.Inc()
	m.lastCkptNS.Set(time.Now().UnixNano())
}

func (m *ScanMetrics) recordResumedSkip() {
	if m == nil {
		return
	}
	m.resumedSkips.Inc()
}

// ProgressReporter periodically prints one-line scan progress — domains
// done/total, domain and query rates, error and transient rates, and an
// ETA extrapolated from the done-rate — from a ScanMetrics. Run it in
// its own goroutine; it stops when the context ends.
type ProgressReporter struct {
	Metrics *ScanMetrics
	// Interval between reports. Zero or negative defaults to 10s.
	Interval time.Duration
	// W receives the report lines (defaults to io.Discard if nil, which
	// makes a misconfigured reporter harmless).
	W io.Writer
}

// progressEWMATau is the time constant of the done-rate EWMA the ETA
// extrapolates from: windows much shorter than tau barely move the
// estimate, and history older than a few tau is forgotten. 60s tracks a
// scan's phase changes (the second round kicking in, the tail draining)
// within a couple of reports without jittering on every tick.
const progressEWMATau = 60 * time.Second

// progressState carries the reporter's inter-tick state. It is a plain
// struct updated by progressLine — a pure function of (state, counter
// values, clock) — so tests drive it with a synthetic clock.
type progressState struct {
	lastDone uint64
	lastSent uint64
	lastAt   time.Time
	rate     float64 // EWMA of the domain completion rate (domains/sec)
	primed   bool    // rate holds a real observation
}

// Run reports until ctx is cancelled, then emits one final line.
func (p *ProgressReporter) Run(ctx context.Context) {
	if p.Metrics == nil || p.W == nil {
		return
	}
	interval := p.Interval
	if interval <= 0 {
		interval = 10 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	st := &progressState{lastAt: time.Now()}
	for {
		select {
		case <-ctx.Done():
			p.report(st, time.Now())
			return
		case now := <-t.C:
			p.report(st, now)
		}
	}
}

func (p *ProgressReporter) report(st *progressState, now time.Time) {
	m := p.Metrics
	fmt.Fprintln(p.W, progressLine(st, now,
		m.domainsDone.Load(), m.domainsTotal.Load(),
		m.sent.Load(), m.errDomains.Load(), m.transients.Load(),
		m.streamed.Load(), m.bufferHigh.Load(), m.lastCkptNS.Load()))
}

// progressLine advances st to now and renders one progress report. The
// ETA extrapolates from an EWMA of the recent completion rate rather
// than the cumulative average: when the scan changes phase — most
// visibly when second-round retries start and the done-rate drops —
// the cumulative average still remembers the fast early phase and
// promises an ETA the scan cannot meet, while the EWMA converges to
// the current rate within a few tau.
// The streamed-path tail (emitted count, reorder-buffer highwater,
// checkpoint age) appears only when the stream writer is active —
// results have been emitted or a checkpoint exists — so the slice
// path's line is unchanged.
func progressLine(st *progressState, now time.Time, done uint64, total int64, sent, errs, trans, streamed uint64, bufHigh, ckptNS int64) string {
	window := now.Sub(st.lastAt).Seconds()
	if window <= 0 {
		window = 1
	}
	qps := float64(sent-st.lastSent) / window
	domRate := float64(done-st.lastDone) / window
	st.lastDone, st.lastSent, st.lastAt = done, sent, now

	// Window-aware smoothing: alpha = 1 - exp(-window/tau) gives the
	// same decay per unit time whatever the tick spacing, so a delayed
	// report (long window) weighs its observation proportionally more.
	alpha := 1 - math.Exp(-window/progressEWMATau.Seconds())
	if !st.primed {
		st.rate, st.primed = domRate, true
	} else {
		st.rate += alpha * (domRate - st.rate)
	}

	eta := "?"
	if total > 0 && uint64(total) > done && st.rate > 0 {
		eta = time.Duration(float64(uint64(total)-done) / st.rate * float64(time.Second)).Round(time.Second).String()
	}
	pct := func(n uint64) float64 {
		if done == 0 {
			return 0
		}
		return 100 * float64(n) / float64(done)
	}
	line := fmt.Sprintf("scan: %d/%d domains (%.1f/s, %.0f qps) errors %.1f%% transient %.1f%% eta %s",
		done, total, domRate, qps, pct(errs), pct(trans), eta)
	if streamed > 0 || ckptNS > 0 {
		age := "none"
		if ckptNS > 0 {
			age = now.Sub(time.Unix(0, ckptNS)).Round(time.Second).String()
		}
		line += fmt.Sprintf(" | stream %d emitted buf %d ckpt age %s", streamed, bufHigh, age)
	}
	return line
}
