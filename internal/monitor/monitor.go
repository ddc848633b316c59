// Package monitor is the continuous-monitoring layer over the streaming
// scanner: it re-scans a domain set epoch after epoch, diffs each
// epoch's canonical results against the previous one, and maintains a
// durable alert stream plus per-epoch trace retention for triage.
//
// Crash consistency is inherited from the scan stream rather than
// reinvented. Each epoch is one ScanStream run with its own checkpoint;
// alerts are buffered in memory and flushed (fsynced) only inside the
// stream writer's checkpoint hook, so the alert log never claims a
// result the scan archive could lose. On restart the monitor resumes
// the interrupted epoch from its checkpoint, deterministically
// recomputes the alerts the emitted prefix implies, verifies the
// logged alerts are a byte-identical prefix of that recomputation, and
// appends whatever a crash swallowed — converging on exactly the log an
// uninterrupted run would have written.
//
// State directory layout:
//
//	state.json            magic/version/scan-key/next-epoch (atomic)
//	alerts.jsonl          the global append-only alert stream
//	epoch-N.jsonl         epoch N's canonical scan archive
//	epoch-N.ckpt          epoch N's crash-safe scan checkpoint
//	epoch-N.traces.jsonl  retained span trees for epoch N (includes a
//	                      pinned trace for every alerted domain)
package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/measure"
	"govdns/internal/obs"
	"govdns/internal/trace"
)

// Config parameterizes a Monitor. The rest is fixed: the stream's
// reorder window is measure.DefaultStreamMaxBuffer, the hijack
// heuristic knows providers.Default(), and each epoch's flight
// recorder keeps the trace package's default buckets plus a pinned
// ring of defaultPinned traces for alerted domains.
type Config struct {
	// StateDir holds every durable artifact. Required.
	StateDir string
	// ScanKey names the monitored world/domain-set identity. A state
	// directory written under one key refuses to serve another, and
	// each epoch's stream checkpoint is keyed "<ScanKey> epoch=N".
	ScanKey string
	// CheckpointEvery is results between scan checkpoints (and so
	// between alert flushes); 0 takes the stream default (256).
	CheckpointEvery int
	// Registry receives monitor, scanner, and trace instruments; nil
	// disables instrumentation (obs nil contract).
	Registry *obs.Registry
	// OnResult, when set, observes every emitted result after the
	// monitor's own diffing, under the stream writer's lock in emission
	// order. cmd/govmon leaves it nil; the crash drill kills an epoch
	// from it.
	OnResult func(*measure.DomainResult)
}

// defaultPinned sizes each epoch flight recorder's pinned ring, where
// alerted domains' traces live. It is larger than the trace package's
// default because every alert is supposed to carry its trace; an epoch
// that flips more domains than this is an incident, not a triage
// session.
const defaultPinned = 1024

const (
	stateMagic   = "govmon-state"
	stateVersion = 1
)

type stateJSON struct {
	Magic     string `json:"magic"`
	Version   int    `json:"version"`
	ScanKey   string `json:"scan_key"`
	NextEpoch int    `json:"next_epoch"`
}

// Monitor runs epochs. It is not safe for concurrent use; the daemon
// loop owns it.
type Monitor struct {
	cfg     Config
	metrics *Metrics
	differ  *Differ
	alog    *AlertLog

	nextEpoch int
	// logged carries the alert-log tail loaded at Open, consumed by the
	// first RunEpoch's resume reconciliation and then dropped: within a
	// process, an epoch never ends with unflushed alerts.
	logged []*Alert

	// consecutiveFailures is atomic because the daemon's liveness probe
	// reads it from the HTTP goroutine while RunEpoch updates it.
	consecutiveFailures atomic.Int64
}

// Open loads (or initializes) the monitor state under cfg.StateDir.
func Open(cfg Config) (*Monitor, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("monitor: Config.StateDir required")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	m := &Monitor{
		cfg:     cfg,
		metrics: NewMetrics(cfg.Registry),
		differ:  NewDiffer(),
	}
	st, err := loadState(m.statePath())
	if err != nil {
		return nil, err
	}
	if st != nil {
		if st.ScanKey != cfg.ScanKey {
			return nil, fmt.Errorf("monitor: state dir %s belongs to scan key %q, not %q",
				cfg.StateDir, st.ScanKey, cfg.ScanKey)
		}
		m.nextEpoch = st.NextEpoch
	}
	alog, logged, err := OpenAlertLog(filepath.Join(cfg.StateDir, "alerts.jsonl"))
	if err != nil {
		return nil, err
	}
	m.alog, m.logged = alog, logged
	if len(logged) > 0 {
		if st == nil {
			_ = alog.Close()
			return nil, fmt.Errorf("monitor: %s has alerts but no state.json", cfg.StateDir)
		}
		if last := logged[len(logged)-1].Epoch; last > m.nextEpoch {
			_ = alog.Close()
			return nil, fmt.Errorf("monitor: alert log reaches epoch %d but state says next epoch is %d",
				last, m.nextEpoch)
		}
	}
	if m.nextEpoch > 0 {
		base, err := loadEpochSummaries(m.epochPath(m.nextEpoch - 1))
		if err != nil {
			_ = alog.Close()
			return nil, fmt.Errorf("monitor: loading baseline epoch %d: %w", m.nextEpoch-1, err)
		}
		m.differ.SetBaseline(base)
	}
	if err := m.removeStaleCheckpoints(); err != nil {
		_ = alog.Close()
		return nil, err
	}
	return m, nil
}

// removeStaleCheckpoints deletes checkpoints of epochs the state has
// already advanced past. A crash between writing state.json
// (NextEpoch=N+1) and removing epoch-N.ckpt orphans that file: no
// resume of epoch N ever happens once the state points beyond it, so
// without this sweep the directory accumulates dead checkpoints. The
// current epoch's checkpoint (K == nextEpoch) is live resume state and
// is left alone.
func (m *Monitor) removeStaleCheckpoints() error {
	matches, err := filepath.Glob(filepath.Join(m.cfg.StateDir, "epoch-*.ckpt"))
	if err != nil {
		return err
	}
	for _, path := range matches {
		var k int
		if n, err := fmt.Sscanf(filepath.Base(path), "epoch-%d.ckpt", &k); err != nil || n != 1 {
			continue
		}
		if k >= m.nextEpoch {
			continue
		}
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("monitor: removing stale checkpoint %s: %w", path, err)
		}
	}
	return nil
}

// Close releases the alert log.
func (m *Monitor) Close() error { return m.alog.Close() }

// Epoch is the next epoch RunEpoch will run (== completed epochs).
func (m *Monitor) Epoch() int { return m.nextEpoch }

// ConsecutiveFailures reports the current failed-epoch streak — the
// daemon's liveness-check input. Unlike the rest of Monitor it is safe
// to call concurrently (health probes poll it while an epoch runs).
func (m *Monitor) ConsecutiveFailures() int { return int(m.consecutiveFailures.Load()) }

func (m *Monitor) statePath() string { return filepath.Join(m.cfg.StateDir, "state.json") }
func (m *Monitor) epochPath(n int) string {
	return filepath.Join(m.cfg.StateDir, fmt.Sprintf("epoch-%d.jsonl", n))
}
func (m *Monitor) ckptPath(n int) string {
	return filepath.Join(m.cfg.StateDir, fmt.Sprintf("epoch-%d.ckpt", n))
}

// TracesPath is where epoch n's retained span trees land.
func (m *Monitor) TracesPath(n int) string {
	return filepath.Join(m.cfg.StateDir, fmt.Sprintf("epoch-%d.traces.jsonl", n))
}

// EpochReport summarizes one completed epoch.
type EpochReport struct {
	Epoch   int
	Resumed bool
	// ResumedFrom is how many results a prior interrupted run had
	// already archived.
	ResumedFrom int
	Domains     int
	DigestHex   string
	// Alerts are this epoch's alerts in emission order, including any
	// recomputed during resume reconciliation.
	Alerts []*Alert
	// Traces is how many span trees were persisted for the epoch.
	Traces int
}

// RunEpoch executes one scan epoch: stream-scan src with scanner,
// diff each result against the previous epoch, append alerts, persist
// retained traces, and advance the epoch counter. The caller provides a
// fresh scanner (fresh resolver caches — a re-scan must re-measure) and
// a fresh source each epoch; RunEpoch installs the epoch's flight
// recorder and trace-pin predicate on the scanner.
//
// A cancelled or failed epoch leaves the checkpoint, archive prefix,
// and flushed alerts on disk and does not advance the epoch; the next
// RunEpoch (same process or a restart) resumes it. Traces are persisted
// on the graceful-cancel path too; only a hard kill loses trace detail
// for the interrupted epoch — never alerts.
func (m *Monitor) RunEpoch(ctx context.Context, scanner *measure.Scanner, src measure.DomainSource) (*EpochReport, error) {
	epoch := m.nextEpoch
	start := time.Now()
	rep := &EpochReport{Epoch: epoch}

	summaries := make(map[dnsname.Name]Summary)
	var pending []*Alert
	var logErr error
	nextSeq := m.alog.NextSeq()

	flight := trace.NewFlightRecorder(trace.Config{Pinned: defaultPinned})
	flight.AttachRegistry(m.cfg.Registry)
	scanner.Trace = flight

	// Each result is summarized and diffed exactly once, on the worker
	// that produced it: the trace-pin predicate needs the verdict before
	// the span tree is offered, and the emission hook reuses it rather
	// than recomputing. Entries are popped at emission; results dropped
	// by a cancelled scan leave at most an epoch-bounded residue.
	type verdict struct {
		sum   Summary
		alert *Alert
	}
	var verdictMu sync.Mutex
	verdicts := make(map[*measure.DomainResult]verdict)
	scanner.TracePin = func(r *measure.DomainResult) bool {
		sum := Summarize(r)
		v := verdict{sum, m.differ.diffSummary(r.Domain, sum)}
		verdictMu.Lock()
		verdicts[r] = v
		verdictMu.Unlock()
		return v.alert != nil
	}
	evaluate := func(r *measure.DomainResult) (Summary, *Alert) {
		verdictMu.Lock()
		v, ok := verdicts[r]
		if ok {
			delete(verdicts, r)
		}
		verdictMu.Unlock()
		if ok {
			return v.sum, v.alert
		}
		sum := Summarize(r)
		return sum, m.differ.diffSummary(r.Domain, sum)
	}

	streamCfg := measure.StreamConfig{
		CheckpointPath:  m.ckptPath(epoch),
		CheckpointEvery: m.cfg.CheckpointEvery,
		ScanKey:         fmt.Sprintf("%s epoch=%d", m.cfg.ScanKey, epoch),
		Metrics:         scanner.Metrics,
		OnResult: func(r *measure.DomainResult) {
			sum, a := evaluate(r)
			summaries[r.Domain] = sum
			if a != nil {
				a.Seq, a.Epoch = nextSeq, epoch
				nextSeq++
				pending = append(pending, a)
				rep.Alerts = append(rep.Alerts, a)
				m.metrics.recordAlert(a)
				m.metrics.setBacklog(len(pending))
			}
			if m.cfg.OnResult != nil {
				m.cfg.OnResult(r)
			}
		},
		// The durability hinge: alerts reach disk only here, after the
		// writer has flushed, fsynced, and atomically checkpointed the
		// scan prefix the alerts were derived from.
		OnCheckpoint: func(int) {
			if logErr != nil || len(pending) == 0 {
				return
			}
			if err := m.alog.Append(pending); err != nil {
				logErr = err
				return
			}
			pending = pending[:0]
			m.metrics.setBacklog(0)
		},
	}

	var sw *measure.StreamWriter
	_, statErr := os.Stat(m.ckptPath(epoch))
	if statErr == nil {
		var err error
		sw, rep.Alerts, err = m.resumeEpoch(epoch, streamCfg, summaries, &nextSeq)
		if err != nil {
			return nil, err
		}
		rep.Resumed, rep.ResumedFrom = true, sw.Emitted()
		defer func() { _ = sw.Close() }()
	} else if errors.Is(statErr, os.ErrNotExist) {
		f, err := os.Create(m.epochPath(epoch))
		if err != nil {
			return nil, err
		}
		defer func() { _ = f.Close() }()
		sw = measure.NewStreamWriter(f, streamCfg)
	} else {
		return nil, statErr
	}
	m.logged = nil

	scanErr := scanner.ScanStream(ctx, src, sw)
	// ScanStream has called Finish: the archive is flushed, the final
	// checkpoint written, and OnCheckpoint has drained pending alerts —
	// on the cancel path too.
	if logErr != nil {
		m.fail()
		return nil, fmt.Errorf("monitor: epoch %d alert log: %w", epoch, logErr)
	}
	// Persist whatever the recorder retained even when the scan was
	// cancelled: a graceful stop keeps its triage material.
	traces, traceErr := m.writeTraces(epoch, flight)
	if scanErr != nil {
		m.fail()
		return nil, fmt.Errorf("monitor: epoch %d: %w", epoch, scanErr)
	}
	if traceErr != nil {
		m.fail()
		return nil, fmt.Errorf("monitor: epoch %d traces: %w", epoch, traceErr)
	}
	rep.Traces = traces
	rep.Domains = sw.Emitted()
	rep.DigestHex = sw.DigestHex()

	if err := m.writeState(stateJSON{
		Magic: stateMagic, Version: stateVersion,
		ScanKey: m.cfg.ScanKey, NextEpoch: epoch + 1,
	}); err != nil {
		m.fail()
		return nil, err
	}
	// The checkpoint is now garbage (the epoch is complete); removing
	// it is what marks the epoch done for resume detection. The order
	// matters: state first, then remove. A crash in between only
	// orphans the file — state.json already points past this epoch, so
	// no restart resumes it, and Open sweeps stale checkpoints. The
	// reverse order would be a real bug (remove first and a crash
	// re-runs the epoch from scratch, re-emitting its alerts).
	_ = os.Remove(m.ckptPath(epoch))

	m.nextEpoch = epoch + 1
	m.differ.SetBaseline(summaries)
	m.consecutiveFailures.Store(0)
	m.metrics.recordEpoch(start, 0)
	return rep, nil
}

func (m *Monitor) fail() {
	m.metrics.recordFailure(int(m.consecutiveFailures.Add(1)))
}

// resumeEpoch reopens an interrupted epoch's stream and reconciles the
// alert log against the archived prefix: the prefix's results are
// re-diffed (deterministically — same baseline, same bytes), the
// already-logged alerts for this epoch must be a byte-identical prefix
// of that recomputation, and alerts a crash swallowed after their scan
// checkpoint landed are appended now. summaries is pre-seeded from the
// prefix so the next baseline covers domains this run will skip.
func (m *Monitor) resumeEpoch(epoch int, cfg measure.StreamConfig, summaries map[dnsname.Name]Summary, nextSeq *uint64) (*measure.StreamWriter, []*Alert, error) {
	sw, info, err := measure.ResumeStream(m.epochPath(epoch), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("monitor: resuming epoch %d: %w", epoch, err)
	}
	prefix, err := loadResults(m.epochPath(epoch))
	if err != nil {
		_ = sw.Close()
		return nil, nil, fmt.Errorf("monitor: re-reading epoch %d prefix: %w", epoch, err)
	}
	if len(prefix) != info.Emitted {
		_ = sw.Close()
		return nil, nil, fmt.Errorf("monitor: epoch %d prefix has %d results, checkpoint says %d",
			epoch, len(prefix), info.Emitted)
	}

	var loggedEpoch []*Alert
	for _, a := range m.logged {
		if a.Epoch == epoch {
			loggedEpoch = append(loggedEpoch, a)
		}
	}
	baseSeq := m.alog.NextSeq() - uint64(len(loggedEpoch))

	var expected []*Alert
	seq := baseSeq
	for _, r := range prefix {
		summaries[r.Domain] = Summarize(r)
		if a := m.differ.Diff(r); a != nil {
			a.Seq, a.Epoch = seq, epoch
			seq++
			expected = append(expected, a)
		}
	}
	if len(loggedEpoch) > len(expected) {
		_ = sw.Close()
		return nil, nil, fmt.Errorf("monitor: epoch %d log has %d alerts but the archive prefix implies %d",
			epoch, len(loggedEpoch), len(expected))
	}
	for i, logged := range loggedEpoch {
		if !sameAlert(logged, expected[i]) {
			_ = sw.Close()
			return nil, nil, fmt.Errorf("monitor: epoch %d alert seq %d diverges from the archive prefix",
				epoch, logged.Seq)
		}
	}
	if err := m.alog.Append(expected[len(loggedEpoch):]); err != nil {
		_ = sw.Close()
		return nil, nil, fmt.Errorf("monitor: reconciling epoch %d alerts: %w", epoch, err)
	}
	for _, a := range expected[len(loggedEpoch):] {
		m.metrics.recordAlert(a)
	}
	*nextSeq = seq
	return sw, expected, nil
}

// writeTraces atomically persists the epoch's retained traces, merging
// with a prior interrupted run's file: a resumed epoch skips
// already-archived domains, so their traces exist only in the earlier
// file. New retention wins per domain.
func (m *Monitor) writeTraces(epoch int, flight *trace.FlightRecorder) (int, error) {
	retained := flight.Retained()
	path := m.TracesPath(epoch)
	var existing []*trace.DomainTrace
	if data, err := os.ReadFile(path); err == nil {
		existing, err = trace.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return 0, fmt.Errorf("existing %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return 0, err
	}
	have := make(map[dnsname.Name]bool, len(retained))
	for _, dt := range retained {
		have[dt.Domain] = true
	}
	merged := retained
	for _, dt := range existing {
		if !have[dt.Domain] {
			merged = append(merged, dt)
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Domain != merged[j].Domain {
			return merged[i].Domain < merged[j].Domain
		}
		return merged[i].Start.Before(merged[j].Start)
	})
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, merged); err != nil {
		return 0, err
	}
	if err := measure.WriteFileAtomic(path, buf.Bytes()); err != nil {
		return 0, err
	}
	return len(merged), nil
}

func (m *Monitor) writeState(st stateJSON) error {
	data, err := json.Marshal(&st)
	if err != nil {
		return err
	}
	return measure.WriteFileAtomic(m.statePath(), append(data, '\n'))
}

func loadState(path string) (*stateJSON, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	st := new(stateJSON)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(st); err != nil {
		return nil, fmt.Errorf("monitor: %s: %w", path, err)
	}
	if st.Magic != stateMagic {
		return nil, fmt.Errorf("monitor: %s: not a monitor state file (magic %q)", path, st.Magic)
	}
	if st.Version != stateVersion {
		return nil, fmt.Errorf("monitor: %s: state version %d, want %d", path, st.Version, stateVersion)
	}
	if st.NextEpoch < 0 {
		return nil, fmt.Errorf("monitor: %s: negative epoch", path)
	}
	return st, nil
}

func loadResults(path string) ([]*measure.DomainResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	return measure.ReadJSONL(f)
}

func loadEpochSummaries(path string) (map[dnsname.Name]Summary, error) {
	results, err := loadResults(path)
	if err != nil {
		return nil, err
	}
	summaries := make(map[dnsname.Name]Summary, len(results))
	for _, r := range results {
		summaries[r.Domain] = Summarize(r)
	}
	return summaries, nil
}
