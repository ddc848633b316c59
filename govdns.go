// Package govdns reproduces "A Comprehensive, Longitudinal Study of
// Government DNS Deployment at Global Scale" (DSN 2022) as a runnable Go
// library: a synthetic global government-DNS world, a passive-DNS decade
// of history, the paper's active measurement pipeline, and every § IV
// analysis.
//
// The one-call entry point:
//
//	study, err := govdns.Run(context.Background(), govdns.Options{Scale: 0.1})
//	...
//	study.WriteReport(os.Stdout)
//
// Run generates the world (193 countries, calibrated deployment and
// misconfiguration rates), executes the bulk scan against the simulated
// Internet, and returns a Study exposing one method per table and figure
// of the paper. For finer control use the internal packages through the
// Study's fields (World, Active, Results).
package govdns

import (
	"context"
	"fmt"
	"time"

	"govdns/internal/core"
	"govdns/internal/obs"
	"govdns/internal/trace"
)

// Options configures a reproduction run. The zero value runs at 1/10 of
// the paper's scale with the paper's methodology (7-day stability
// filter, second measurement round).
type Options struct {
	// Seed drives all generation; runs with equal seeds are identical.
	Seed int64
	// Scale multiplies the population (1.0 = the paper's ~190k PDNS
	// domains; default 0.1).
	Scale float64
	// Concurrency bounds in-flight scan domains (default
	// measure.DefaultConcurrency, 128).
	Concurrency int
	// PerDomainParallelism bounds the scanner's intra-domain fan-out
	// (default 8; 1 = serial per-domain behaviour).
	PerDomainParallelism int
	// QueryTimeout bounds each query attempt (default 25ms against the
	// in-memory network).
	QueryTimeout time.Duration
	// DisableSecondRound turns off the paper's transient-failure retry.
	DisableSecondRound bool
	// StabilityDays overrides the PDNS stability filter (default 7
	// days; negative disables).
	StabilityDays int
	// HijackEvents injects historical takeover episodes into the PDNS
	// record for the hijack-forensics analysis (0 = none).
	HijackEvents int
	// Metrics, when non-nil, instruments the scan pipeline (resolver,
	// iterator, scanner) on the given registry. Recording never changes
	// scan results; serve the registry with obs.Handler or snapshot it
	// with Registry.Snapshot.
	Metrics *obs.Registry
	// Trace, when non-nil, records every domain's measurement as a
	// span tree and retains exemplars (slowest domains, Error/Transient
	// domains, classification flips). Like Metrics it never changes
	// scan results; export retained traces with
	// FlightRecorder.WriteJSONL and render them with cmd/govtrace.
	Trace *FlightRecorder
}

// Study is the completed reproduction: see the methods on core.Study
// (Fig2And3, Table1, Fig10, WriteReport, ...).
type Study = core.Study

// MetricsRegistry is the observability registry the pipeline records
// into (re-exported so callers outside the module can construct one).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds an empty registry for Options.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// FlightRecorder is the resolution-trace flight recorder (re-exported
// for Options.Trace).
type FlightRecorder = trace.FlightRecorder

// NewFlightRecorder builds a flight recorder with default retention
// (16 slowest domains, 512 Error/Transient exemplars, 128
// classification flips) for Options.Trace.
func NewFlightRecorder() *FlightRecorder { return trace.NewFlightRecorder(trace.Config{}) }

// Config is re-exported for callers constructing studies directly.
type Config = core.Config

// New generates the world and passive views without running the active
// scan (useful for passive-only analyses; active methods return
// core.ErrNotScanned until RunActive).
func New(opts Options) *Study {
	return core.NewStudy(core.Config{
		Seed:                 opts.Seed,
		Scale:                opts.Scale,
		Concurrency:          opts.Concurrency,
		PerDomainParallelism: opts.PerDomainParallelism,
		QueryTimeout:         opts.QueryTimeout,
		SecondRound:          !opts.DisableSecondRound,
		StabilityDays:        opts.StabilityDays,
		HijackEvents:         opts.HijackEvents,
		Metrics:              opts.Metrics,
		Trace:                opts.Trace,
	})
}

// Run executes the full study: generation, passive preparation, and the
// active scan.
func Run(ctx context.Context, opts Options) (*Study, error) {
	s := New(opts)
	if err := s.RunActive(ctx); err != nil {
		return nil, fmt.Errorf("govdns: active scan: %w", err)
	}
	return s, nil
}
