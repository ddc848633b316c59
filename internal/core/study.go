// Package core orchestrates the full reproduction study: world
// generation, passive-DNS preparation, the active scan, and every § IV
// analysis, exposing one method per table and figure of the paper.
package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"govdns/internal/analysis"
	"govdns/internal/measure"
	"govdns/internal/obs"
	"govdns/internal/pdns"
	"govdns/internal/providers"
	"govdns/internal/resolver"
	"govdns/internal/trace"
	"govdns/internal/worldgen"
)

// Config controls a study run.
type Config struct {
	// Seed drives world generation and network behaviour.
	Seed int64
	// Scale multiplies the paper's population sizes (default 0.1).
	Scale float64
	// Concurrency bounds the scanner's in-flight domains.
	Concurrency int
	// PerDomainParallelism bounds the scanner's intra-domain fan-out
	// (NS-host resolutions and per-address probes per domain). Default
	// measure.DefaultPerDomainParallelism; 1 means serial.
	PerDomainParallelism int
	// QueryTimeout bounds each DNS query attempt (default 25ms — the
	// simulated network answers in microseconds, so this is purely the
	// lameness-detection budget).
	QueryTimeout time.Duration
	// SecondRound enables the paper's second measurement round.
	SecondRound bool
	// StabilityDays is the PDNS stability filter threshold (default 7;
	// set negative to disable filtering — used by the ablation bench).
	StabilityDays int
	// HijackEvents injects that many historical takeover episodes into
	// the PDNS record for the § V-A forensics analysis (0 = none).
	HijackEvents int
	// Metrics, when non-nil, is the shared observability registry:
	// RunActive instruments its client, iterator, and scanner on it, so
	// one snapshot covers the whole pipeline. Nil disables recording
	// (each client still keeps a private registry for Stats).
	Metrics *obs.Registry
	// Trace, when non-nil, is the flight recorder RunActive's scanner
	// offers every domain's span tree to. Nil disables tracing.
	Trace *trace.FlightRecorder
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 25 * time.Millisecond
	}
	if c.Concurrency == 0 {
		c.Concurrency = measure.DefaultConcurrency
	}
	if c.PerDomainParallelism == 0 {
		c.PerDomainParallelism = measure.DefaultPerDomainParallelism
	}
	if c.StabilityDays == 0 {
		c.StabilityDays = pdns.StabilityFilterDays
	}
	return c
}

// ErrNotScanned is returned by active analyses before RunActive.
var ErrNotScanned = errors.New("core: active scan has not run")

// Study holds the full reproduction state.
type Study struct {
	Cfg     Config
	World   *worldgen.World
	Active  *worldgen.Active
	Mapper  *analysis.Mapper
	Catalog *providers.Catalog
	// Results is the active scan output (nil before RunActive, its only
	// writer).
	Results []*measure.DomainResult

	top10 []string
	pa    *analysis.ProviderAnalysis

	mu sync.Mutex
	// memo holds the result of every accessor that computes from
	// Results (and of Fig2And3), keyed by accessor name, for whoever
	// reads a figure a second time: a report reads Fig2And3 and Fig8And9
	// twice, and the CSV export followed by a report (govdns -csvdir)
	// reads most of the others twice. A single report gains nothing from
	// the rest. RunActive, the only writer of Results, drops it.
	memo map[string]any
	// corpStable/corpRaw are the compiled columnar corpora of the
	// stability-filtered and the unfiltered PDNS view, built on first
	// use and shared by every passive analysis (the world's PDNS store
	// is complete after NewStudy, so the corpora never invalidate). The
	// views themselves are built for the compile and dropped after it.
	corpStable *analysis.Corpus
	corpRaw    *analysis.Corpus
}

// memoized returns the value stored under key, computing and storing
// it first if the memo has none. The caller holds s.mu.
func memoized[T any](s *Study, key string, compute func() T) T {
	if v, ok := s.memo[key]; ok {
		return v.(T)
	}
	v := compute()
	if s.memo == nil {
		s.memo = make(map[string]any)
	}
	s.memo[key] = v
	return v
}

// scanned is memoized for the accessors that need the active scan.
func scanned[T any](s *Study, key string, compute func() T) (T, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Results == nil {
		var zero T
		return zero, ErrNotScanned
	}
	return memoized(s, key, compute), nil
}

// NewStudy generates the world and the country mapper. The passive
// corpora are compiled on first use, and the active scan is run
// separately (RunActive) because it dominates run time.
func NewStudy(cfg Config) *Study {
	cfg = cfg.withDefaults()
	w := worldgen.Generate(worldgen.Config{Seed: cfg.Seed, Scale: cfg.Scale, HijackEvents: cfg.HijackEvents})
	s := &Study{
		Cfg:     cfg,
		World:   w,
		Active:  worldgen.Build(w),
		Catalog: providers.Default(),
	}

	countries := make([]analysis.Country, len(w.Countries))
	for i, c := range w.Countries {
		countries[i] = analysis.Country{
			Code: c.Code, Name: c.Name, SubRegion: c.SubRegion, Suffix: c.Suffix,
		}
	}
	s.Mapper = analysis.NewMapper(countries)

	// The paper's top-10 countries (by PDNS records) become singleton
	// groups in Tables II/III.
	for _, c := range worldgen.TopByWeight(w.Countries, 10) {
		s.top10 = append(s.top10, c.Code)
	}
	s.pa = analysis.NewProviderAnalysis(s.Catalog, s.Mapper, s.top10)
	return s
}

// StartYear and EndYear expose the study period.
func (s *Study) StartYear() int { return s.World.Cfg.StartYear }

// EndYear returns the final PDNS study year.
func (s *Study) EndYear() int { return s.World.Cfg.EndYear }

// Top10 returns the country codes treated as singleton groups.
func (s *Study) Top10() []string { return append([]string(nil), s.top10...) }

// client is every study scan's resolver client: one retry per query.
func (s *Study) client(transport resolver.Transport) *resolver.Client {
	c := resolver.NewClient(transport)
	c.Timeout = s.Cfg.QueryTimeout
	c.Retries = 1
	return c
}

// RunActive executes the paper's Fig. 1 measurement over the query list
// and replaces Results. Every memoized figure is dropped: the next call
// of an accessor computes from the new results.
func (s *Study) RunActive(ctx context.Context) error {
	client := s.client(s.Active.Net)
	client.AttachRegistry(s.Cfg.Metrics)
	it := resolver.NewIterator(client, s.Active.Roots)
	scanner := measure.NewScanner(it)
	scanner.Concurrency = s.Cfg.Concurrency
	scanner.PerDomainParallelism = s.Cfg.PerDomainParallelism
	scanner.SecondRound = s.Cfg.SecondRound
	if s.Cfg.Metrics != nil {
		scanner.Metrics = measure.NewScanMetrics(s.Cfg.Metrics)
	}
	scanner.Trace = s.Cfg.Trace
	results := scanner.Scan(ctx, s.Active.QueryList)
	s.mu.Lock()
	s.Results, s.memo = results, nil
	s.mu.Unlock()
	return ctx.Err()
}

// --- Passive experiments (PDNS) ---

// Corpus returns the compiled columnar analysis corpus of the stable
// PDNS view, building it on first use. Every passive figure and table
// consumes this shared corpus instead of re-indexing the raw view.
func (s *Study) Corpus() *analysis.Corpus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corpusLocked()
}

// Each compile snapshots the PDNS store into a view of its own (§ III-C's
// filter applied for the stable corpus) and lets it go: only the corpus
// outlives the call.
func (s *Study) corpusLocked() *analysis.Corpus {
	if s.corpStable == nil {
		view := pdns.NewView(s.World.PDNS.Snapshot())
		if s.Cfg.StabilityDays > 0 {
			view = view.Stable(s.Cfg.StabilityDays)
		}
		s.corpStable = analysis.CompileCorpus(view, s.Mapper, s.StartYear(), s.EndYear())
	}
	return s.corpStable
}

// RawCorpus returns the corpus of the unfiltered view (the hijack
// forensics run on it: the stability filter would erase the evidence).
func (s *Study) RawCorpus() *analysis.Corpus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.corpRaw == nil {
		view := pdns.NewView(s.World.PDNS.Snapshot())
		s.corpRaw = analysis.CompileCorpus(view, s.Mapper, s.StartYear(), s.EndYear())
	}
	return s.corpRaw
}

// Fig2And3 returns the yearly PDNS statistics behind Figures 2 (domains
// and countries) and 3 (nameservers), plus the Fig. 7 private-deployment
// series.
// The result is memoized: the report consumes it several times.
func (s *Study) Fig2And3() []analysis.YearStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return memoized(s, "Fig2And3", func() []analysis.YearStats { return s.corpusLocked().Yearly() })
}

// NameserversPerYear returns Fig. 3's distinct-nameserver series over
// the whole stable view (no per-domain mode gating, unlike the
// YearStats.Nameservers column).
func (s *Study) NameserversPerYear() []int {
	return s.Corpus().NameserversPerYear()
}

// Fig4 returns the per-country domain counts for the final year.
func (s *Study) Fig4() map[string]int {
	return s.Corpus().DomainsPerCountry(s.EndYear())
}

// Fig6 returns the d_1NS churn/overlap series.
func (s *Study) Fig6() []analysis.ChurnStats {
	return s.Corpus().SingleNSChurn()
}

// Table2 returns the major-provider usage rows for the given year.
func (s *Study) Table2(year int) []analysis.ProviderUsage {
	return s.pa.MajorProvidersCorpus(s.Corpus(), year)
}

// Table3 returns the top providers by country reach for the given year.
func (s *Study) Table3(year, n int) []analysis.ProviderUsage {
	return s.pa.TopProvidersCorpus(s.Corpus(), year, n)
}

// GovProviderShare exposes the per-country provider mix (the gov.cn
// hichina/xincache/dns-diy observation).
func (s *Study) GovProviderShare(year int, code string) map[string]float64 {
	return s.pa.GovProviderShareCorpus(s.Corpus(), year, code)
}

// --- Active experiments (scan) ---

func (s *Study) requireScan() error {
	if s.Results == nil {
		return ErrNotScanned
	}
	return nil
}

// The figure accessors below are memoized until the next RunActive;
// callers share the returned value and must not modify it.

// Fig8And9 returns the active replication analysis (stale singles per
// country and the NS-count CDF).
func (s *Study) Fig8And9() (*analysis.ActiveReplication, error) {
	return scanned(s, "Fig8And9", func() *analysis.ActiveReplication {
		return analysis.ReplicationActive(s.Results, s.Mapper)
	})
}

// Table1 returns the diversity rows (Total + top-10 countries).
func (s *Study) Table1() ([]analysis.DiversityRow, error) {
	return scanned(s, "Table1", func() []analysis.DiversityRow {
		return analysis.Diversity(s.Results, s.Active.Geo, s.Mapper, s.top10)
	})
}

// DiversityByLevel returns the per-hierarchy-level diversity comparison.
func (s *Study) DiversityByLevel() (map[int]analysis.DiversityRow, error) {
	return scanned(s, "DiversityByLevel", func() map[int]analysis.DiversityRow {
		return analysis.DiversityByLevel(s.Results, s.Active.Geo)
	})
}

// LevelDistribution returns the share of scanned domains per DNS level.
func (s *Study) LevelDistribution() (map[int]float64, error) {
	return scanned(s, "LevelDistribution", func() map[int]float64 {
		return analysis.LevelDistribution(s.Results)
	})
}

// Fig10 returns the defective-delegation statistics.
func (s *Study) Fig10() (*analysis.DelegationStats, error) {
	return scanned(s, "Fig10", func() *analysis.DelegationStats {
		return analysis.Delegations(s.Results, s.Mapper)
	})
}

// Fig11And12 returns the hijack-risk analysis (available nameserver
// domains and registration costs).
func (s *Study) Fig11And12() (*analysis.HijackRisk, error) {
	return scanned(s, "Fig11And12", func() *analysis.HijackRisk {
		return analysis.HijackRisks(s.Results, s.Mapper, s.Active.Reg)
	})
}

// Fig13And14 returns the parent/child consistency analysis.
func (s *Study) Fig13And14() (*analysis.ConsistencyStats, error) {
	return scanned(s, "Fig13And14", func() *analysis.ConsistencyStats {
		return analysis.Consistency(s.Results, s.Mapper)
	})
}

// InconsistencyHijacks returns § IV-D's non-defective dangling analysis.
func (s *Study) InconsistencyHijacks() (*analysis.InconsistencyHijack, error) {
	return scanned(s, "InconsistencyHijacks", func() *analysis.InconsistencyHijack {
		return analysis.InconsistencyHijacks(s.Results, s.Mapper, s.Active.Reg)
	})
}

// Funnel summarizes the § III-B data-collection funnel.
type Funnel = measure.Funnel

// Funnel computes the scan funnel.
func (s *Study) Funnel() (*Funnel, error) {
	if err := s.requireScan(); err != nil {
		return nil, err
	}
	f := &Funnel{}
	for _, r := range s.Results {
		f.Add(r)
	}
	return f, nil
}

// HijackForensics runs the § V-A historical-takeover detector over the
// RAW passive-DNS view (the stability filter would erase the evidence)
// and returns the candidates alongside the injected ground truth.
func (s *Study) HijackForensics() ([]analysis.SuspiciousTransition, []worldgen.HijackEvent) {
	found := analysis.SuspiciousTransitionsCorpus(s.RawCorpus(), s.Catalog, analysis.HijackForensicsConfig{})
	return found, append([]worldgen.HijackEvent(nil), s.World.Hijacks...)
}

// ProviderFlows returns the hosting-migration matrix between two study
// years (who the cloud providers' customers came from).
func (s *Study) ProviderFlows(yearA, yearB int) []analysis.ProviderFlow {
	return s.Corpus().ProviderFlows(s.Catalog, yearA, yearB)
}
