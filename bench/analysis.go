package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"time"

	"govdns/internal/analysis"
	"govdns/internal/core"
	"govdns/internal/measure"
	"govdns/internal/pdns"
)

const (
	scaleAnalysis = 0.25
	// minReports keeps a median meaningful when one report takes most
	// of the measuring time.
	minReports   = 2
	topProviders = 11 // Table III's row count, as core.WriteReport asks for it
)

// figure is one of the paper's figures or tables, by name.
type figure struct {
	name  string
	value any
}

// analysisEnv is the analyst's starting point: a PDNS dump in memory,
// stored scan results, and what every figure must come out as.
type analysisEnv struct {
	study *core.Study
	dump  []byte
	pa    *analysis.ProviderAnalysis
	want  []figure
}

func setupAnalysis(ctx context.Context, cfg runConfig) (*analysisEnv, error) {
	// The scan only has to produce results for the active figures, so
	// it runs with the reference scans' settings: fast and not
	// load-sensitive.
	s := core.NewStudy(core.Config{Seed: cfg.seed, Scale: scaleAnalysis,
		Concurrency: refConcurrency, QueryTimeout: refTimeout})
	if err := s.RunActive(ctx); err != nil {
		return nil, fmt.Errorf("active scan: %w", err)
	}
	var dump bytes.Buffer
	if err := s.World.PDNS.WriteJSONL(&dump); err != nil {
		return nil, fmt.Errorf("dump pdns: %w", err)
	}
	e := &analysisEnv{study: s, dump: dump.Bytes(),
		pa: analysis.NewProviderAnalysis(s.Catalog, s.Mapper, s.Top10())}

	// The Study's own accessors are the expected values.
	y0, y1 := s.StartYear(), s.EndYear()
	forensics, _ := s.HijackForensics()
	e.want = []figure{
		{"fig2_3_yearly", s.Fig2And3()},
		{"fig3_nameservers", s.NameserversPerYear()},
		{"fig4_domains_per_country", s.Fig4()},
		{"fig6_single_ns_churn", s.Fig6()},
		{"table2_start", s.Table2(y0)}, {"table2_end", s.Table2(y1)},
		{"table3_start", s.Table3(y0, topProviders)}, {"table3_end", s.Table3(y1, topProviders)},
		{"provider_flows", s.ProviderFlows(y0, y1)},
		{"hijack_forensics", forensics},
	}
	active := []struct {
		name string
		get  func() (any, error)
	}{
		{"fig8_9_replication", func() (any, error) { return s.Fig8And9() }},
		{"table1_diversity", func() (any, error) { return s.Table1() }},
		{"diversity_by_level", func() (any, error) { return s.DiversityByLevel() }},
		{"level_distribution", func() (any, error) { return s.LevelDistribution() }},
		{"fig10_delegations", func() (any, error) { return s.Fig10() }},
		{"fig11_12_hijack_risk", func() (any, error) { return s.Fig11And12() }},
		{"fig13_14_consistency", func() (any, error) { return s.Fig13And14() }},
		{"inconsistency_hijacks", func() (any, error) { return s.InconsistencyHijacks() }},
	}
	for _, a := range active {
		v, err := a.get()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		e.want = append(e.want, figure{a.name, v})
	}
	return e, nil
}

// stage names, in pipeline order; each has a per-layer metric.
var analysisStages = []struct{ name, metric string }{
	{"pdns.read_jsonl", "pdns.read_jsonl_ms"},
	{"pdns.view_stable", "pdns.view_stable_ms"},
	{"analysis.corpus_compile", "analysis.corpus_compile_ms"},
	{"analysis.passive_figures", "analysis.passive_figures_ms"},
	{"analysis.active_figures", "analysis.active_figures_ms"},
	{"core.write_report", "core.write_report_ms"},
}

// iteration is one report built from the dump.
type iteration struct {
	pass
	stages []time.Duration // parallel to analysisStages
	got    []figure
}

// report runs the analyst's path once: parse the dump, build and filter
// the view, compile both corpora, compute every passive figure from
// them and every active figure from the stored results, and render the
// report text. Nothing is carried over from an earlier call except the
// Study that renders the text, whose memoised corpus the public API
// cannot reset; the corpus compile is timed here from the re-read dump.
func (e *analysisEnv) report(log *spanLog, trace int32) (iteration, error) {
	s := e.study
	y0, y1 := s.StartYear(), s.EndYear()
	it := iteration{pass: pass{domains: 1}}
	root := int32(-1)
	if log != nil {
		root = log.start(trace, -1, "analysis.report")
	}
	stage := func(i int, fn func() error) error {
		var id int32
		if log != nil {
			id = log.start(trace, root, analysisStages[i].name)
		}
		t0 := time.Now()
		err := fn()
		it.stages = append(it.stages, time.Since(t0))
		if log != nil {
			log.end(id, "")
		}
		return err
	}

	m := startMeter()
	var store *pdns.Store
	var raw, stable *pdns.View
	var cStable, cRaw *analysis.Corpus
	steps := []func() error{
		func() (err error) {
			store, err = pdns.ReadJSONL(bytes.NewReader(e.dump))
			return err
		},
		func() error {
			raw = pdns.NewView(store.Snapshot())
			stable = raw.Stable(pdns.StabilityFilterDays)
			return nil
		},
		func() error {
			cStable = analysis.CompileCorpus(stable, s.Mapper, y0, y1)
			cRaw = analysis.CompileCorpus(raw, s.Mapper, y0, y1)
			return nil
		},
		func() error {
			it.got = append(it.got,
				figure{"fig2_3_yearly", cStable.Yearly()},
				figure{"fig3_nameservers", cStable.NameserversPerYear()},
				figure{"fig4_domains_per_country", cStable.DomainsPerCountry(y1)},
				figure{"fig6_single_ns_churn", cStable.SingleNSChurn()},
				figure{"table2_start", e.pa.MajorProvidersCorpus(cStable, y0)},
				figure{"table2_end", e.pa.MajorProvidersCorpus(cStable, y1)},
				figure{"table3_start", e.pa.TopProvidersCorpus(cStable, y0, topProviders)},
				figure{"table3_end", e.pa.TopProvidersCorpus(cStable, y1, topProviders)},
				figure{"provider_flows", cStable.ProviderFlows(s.Catalog, y0, y1)},
				figure{"hijack_forensics", analysis.SuspiciousTransitionsCorpus(cRaw, s.Catalog, analysis.HijackForensicsConfig{})},
			)
			return nil
		},
		func() error {
			r, a := s.Results, s.Active
			it.got = append(it.got,
				figure{"fig8_9_replication", analysis.ReplicationActive(r, s.Mapper)},
				figure{"table1_diversity", analysis.Diversity(r, a.Geo, s.Mapper, s.Top10())},
				figure{"diversity_by_level", analysis.DiversityByLevel(r, a.Geo)},
				figure{"level_distribution", analysis.LevelDistribution(r)},
				figure{"fig10_delegations", analysis.Delegations(r, s.Mapper)},
				figure{"fig11_12_hijack_risk", analysis.HijackRisks(r, s.Mapper, a.Reg)},
				figure{"fig13_14_consistency", analysis.Consistency(r, s.Mapper)},
				figure{"inconsistency_hijacks", analysis.InconsistencyHijacks(r, s.Mapper, a.Reg)},
			)
			return nil
		},
		func() error { return s.WriteReport(io.Discard) },
	}
	for i, fn := range steps {
		if err := stage(i, fn); err != nil {
			return it, fmt.Errorf("%s: %w", analysisStages[i].name, err)
		}
	}
	m.stop(&it.pass)
	if log != nil {
		log.end(root, "")
	}
	return it, nil
}

// check deep-compares every figure of an iteration with the set-up
// Study's.
func (e *analysisEnv) check(rep *report, it iteration) {
	if len(it.got) != len(e.want) {
		rep.breakf("report produced %d figures, want %d", len(it.got), len(e.want))
		return
	}
	for i, w := range e.want {
		rep.attempted++
		if it.got[i].name != w.name || !reflect.DeepEqual(it.got[i].value, w.value) {
			rep.failed++
			rep.infof("figure %s differs from the set-up Study's", w.name)
		}
	}
}

func (e *analysisEnv) runReports(rep *report, budget time.Duration, log *spanLog) ([]iteration, error) {
	var its []iteration
	start := time.Now()
	for i := 0; ; i++ {
		it, err := e.report(log, int32(i))
		if err != nil {
			return nil, err
		}
		e.check(rep, it)
		its = append(its, it)
		if len(its) >= minReports && time.Since(start)+it.wall/2 >= budget {
			return its, nil
		}
	}
}

func runAnalysis(ctx context.Context, cfg runConfig) (*report, error) {
	if cfg.trace {
		return runAnalysisTraced(ctx, cfg)
	}
	rep := newReport(cfg.workload, endToEnd)
	setupStart := time.Now()
	e, err := setupAnalysis(ctx, cfg)
	if err != nil {
		return nil, err
	}
	setup := time.Since(setupStart)

	rss := startRSSWindow()
	its, err := e.runReports(rep, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	peak, peakSource := rss.peakMB()

	var secs, cpus, allocs, lat []float64
	for _, it := range its {
		secs = append(secs, it.wall.Seconds())
		cpus = append(cpus, float64(it.cpu.Microseconds()))
		allocs = append(allocs, float64(it.allocs))
		lat = append(lat, ms(it.wall))
	}
	lat = sortedCopy(lat)
	tailV, tailName := tail(lat)
	n := fmtCount(len(its))
	rep.set("ops_per_s", 1/median(secs), "reports/s, 1/median report time, "+n)
	rep.set("cpu_us_per_op", median(cpus), "rusage user+sys per report, median, "+n)
	rep.set("allocs_per_op", median(allocs), "heap objects per report, median, "+n)
	rep.set("op_p50_ms", median(lat), "dump to report text, median, "+n)
	rep.set("op_tail_ms", tailV, tailName+" of the same, "+n)
	rep.set("peak_rss_mb", peak, peakSource)
	rep.set("setup_s", setup.Seconds(), "core.NewStudy, active scan, PDNS dump, expected figures; once per run")

	rep.infof("seed=%d scale=%g record_sets=%d dump=%.1fMiB scan_results=%d figures=%d reports=%d",
		cfg.seed, scaleAnalysis, e.study.World.PDNS.Len(), float64(len(e.dump))/(1<<20), len(e.study.Results), len(e.want), len(its))
	last := its[len(its)-1]
	for i, st := range analysisStages {
		rep.infof("stage %-26s %9.1f ms", st.name, ms(last.stages[i]))
	}
	rep.infof("scan digest of the stored results %s", measure.DigestHex(e.study.Results))
	return rep, nil
}

func runAnalysisTraced(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport(cfg.workload, perLayer)
	e, err := setupAnalysis(ctx, cfg)
	if err != nil {
		return nil, err
	}
	// core.NewStudy builds its world in one call; time the two steps
	// on a second world of the same seed and scale.
	w := buildWorld(cfg.seed, scaleAnalysis)
	rep.set("worldgen.generate_ms", w.genMS, "worldgen.Generate, once")
	rep.set("worldgen.build_ms", w.buildMS, "worldgen.Build, once")

	plain, err := e.runReports(rep, cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	log := newSpanLog()
	traced, err := e.runReports(rep, cfg.seconds/2, log)
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(cfg.outDir, cfg.workload+".trace.jsonl")
	written, err := log.writeJSONL(tracePath)
	if err != nil {
		return nil, err
	}
	rep.infof("seed=%d reports plain=%d traced=%d; %d spans in %s", cfg.seed, len(plain), len(traced), written, tracePath)
	secs := func(its []iteration) float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = it.wall.Seconds()
		}
		return median(xs)
	}
	rep.set("trace.overhead_share", 1-secs(plain)/secs(traced), "1 - untraced/traced median report time")
	for i, st := range analysisStages {
		xs := make([]float64, len(traced))
		for k, it := range traced {
			xs[k] = ms(it.stages[i])
		}
		rep.set(st.metric, median(xs), fmt.Sprintf("stage span, median of %d reports", len(traced)))
	}
	layerSuite(ctx, rep, captureSample(ctx, e.study.Active))
	return rep, nil
}
