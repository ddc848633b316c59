package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"govdns/internal/measure"
	"govdns/internal/miniworld"
	"govdns/internal/monitor"
	"govdns/internal/obs"
	"govdns/internal/resolver"
	"govdns/internal/trace"
	"govdns/internal/udpx"
)

// tracedStats is what one traced pass adds to a plain pass's numbers.
type tracedStats struct {
	pass
	exchanges   int64
	busy        time.Duration // sum of transport exchange durations
	domainSum   time.Duration // sum of domain span durations
	selfSum     time.Duration // sum of domain spans' self time
	domainMS    []float64
	secondRound int
	udp         udpx.Stats // delta over the pass, scan_udp_loopback only
}

// tracedPass drives ScanDomain from the benchmark's own pool with a
// domain span in ctx, through a recording transport that hangs one
// transport.exchange span per call under it.
func (e *scanEnv) tracedPass(ctx context.Context, log *spanLog) (tracedStats, *recorder, []*measure.DomainResult) {
	rec := newRecorder(e.transport)
	sc, it := newScanner(rec, e.w.active.Roots, e.timeout, measure.DefaultConcurrency)
	ts := tracedStats{pass: pass{domains: len(e.list)}}
	results := make([]*measure.DomainResult, len(e.list))
	roots := make([]int32, len(e.list))
	var udp0 udpx.Stats
	if e.udp != nil {
		udp0 = e.udp.Stats()
	}
	m := startMeter()
	poolScan(len(e.list), measure.DefaultConcurrency, func(idx int) {
		id := log.start(int32(idx), -1, "measure.scan_domain")
		roots[idx] = id
		r := sc.ScanDomain(withSpan(ctx, spanRef{log, int32(idx), id}), e.list[idx])
		log.end(id, r.Classify().String())
		results[idx] = r
	})
	m.stop(&ts.pass)
	ts.stats = it.Stats()
	ts.exchanges, ts.busy = rec.calls.Load(), time.Duration(rec.busyNS.Load())
	if e.udp != nil {
		u := e.udp.Stats()
		ts.udp = udpx.Stats{
			Exchanges: u.Exchanges - udp0.Exchanges, SendDatagrams: u.SendDatagrams - udp0.SendDatagrams,
			RecvDatagrams: u.RecvDatagrams - udp0.RecvDatagrams, RecvBatches: u.RecvBatches - udp0.RecvBatches,
			SyscallsSaved: u.SyscallsSaved - udp0.SyscallsSaved, InflightHighwater: u.InflightHighwater,
		}
	}
	self := selfTimes(log.spans)
	for idx, id := range roots {
		s := log.spans[id]
		ts.domainSum += time.Duration(s.End - s.Start)
		ts.selfSum += time.Duration(self[id])
		ts.domainMS = append(ts.domainMS, float64(s.End-s.Start)/1e6)
		if results[idx].Rounds > 1 {
			ts.secondRound++
		}
	}
	sort.Float64s(ts.domainMS)
	return ts, rec, results
}

func runScanTraced(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport(cfg.workload, perLayer)
	e, err := setupScan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rep.set("worldgen.generate_ms", e.w.genMS, "worldgen.Generate, once")
	rep.set("worldgen.build_ms", e.w.buildMS, "worldgen.Build, once")

	// Alternate plain and traced passes over the same own-pool shape;
	// the rate lost to the recorder and the spans is the tracing
	// overhead. Half the measuring time goes here, at least one pair.
	var plainRates, tracedRates, cpuPerDomain []float64
	var traced []tracedStats
	var firstLog *spanLog
	var rec *recorder
	var results []*measure.DomainResult
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < cfg.seconds/2 {
		p, _, err := e.steady(ctx, rep, func() (pass, []*measure.DomainResult, error) { return e.latencyPass(ctx) })
		if err != nil {
			return nil, err
		}
		plainRates = append(plainRates, p.rate())
		cpuPerDomain = append(cpuPerDomain, float64(p.cpu.Microseconds())/float64(p.domains))

		var log *spanLog
		var ts tracedStats
		if _, results, err = e.steady(ctx, rep, func() (pass, []*measure.DomainResult, error) {
			log = newSpanLog()
			ts, rec, results = e.tracedPass(ctx, log)
			return ts.pass, results, nil
		}); err != nil {
			return nil, err
		}
		tracedRates = append(tracedRates, ts.rate())
		traced = append(traced, ts)
		if firstLog == nil {
			firstLog = log
		}
	}
	tracePath := filepath.Join(cfg.outDir, cfg.workload+".trace.jsonl")
	written, err := firstLog.writeJSONL(tracePath)
	if err != nil {
		return nil, err
	}
	rep.infof("seed=%d domains=%d pairs of plain/traced passes=%d; the first %d of the first traced pass's %d spans in %s",
		cfg.seed, len(e.list), len(traced), written, len(firstLog.spans), tracePath)
	rep.set("trace.overhead_share", 1-median(tracedRates)/median(plainRates),
		fmt.Sprintf("1 - traced/untraced domains/s over the benchmark's own pool, %d pairs", len(traced)))

	med := func(f func(tracedStats) float64) float64 {
		xs := make([]float64, len(traced))
		for i, ts := range traced {
			xs[i] = f(ts)
		}
		return median(xs)
	}
	perDomain := func(f func(tracedStats) float64) float64 {
		return med(func(ts tracedStats) float64 { return f(ts) / float64(ts.domains) })
	}
	exchangesPerDomain := perDomain(func(ts tracedStats) float64 { return float64(ts.exchanges) })
	rep.set("resolver.queries_per_domain", perDomain(func(ts tracedStats) float64 { return float64(ts.stats.Sent) }), "Client.Stats().Sent per domain")
	rep.set("resolver.exchanges_per_domain", exchangesPerDomain, "Transport.Exchange calls seen by the benchmark's wrapper")
	rep.set("resolver.timeouts_per_domain", perDomain(func(ts tracedStats) float64 { return float64(ts.stats.Timeouts) }), "Client.Stats().Timeouts per domain")
	rep.set("resolver.host_cache_hit_share", med(func(ts tracedStats) float64 {
		return share(float64(ts.stats.HostCacheHits), float64(ts.stats.HostCacheHits+ts.stats.HostCacheMisses))
	}), "Iterator.Stats()")
	rep.set("resolver.zone_cache_hit_share", med(func(ts tracedStats) float64 {
		return share(float64(ts.stats.ZoneCacheHits), float64(ts.stats.ZoneCacheHits+ts.stats.ZoneCacheMisses))
	}), "Iterator.Stats()")
	rep.set("resolver.coalesced_share", med(func(ts tracedStats) float64 {
		s := ts.stats
		return share(float64(s.CoalescedWaits), float64(s.CoalescedWaits+s.HostCacheMisses+s.ZoneCacheMisses))
	}), "singleflight waits / (waits + lookups performed)")
	rep.set("resolver.inflight_mean", med(func(ts tracedStats) float64 { return ts.busy.Seconds() / ts.wall.Seconds() }),
		"mean concurrent Transport.Exchange calls: sum of exchange time / wall")
	rep.set("resolver.transport_wait_share", med(func(ts tracedStats) float64 { return 1 - share(ts.selfSum.Seconds(), ts.domainSum.Seconds()) }),
		"share of domain span time covered by its exchange spans")
	rep.set("measure.domain_self_us", perDomain(func(ts tracedStats) float64 { return float64(ts.selfSum.Microseconds()) }),
		"domain span minus the union of its exchange spans")
	rep.set("measure.domain_p50_ms", med(func(ts tracedStats) float64 { return percentile(ts.domainMS, 50) }), "domain span, traced pass")
	rep.set("measure.second_round_share", perDomain(func(ts tracedStats) float64 { return float64(ts.secondRound) }), "results with Rounds = 2")
	coresBusy := med(func(ts tracedStats) float64 { return ts.cpu.Seconds() / ts.wall.Seconds() })
	rep.set("measure.cores_busy", coresBusy, fmt.Sprintf("CPU / wall of the traced pass, of %d", runtime.GOMAXPROCS(0)))
	rep.infof("domains_per_s plain=%.0f traced=%.0f timeouts_per_domain=%.4f cores_busy=%.2f of %d",
		median(plainRates), median(tracedRates), rep.values["resolver.timeouts_per_domain"], coresBusy, runtime.GOMAXPROCS(0))

	in := layerInput{active: e.w.active, transport: e.transport, timeout: e.timeout, tuples: rec.tuples, results: results}
	for i, r := range results {
		if r.Classify() == measure.ClassHealthy && r.Rounds <= 1 {
			in.healthy = append(in.healthy, e.list[i])
		}
	}
	layers := layerSuite(ctx, rep, in)

	switch e.name {
	case "scan_sim_mix":
		err = e.streamExtras(ctx, rep, results)
	case "scan_sim_healthy":
		e.healthyExtras(ctx, rep, layers, exchangesPerDomain, median(cpuPerDomain))
	case "scan_udp_loopback":
		e.udpExtras(ctx, rep, traced, rec.tuples)
	}
	return rep, err
}

// streamExtras measures what only the stream path has: the reorder
// window's high-water mark, the cost of a checkpoint, and the monitor's
// cost on top of a bare checkpointed stream.
func (e *scanEnv) streamExtras(ctx context.Context, rep *report, results []*measure.DomainResult) error {
	p, _, err := e.steady(ctx, rep, func() (pass, []*measure.DomainResult, error) { return e.streamPass(ctx, rep) })
	if err != nil {
		return err
	}
	rep.set("measure.stream_highwater", float64(p.highwater), fmt.Sprintf("StreamWriter.Highwater() after one ScanStream, window %d", measure.DefaultStreamMaxBuffer))
	rep.infof("stream path: %.0f domains/s, pull-to-emit p50=%.1fms", p.rate(), percentile(sortedCopy(p.latencyMS), 50))

	// Feed the captured results through StreamWriter.Offer in order,
	// with checkpointing on and off; the difference is fsync + atomic
	// checkpoint write per DefaultCheckpointEvery results.
	offer := func(ckpt string) (time.Duration, error) {
		f, err := os.Create(filepath.Join(e.dir, "offer.jsonl"))
		if err != nil {
			return 0, err
		}
		defer f.Close()
		sw := measure.NewStreamWriter(f, measure.StreamConfig{CheckpointPath: ckpt, ScanKey: e.name})
		t0 := time.Now()
		for i, r := range results {
			if err := sw.Offer(i, r); err != nil {
				return 0, err
			}
		}
		if err := sw.Finish(); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	var on, off []float64
	for i := 0; i < 3; i++ {
		d, err := offer(filepath.Join(e.dir, "offer.ckpt"))
		if err != nil {
			return err
		}
		on = append(on, ms(d))
		if d, err = offer(""); err != nil {
			return err
		}
		off = append(off, ms(d))
	}
	checkpoints := float64(len(results) / measure.DefaultCheckpointEvery)
	rep.set("measure.checkpoint_ms", max(median(on)-median(off), 0)/checkpoints,
		fmt.Sprintf("Offer of %d results with checkpoints on minus off, per checkpoint, median of 3", len(results)))
	return monitorOverhead(ctx, rep, e.dir)
}

// monitorOverhead compares Monitor.RunEpoch with the bare checkpointed
// ScanStream it wraps, over miniworld plus 2000 hosted children.
func monitorOverhead(ctx context.Context, rep *report, dir string) error {
	const hosted, rounds = 2000, 3
	mw := miniworld.Build()
	domains := append(miniworld.Domains(), mw.AddHostedChildren(hosted)...)
	scanner := func() *measure.Scanner {
		sc, _ := newScanner(mw.Net, mw.Roots, scanTimeout, measure.DefaultConcurrency)
		return sc
	}
	bare := func(i int) (time.Duration, error) {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("bare-%d.jsonl", i)))
		if err != nil {
			return 0, err
		}
		defer f.Close()
		sw := measure.NewStreamWriter(f, measure.StreamConfig{CheckpointPath: filepath.Join(dir, "bare.ckpt"), ScanKey: "bench"})
		t0 := time.Now()
		err = scanner().ScanStream(ctx, measure.SliceSource(domains), sw)
		return time.Since(t0), err
	}
	m, err := monitor.Open(monitor.Config{StateDir: filepath.Join(dir, "monitor"), ScanKey: "bench"})
	if err != nil {
		return err
	}
	defer m.Close()
	epoch := func() (time.Duration, error) {
		t0 := time.Now()
		_, err := m.RunEpoch(ctx, scanner(), measure.SliceSource(domains))
		return time.Since(t0), err
	}
	if _, err := epoch(); err != nil { // baseline epoch: timed ones run with the differ active
		return err
	}
	var bares, epochs []float64
	for i := 0; i < rounds; i++ {
		d, err := bare(i)
		if err != nil {
			return err
		}
		bares = append(bares, d.Seconds())
		if d, err = epoch(); err != nil {
			return err
		}
		epochs = append(epochs, d.Seconds())
	}
	rep.set("monitor.epoch_overhead_share", median(epochs)/median(bares)-1,
		fmt.Sprintf("Monitor.RunEpoch / bare ScanStream - 1, miniworld + %d hosted children, median of %d", hosted, rounds))
	return nil
}

// healthyExtras: the GOMAXPROCS sweep, the observability budgets, and
// the attribution table.
func (e *scanEnv) healthyExtras(ctx context.Context, rep *report, layers map[string]float64, exchangesPerDomain, cpuPerDomain float64) {
	const rounds = 3
	rate := func(tune func(*measure.Scanner, *resolver.Iterator)) float64 {
		p, _, _ := e.slicePass(ctx, tune)
		return p.rate()
	}
	var plain, withMetrics, withFlight []float64
	for i := 0; i < rounds; i++ {
		plain = append(plain, rate(nil))
		withMetrics = append(withMetrics, rate(func(sc *measure.Scanner, _ *resolver.Iterator) {
			// Scanner.Metrics only; the client's metrics must be set
			// before NewIterator, which slicePass has already called.
			sc.Metrics = measure.NewScanMetrics(obs.NewRegistry())
		}))
		withFlight = append(withFlight, rate(func(sc *measure.Scanner, _ *resolver.Iterator) {
			sc.Trace = trace.NewFlightRecorder(trace.Config{})
		}))
	}
	rep.set("obs.metrics_overhead_share", 1-median(withMetrics)/median(plain),
		fmt.Sprintf("1 - rate with Scanner.Metrics set / unset, Scanner.Scan, median of %d each; budget 0.03", rounds))
	rep.set("trace.flight_overhead_share", 1-median(withFlight)/median(plain),
		fmt.Sprintf("1 - rate with Scanner.Trace set / unset, median of %d each; budget 0.03", rounds))

	n := runtime.GOMAXPROCS(0)
	rep.infof("scaling sweep (Scanner.Scan, %d domains):", len(e.list))
	rates := map[int]float64{n: median(plain)}
	for procs := 1; procs < n; procs *= 2 {
		prev := runtime.GOMAXPROCS(procs)
		rates[procs] = median([]float64{rate(nil), rate(nil)})
		runtime.GOMAXPROCS(prev)
	}
	for procs := 1; procs <= n; procs *= 2 {
		if r, ok := rates[procs]; ok {
			rep.infof("  GOMAXPROCS=%d  %8.0f domains/s", procs, r)
		}
	}
	if n > 1 {
		rep.set("measure.scaling_efficiency", rates[n]/(float64(n)*rates[1]),
			fmt.Sprintf("rate at GOMAXPROCS=%d / (%d x rate at 1)", n, n))
	} else {
		rep.set("measure.scaling_efficiency", 1, "one processor: nothing to scale across")
	}

	// Attribution: what one domain's CPU is spent on. Each exchange
	// passes through every layer below once; a layer's self time is its
	// call minus the calls it makes.
	q := layers["resolver.query_ns"]
	sim := layers["simnet.exchange_ns"]
	serve := layers["authserver.serve_uncached_ns"]
	enc, dec := layers["dnswire.encode_query_ns"], layers["dnswire.decode_response_ns"]
	zoneNS, encResp := layers["zone.lookup_ns"], layers["dnswire.encode_response_ns"]
	rows := []struct {
		layer string
		ns    float64
	}{
		{"resolver (Client.QueryArena self)", q - sim - enc - dec},
		{"dnswire.encode_query", enc},
		{"dnswire.decode_response", dec},
		{"simnet (Network.Exchange self)", sim - serve},
		{"authserver (serve self, incl. query decode)", serve - zoneNS - encResp},
		{"zone.lookup", zoneNS},
		{"dnswire.encode_response", encResp},
	}
	rep.infof("attribution (scan_sim_healthy): %.2f exchanges/domain, cpu_us_per_domain %.1f", exchangesPerDomain, cpuPerDomain)
	explained := 0.0
	for _, r := range rows {
		us := max(r.ns, 0) * exchangesPerDomain / 1e3
		explained += us
		rep.infof("  %-46s %8.0f ns/call x %.2f = %7.2f us/domain (%4.1f%%)", r.layer, r.ns, exchangesPerDomain, us, 100*share(us, cpuPerDomain))
	}
	// What ScanDomain and the iterator cost above their exchanges,
	// measured where it can be: serially, with warm caches.
	above := max(layers["measure.scan_domain_warm_us"]-layers["warm_exchanges_per_domain"]*q/1e3, 0)
	explained += above
	rep.infof("  %-46s %8.2f us - %.2f exchanges x query = %7.2f us/domain (%4.1f%%)", "measure + resolver.Iterator (warm ScanDomain self)",
		layers["measure.scan_domain_warm_us"], layers["warm_exchanges_per_domain"], above, 100*share(above, cpuPerDomain))
	unexplained := 1 - share(explained, cpuPerDomain)
	rep.infof("  %-46s %30.2f us/domain (%4.1f%%)", "unexplained: cold-cache walks, scheduler, GC",
		cpuPerDomain-explained, 100*unexplained)
	rep.set("attribution.unexplained_share", unexplained, "1 - (sum(layer self ns x exchanges/domain) + warm ScanDomain self) / cpu_us_per_domain")
}

// udpExtras reads the batched transport's own counters and replays the
// captured exchanges through it from one caller per processor.
func (e *scanEnv) udpExtras(ctx context.Context, rep *report, traced []tracedStats, tuples []tuple) {
	var syscalls, batch []float64
	peak := int64(0)
	for _, ts := range traced {
		u := ts.udp
		syscalls = append(syscalls, share(float64(u.SendDatagrams+u.RecvDatagrams)-float64(u.SyscallsSaved), float64(u.Exchanges)))
		batch = append(batch, share(float64(u.RecvDatagrams), float64(u.RecvBatches)))
		peak = max(peak, u.InflightHighwater)
	}
	rep.set("udpx.syscalls_per_query", median(syscalls), "BatchTransport.Stats(): (datagrams sent + received - syscalls saved) / exchanges")
	rep.set("udpx.dgrams_per_recvbatch", median(batch), "BatchTransport.Stats(): received datagrams / receive batches")
	rep.set("udpx.inflight_peak", float64(peak), "BatchTransport.Stats().InflightHighwater")

	var live []tuple
	for _, t := range tuples {
		if t.resp != nil {
			live = append(live, t)
		}
	}
	if len(live) == 0 {
		return
	}
	callers := runtime.GOMAXPROCS(0)
	per := len(live) * layerRounds / callers
	nsPer, allocsPer := make([]float64, callers), make([]float64, callers)
	a0 := mallocs()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for i := 0; i < per; i++ {
				t := live[(c*per+i)%len(live)]
				if resp, err := e.udp.Exchange(ctx, t.server, t.query); err == nil {
					e.udp.ReleaseResponse(resp)
				}
			}
			nsPer[c] = float64(time.Since(t0).Nanoseconds()) / float64(per)
		}()
	}
	wg.Wait()
	allocsPer[0] = float64(mallocs()-a0) / float64(per*callers)
	rep.set("udpx.exchange_ns", median(nsPer), fmt.Sprintf("BatchTransport.Exchange round trip, %d callers, %d calls each", callers, per))
	rep.set("udpx.exchange_allocs", allocsPer[0], "")
}
