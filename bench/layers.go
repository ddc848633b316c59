package main

import (
	"context"
	"io"
	"net/netip"
	"sync/atomic"
	"time"

	"govdns/internal/authserver"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/measure"
	"govdns/internal/resolver"
	"govdns/internal/worldgen"
	"govdns/internal/zone"
)

// layerRounds is how many times the captured exchanges are replayed
// through each layer: a fixed iteration count, so two commits do the
// same work.
const layerRounds = 8

// layerInput is what the layer replays run over, all captured from the
// workload's own world.
type layerInput struct {
	active    *worldgen.Active
	transport resolver.Transport // what resolver.query and the warm ScanDomain run over
	timeout   time.Duration
	tuples    []tuple
	healthy   []dnsname.Name          // domains that scan without a timeout
	results   []*measure.DomainResult // results to serialise and digest
}

// captureSample scans the head of the world's query list through a
// recorder, for workloads whose own traffic is not a scan.
func captureSample(ctx context.Context, a *worldgen.Active) layerInput {
	const head = 1500
	list := a.QueryList[:min(head, len(a.QueryList))]
	rec := newRecorder(a.Net)
	sc, _ := newScanner(rec, a.Roots, scanTimeout, measure.DefaultConcurrency)
	in := layerInput{active: a, transport: a.Net, timeout: scanTimeout, results: sc.Scan(ctx, list)}
	in.tuples = rec.tuples
	for _, r := range in.results {
		if r.Classify() == measure.ClassHealthy && r.Rounds <= 1 {
			in.healthy = append(in.healthy, r.Domain)
		}
	}
	return in
}

// counter counts exchanges and nothing else, so that it can sit under
// a timed call.
type counter struct {
	inner    resolver.Transport
	releaser resolver.ResponseReleaser
	calls    atomic.Int64
}

func (c *counter) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	c.calls.Add(1)
	return c.inner.Exchange(ctx, server, query)
}

func (c *counter) ReleaseResponse(buf []byte) {
	if c.releaser != nil {
		c.releaser.ReleaseResponse(buf)
	}
}

// replayItem is one captured exchange prepared for replay: the
// question, and the zone of the captured server that answers it.
type replayItem struct {
	tuple
	name  dnsname.Name
	qtype dnswire.Type
	srv   *authserver.Server
	zone  *zone.Zone
}

func prepareReplay(a *worldgen.Active, tuples []tuple) []replayItem {
	var items []replayItem
	for _, t := range tuples {
		if t.resp == nil {
			continue // a dead server: nothing to decode, and an exchange would wait out its deadline
		}
		q, ok := dnswire.PeekQuestion(t.query)
		if !ok {
			continue
		}
		srv, ok := a.Net.ServerAt(t.server)
		if !ok {
			continue
		}
		it := replayItem{tuple: t, name: q.Name.Own(), qtype: q.Type, srv: srv}
		for n := it.name; ; n = n.Parent() {
			if z, ok := srv.ZoneByOrigin(n); ok {
				it.zone = z
				break
			}
			if n.IsRoot() {
				break
			}
		}
		items = append(items, it)
	}
	return items
}

// layerSuite replays the captured exchanges through each layer's
// public entry point and sets the per-call metrics. It returns the
// table rows the attribution is built from.
func layerSuite(ctx context.Context, rep *report, in layerInput) map[string]float64 {
	items := prepareReplay(in.active, in.tuples)
	out := map[string]float64{}
	set := func(name string, v float64, note string) {
		out[name] = v
		rep.set(name, v, note)
	}
	if len(items) == 0 {
		rep.infof("layer replay: no answered exchanges captured")
		return out
	}
	n := len(items) * layerRounds
	note := func(what string) string { return what + ", " + fmtCount(n) + " replayed calls" }
	pick := func(i int) *replayItem { return &items[i%len(items)] }

	// dnsname
	texts := make([]string, len(items))
	for i := range items {
		texts[i] = string(items[i].name)
	}
	ns, _ := timeOp(n, func(i int) { _, _ = dnsname.Parse(texts[i%len(texts)]) })
	set("dnsname.parse_ns", ns, note("dnsname.Parse on captured query names"))
	ns, allocs := timeOp(n, func(i int) { _ = pick(i).name.Labels() })
	set("dnsname.labels_ns", ns, note("Name.Labels"))
	set("dnsname.labels_allocs", allocs, "")

	// dnswire, on one pooled arena as a scan uses it
	a := dnswire.DefaultPool.Get()
	ns, allocs = timeOp(n, func(i int) {
		it := pick(i)
		_, _ = a.Encode(a.NewQuery(uint16(i), it.name, it.qtype))
	})
	set("dnswire.encode_query_ns", ns, note("Arena.NewQuery+Encode"))
	set("dnswire.encode_query_allocs", allocs, "")
	decNS, allocs := timeOp(n, func(i int) { _, _ = a.Decode(pick(i).resp) })
	set("dnswire.decode_response_ns", decNS, note("Arena.Decode on captured responses"))
	set("dnswire.decode_response_allocs", allocs, "")
	bothNS, bothAllocs := timeOp(n, func(i int) {
		if m, err := a.Decode(pick(i).resp); err == nil {
			_, _ = a.EncodeUDP(m)
		}
	})
	set("dnswire.encode_response_ns", max(bothNS-decNS, 0), note("Arena.EncodeUDP: decode+encode minus decode"))
	set("dnswire.encode_response_allocs", max(bothAllocs-allocs, 0), "")
	a.Finish()

	// zone
	var zoned []*replayItem
	for i := range items {
		if items[i].zone != nil {
			zoned = append(zoned, &items[i])
		}
	}
	if len(zoned) > 0 {
		ns, allocs = timeOp(n, func(i int) {
			it := zoned[i%len(zoned)]
			_ = it.zone.Authoritative(it.name, it.qtype)
		})
		set("zone.lookup_ns", ns, note("Zone.Authoritative, what the server calls per query"))
		set("zone.lookup_allocs", allocs, "")
	}

	// authserver: uncached as worldgen attaches servers, then cached
	dst := make([]byte, 0, 4096)
	serve := func(i int) {
		it := pick(i)
		dst, _ = it.srv.HandleWireAppend(dst[:0], it.query)
	}
	ns, allocs = timeOp(n, serve)
	set("authserver.serve_uncached_ns", ns, note("Server.HandleWireAppend, no cache"))
	set("authserver.serve_uncached_allocs", allocs, "")
	cached := map[*authserver.Server]bool{}
	for i := range items {
		if srv := items[i].srv; !cached[srv] && srv.Cache() == nil {
			cached[srv] = true
			srv.SetCache(authserver.NewResponseCache())
		}
	}
	for i := range items {
		serve(i) // fill
	}
	ns, allocs = timeOp(n, serve)
	set("authserver.serve_cached_ns", ns, note("Server.HandleWireAppend, response cache warm"))
	set("authserver.serve_cached_allocs", allocs, "")
	for srv := range cached {
		srv.SetCache(nil)
	}

	// simnet and resolver: one exchange each, answered servers only
	ns, _ = timeOp(n, func(i int) {
		it := pick(i)
		_, _ = in.active.Net.Exchange(ctx, it.server, it.query)
	})
	set("simnet.exchange_ns", ns, note("Network.Exchange; self time is this minus authserver.serve_uncached_ns"))
	client := resolver.NewClient(in.transport)
	client.Timeout = in.timeout
	client.Retries = scanRetries
	qa := dnswire.DefaultPool.Get()
	ns, allocs = timeOp(n, func(i int) {
		it := pick(i)
		_, _ = client.QueryArena(ctx, qa, it.server, it.name, it.qtype)
	})
	qa.Finish()
	set("resolver.query_ns", ns, note("Client.QueryArena, one exchange over the workload's transport"))
	set("resolver.query_allocs", allocs, "")

	// resolver walk and measure.ScanDomain, cold then warm caches
	if h := in.healthy[:min(len(in.healthy), 512)]; len(h) > 0 {
		counted := &counter{inner: in.transport}
		counted.releaser, _ = in.transport.(resolver.ResponseReleaser)
		sc, iter := newScanner(counted, in.active.Roots, in.timeout, measure.DefaultConcurrency)
		cold, _ := timeOp(len(h), func(i int) { _, _ = iter.Delegation(ctx, h[i]) })
		warm, _ := timeOp(len(h), func(i int) { _, _ = iter.Delegation(ctx, h[i]) })
		set("resolver.resolve_cold_us", cold/1e3, "Iterator.Delegation, first walk on a fresh iterator, "+fmtCount(len(h))+" healthy domains, serial")
		set("resolver.resolve_warm_us", warm/1e3, "the same walks again, zone cache warm")
		for _, d := range h {
			sc.ScanDomain(ctx, d)
		}
		before := counted.calls.Load()
		ns, allocs = timeOp(len(h), func(i int) { sc.ScanDomain(ctx, h[i]) })
		out["warm_exchanges_per_domain"] = float64(counted.calls.Load()-before) / float64(len(h))
		set("measure.scan_domain_warm_us", ns/1e3, "Scanner.ScanDomain, caches warm, "+fmtCount(len(h))+" healthy domains, serial")
		set("measure.scan_domain_warm_allocs", allocs, "")
	}

	// result serialisation and digest
	if rs := in.results[:min(len(in.results), 2048)]; len(rs) > 0 {
		ns, _ = timeOp(layerRounds, func(int) { _ = measure.WriteJSONL(io.Discard, rs) })
		set("measure.jsonl_encode_ns", ns/float64(len(rs)), "measure.WriteJSONL per result, "+fmtCount(len(rs)*layerRounds))
		ns, _ = timeOp(layerRounds, func(int) {
			acc := measure.NewDigestAccumulator()
			for _, r := range rs {
				acc.Add(r)
			}
		})
		set("measure.digest_add_ns", ns/float64(len(rs)), "DigestAccumulator.Add per result, "+fmtCount(len(rs)*layerRounds))
	}
	return out
}
