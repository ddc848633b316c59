package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/measure"
	"govdns/internal/resolver"
	"govdns/internal/worldgen"
)

const (
	// The scanner configuration under test is the one govscan and
	// core.Study default to.
	scanTimeout = 25 * time.Millisecond
	scanRetries = 1

	// Reference scans decide what the right answer is, so they must not
	// suffer the load-induced timeouts they are there to catch: four
	// times the timeout, and eight times the concurrency so that the
	// dead servers' timeouts (all of the wall time) overlap and the scan
	// still ends in under three seconds.
	refTimeout     = 4 * scanTimeout
	refConcurrency = 8 * measure.DefaultConcurrency
	refMaxScans    = 4
)

type digest = [sha256.Size]byte

func digestOf(r *measure.DomainResult) digest {
	return measure.Digest([]*measure.DomainResult{r})
}

// newScanner wires a fresh client, iterator and scanner: every timed
// scan starts with cold resolver caches, as a real scan does.
func newScanner(tr resolver.Transport, roots []netip.Addr, timeout time.Duration, concurrency int) (*measure.Scanner, *resolver.Iterator) {
	client := resolver.NewClient(tr)
	client.Timeout = timeout
	client.Retries = scanRetries
	it := resolver.NewIterator(client, roots)
	sc := measure.NewScanner(it)
	sc.Concurrency = concurrency
	sc.PerDomainParallelism = measure.DefaultPerDomainParallelism
	return sc, it
}

// world is a generated, built simulated Internet and how long each
// step took.
type world struct {
	active  *worldgen.Active
	genMS   float64
	buildMS float64
}

func buildWorld(seed int64, scale float64) world {
	t0 := time.Now()
	w := worldgen.Generate(worldgen.Config{Seed: seed, Scale: scale})
	t1 := time.Now()
	a := worldgen.Build(w)
	return world{active: a, genMS: ms(t1.Sub(t0)), buildMS: ms(time.Since(t1))}
}

// reference scans list over the simulated network until every domain's
// result has been seen twice in a row: the whole list twice, then only
// the domains whose two latest results differ. It gives up after
// refMaxScans.
func reference(ctx context.Context, a *worldgen.Active, list []dnsname.Name) ([]*measure.DomainResult, []digest, error) {
	scan := func(ds []dnsname.Name) []*measure.DomainResult {
		sc, _ := newScanner(a.Net, a.Roots, refTimeout, refConcurrency)
		return sc.Scan(ctx, ds)
	}
	cur := scan(list)
	digests := make([]digest, len(cur))
	pending := make([]int, len(cur))
	for i, r := range cur {
		digests[i] = digestOf(r)
		pending[i] = i
	}
	for n := 2; len(pending) > 0; n++ {
		if n > refMaxScans {
			return nil, nil, fmt.Errorf("reference: %d domains (first %s) still disagree after %d scans",
				len(pending), list[pending[0]], refMaxScans)
		}
		sub := make([]dnsname.Name, len(pending))
		for k, idx := range pending {
			sub[k] = list[idx]
		}
		again := scan(sub)
		var still []int
		for k, idx := range pending {
			d := digestOf(again[k])
			if d != digests[idx] {
				still = append(still, idx)
			}
			cur[idx], digests[idx] = again[k], d
		}
		pending = still
	}
	return cur, digests, nil
}

// healthySubset keeps the domains a scan can measure without ever
// waiting out a timeout: classified healthy in one round with no wire
// faults.
func healthySubset(ref []*measure.DomainResult, digests []digest) ([]dnsname.Name, []digest) {
	var list []dnsname.Name
	var ds []digest
	for i, r := range ref {
		if r.Classify() == measure.ClassHealthy && r.Rounds <= 1 && r.Faults.Total() == 0 {
			list = append(list, r.Domain)
			ds = append(ds, digests[i])
		}
	}
	return list, ds
}

// tuple is one captured exchange, replayed later through each layer's
// public entry point. resp is nil when the exchange failed.
type tuple struct {
	server netip.Addr
	query  []byte
	resp   []byte
}

const maxTuples = 4096

// recorder wraps a transport from outside the program. It counts and
// times every exchange, records one transport.exchange span per call
// under the span found in ctx, remembers which servers were touched,
// and keeps the first maxTuples exchanges for replay.
type recorder struct {
	inner    resolver.Transport
	releaser resolver.ResponseReleaser

	calls  atomic.Int64
	busyNS atomic.Int64 // sum of exchange durations

	mu      sync.Mutex
	tuples  []tuple
	servers map[netip.Addr]struct{}
}

func newRecorder(inner resolver.Transport) *recorder {
	r := &recorder{inner: inner, servers: make(map[netip.Addr]struct{})}
	r.releaser, _ = inner.(resolver.ResponseReleaser)
	return r
}

func (r *recorder) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	ref, traced := spanFrom(ctx)
	t0 := time.Now()
	resp, err := r.inner.Exchange(ctx, server, query)
	d := time.Since(t0)
	r.calls.Add(1)
	r.busyNS.Add(d.Nanoseconds())
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	if traced {
		start := t0.Sub(ref.log.t0).Nanoseconds()
		ref.log.add(ref.trace, ref.id, "transport.exchange", start, start+d.Nanoseconds(),
			fmt.Sprintf("server=%s sent=%d recv=%d %s", server, len(query), len(resp), outcome))
	}
	r.mu.Lock()
	r.servers[server] = struct{}{}
	if len(r.tuples) < maxTuples {
		t := tuple{server: server, query: append([]byte(nil), query...)}
		if err == nil {
			t.resp = append([]byte(nil), resp...)
		}
		r.tuples = append(r.tuples, t)
	}
	r.mu.Unlock()
	return resp, err
}

// ReleaseResponse forwards pooled buffers to the transport that owns
// them (resolver.ResponseReleaser).
func (r *recorder) ReleaseResponse(buf []byte) {
	if r.releaser != nil {
		r.releaser.ReleaseResponse(buf)
	}
}
