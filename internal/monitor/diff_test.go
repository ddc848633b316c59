package monitor

import (
	"net/netip"
	"testing"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/measure"
)

// healthyResult fabricates a healthy DomainResult delegated to the
// given NS hosts, each answering authoritatively at the given address.
func healthyResult(domain string, hosts map[string]string) *measure.DomainResult {
	r := &measure.DomainResult{
		Domain:          dnsname.MustParse(domain),
		ParentZone:      "gov.br.",
		ParentResponded: true,
	}
	var nsSet []dnsname.Name
	for h := range hosts {
		nsSet = append(nsSet, dnsname.MustParse(h))
	}
	for h, addr := range hosts {
		host := dnsname.MustParse(h)
		a := netip.MustParseAddr(addr)
		r.ParentNS = append(r.ParentNS, host)
		r.Addrs = append(r.Addrs, measure.HostAddrs{Host: host, Addrs: []netip.Addr{a}})
		r.Servers = append(r.Servers, measure.ServerResponse{
			Host: host, Addr: a, OK: true, Authoritative: true,
			RCode: dnswire.RCodeNoError, NS: nsSet,
		})
	}
	return r
}

// lameResult is healthyResult with every server silent: fully lame.
func lameResult(domain string, hosts map[string]string) *measure.DomainResult {
	r := healthyResult(domain, hosts)
	for i := range r.Servers {
		r.Servers[i].OK = false
		r.Servers[i].Err = "timeout"
	}
	return r
}

func baselineOf(results ...*measure.DomainResult) map[dnsname.Name]Summary {
	m := make(map[dnsname.Name]Summary)
	for _, r := range results {
		m[r.Domain] = Summarize(r)
	}
	return m
}

func findingKinds(a *Alert) []string {
	if a == nil {
		return nil
	}
	kinds := make([]string, len(a.Findings))
	for i, f := range a.Findings {
		kinds[i] = f.Kind
	}
	return kinds
}

func hasKind(a *Alert, kind string) bool {
	for _, k := range findingKinds(a) {
		if k == kind {
			return true
		}
	}
	return false
}

func TestDifferNoBaselineEmitsNothing(t *testing.T) {
	d := NewDiffer()
	if a := d.Diff(lameResult("x.gov.br", map[string]string{"ns1.x.gov.br": "10.0.0.1"})); a != nil {
		t.Errorf("first epoch produced alert %+v, want none", a)
	}
	var nilD *Differ
	if a := nilD.Diff(healthyResult("x.gov.br", map[string]string{"ns1.x.gov.br": "10.0.0.1"})); a != nil {
		t.Error("nil differ produced an alert")
	}
}

func TestDifferUnchangedDomainIsSilent(t *testing.T) {
	d := NewDiffer()
	r := healthyResult("city.gov.br", map[string]string{"ns1.city.gov.br": "10.0.0.1"})
	d.SetBaseline(baselineOf(r))
	if a := d.Diff(healthyResult("city.gov.br", map[string]string{"ns1.city.gov.br": "10.0.0.1"})); a != nil {
		t.Errorf("unchanged domain alerted: kinds %v", findingKinds(a))
	}
}

// TestDifferClassFlipSeverity pins the severity taxonomy: downgrades to
// total service loss are critical, partial downgrades warning, and
// recoveries info.
func TestDifferClassFlipSeverity(t *testing.T) {
	hosts := map[string]string{"ns1.city.gov.br": "10.0.0.1"}
	d := NewDiffer()
	d.SetBaseline(baselineOf(healthyResult("city.gov.br", hosts)))

	down := d.Diff(lameResult("city.gov.br", hosts))
	if down == nil || down.Severity != SevCritical || !hasKind(down, "class-flip") {
		t.Fatalf("healthy->fully-lame alert = %+v, want critical class-flip", down)
	}
	if down.PrevClass != "healthy" || down.Class != "fully-lame" {
		t.Errorf("flip classes %s -> %s", down.PrevClass, down.Class)
	}

	// Partial degradation: two NS, one dies -> partially-lame, warning.
	two := map[string]string{"ns1.city.gov.br": "10.0.0.1", "ns2.city.gov.br": "10.0.0.2"}
	d.SetBaseline(baselineOf(healthyResult("city.gov.br", two)))
	partial := healthyResult("city.gov.br", two)
	partial.Servers[0].OK = false
	partial.Servers[0].Err = "timeout"
	mid := d.Diff(partial)
	if mid == nil || mid.Severity != SevWarning {
		t.Fatalf("healthy->partially-lame alert = %+v, want warning", mid)
	}

	// Recovery: fully-lame baseline, healthy now -> info.
	d.SetBaseline(baselineOf(lameResult("city.gov.br", hosts)))
	up := d.Diff(healthyResult("city.gov.br", hosts))
	if up == nil || up.Severity != SevInfo || !hasKind(up, "class-flip") {
		t.Fatalf("recovery alert = %+v, want info class-flip", up)
	}
}

// TestDifferHijackHeuristic: only the conjunction fires — out of
// bailiwick AND uncataloged AND low baseline spread. Each counterexample
// drops one conjunct.
func TestDifferHijackHeuristic(t *testing.T) {
	base := healthyResult("city.gov.br", map[string]string{
		"ns1.city.gov.br": "10.0.0.1", "ns2.city.gov.br": "10.0.0.2",
	})

	diffWith := func(t *testing.T, extraBaseline []*measure.DomainResult, newHost string) *Alert {
		t.Helper()
		d := NewDiffer()
		d.SetBaseline(baselineOf(append(extraBaseline, base)...))
		return d.Diff(healthyResult("city.gov.br", map[string]string{newHost: "66.6.0.1"}))
	}

	a := diffWith(t, nil, "ns1.evil-ops.com")
	if a == nil || !hasKind(a, "hijack-pattern") || a.Severity != SevCritical {
		t.Fatalf("takeover shape alert = %+v (kinds %v), want critical hijack-pattern", a, findingKinds(a))
	}
	if !hasKind(a, "ns-churn") {
		t.Error("hijack alert lacks the underlying ns-churn finding")
	}

	// In-bailiwick move: new host under the parent zone is routine.
	if a := diffWith(t, nil, "ns9.other.gov.br"); hasKind(a, "hijack-pattern") {
		t.Error("in-bailiwick NS change flagged as hijack")
	}

	// Cataloged provider: moving to a known operator is routine.
	if a := diffWith(t, nil, "ns1.cloudflare.com"); hasKind(a, "hijack-pattern") {
		t.Errorf("move to cataloged provider flagged as hijack: %v", findingKinds(a))
	}

	// High spread: the "new" provider already hosts many monitored
	// domains in the baseline, so it is an established operator.
	var bulk []*measure.DomainResult
	for _, dom := range []string{"a.gov.br", "b.gov.br", "c.gov.br", "e.gov.br"} {
		bulk = append(bulk, healthyResult(dom, map[string]string{"ns1.evil-ops.com": "66.6.0.1"}))
	}
	if a := diffWith(t, bulk, "ns1.evil-ops.com"); hasKind(a, "hijack-pattern") {
		t.Error("high-spread provider flagged as hijack")
	}
}

func TestDifferAddrChangeAndFaults(t *testing.T) {
	hosts := map[string]string{"ns1.city.gov.br": "10.0.0.1"}
	d := NewDiffer()
	d.SetBaseline(baselineOf(healthyResult("city.gov.br", hosts)))

	moved := healthyResult("city.gov.br", map[string]string{"ns1.city.gov.br": "10.9.9.9"})
	a := d.Diff(moved)
	if a == nil || a.Severity != SevInfo || !hasKind(a, "addr-change") {
		t.Fatalf("address rotation alert = %+v (kinds %v), want info addr-change", a, findingKinds(a))
	}
	if hasKind(a, "ns-churn") {
		t.Error("pure address change reported NS churn")
	}

	faulty := healthyResult("city.gov.br", hosts)
	faulty.Faults.Truncations = 3
	fa := d.Diff(faulty)
	if fa == nil || !hasKind(fa, "fault-signature") {
		t.Fatalf("new fault signature alert = %+v, want fault-signature", fa)
	}

	newDom := d.Diff(healthyResult("fresh.gov.br", map[string]string{"ns1.fresh.gov.br": "10.1.1.1"}))
	if newDom == nil || !hasKind(newDom, "new-domain") || newDom.Severity != SevInfo {
		t.Fatalf("new-domain alert = %+v", newDom)
	}
}
