// The epoch differ: per-domain change detection between consecutive
// scan epochs, built so one Diff call is a pure function of (baseline,
// result). Purity matters twice over: alerts come out bit-identical
// whatever the scan's concurrency, and the scanner's worker goroutines
// can call Diff concurrently as the trace-pinning predicate while the
// stream writer calls it again on the serialized emission path.
package monitor

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"govdns/internal/analysis"
	"govdns/internal/dnsname"
	"govdns/internal/measure"
	"govdns/internal/providers"
)

// Summary is the per-domain digest one epoch keeps for the next
// epoch's differ: classification, the combined nameserver view, the
// resolved address set, and the error/fault signature.
type Summary struct {
	Class        string
	ParentZone   dnsname.Name
	NS           []dnsname.Name // sorted parent ∪ child NS set
	Addrs        []netip.Addr   // sorted distinct nameserver addresses
	Err          string
	ErrTransient bool
	Faults       uint64
}

// Summarize reduces a scan result to the fields the differ compares.
func Summarize(r *measure.DomainResult) Summary {
	seen := make(map[dnsname.Name]bool)
	var ns []dnsname.Name
	for _, h := range r.ParentNS {
		if !seen[h] {
			seen[h] = true
			ns = append(ns, h)
		}
	}
	for _, h := range r.ChildNS() {
		if !seen[h] {
			seen[h] = true
			ns = append(ns, h)
		}
	}
	sort.Slice(ns, func(i, j int) bool { return dnsname.Compare(ns[i], ns[j]) < 0 })
	return Summary{
		Class:        r.Classify().String(),
		ParentZone:   r.ParentZone,
		NS:           ns,
		Addrs:        r.AllAddrs(),
		Err:          r.Err,
		ErrTransient: r.ErrTransient,
		Faults:       r.Faults.Total(),
	}
}

// classRank orders classifications by health so the differ can tell a
// downgrade from an upgrade. Higher is healthier.
var classRank = map[string]int{
	"healthy":        5,
	"partially-lame": 4,
	"no-delegation":  3,
	"fully-lame":     2,
	"walk-failure":   1,
}

// nsSpreadThreshold is the § VI-C hijack-forensics cut: a nameserver
// registrable domain hosting at most this many monitored domains in the
// baseline is "low spread" — not an established operator — and its
// sudden appearance in a delegation matches the takeover pattern.
const nsSpreadThreshold = 3

// Differ compares each new epoch's results against the previous
// complete epoch. SetBaseline swaps epochs between scans; Diff itself
// only reads, so it is safe from any number of goroutines.
type Differ struct {
	catalog  *providers.Catalog
	baseline map[dnsname.Name]Summary
	// spread counts, per nameserver registrable domain, how many
	// distinct baseline domains delegate to it — the online analogue of
	// the hijack-forensics provider-spread table.
	spread map[dnsname.Name]int
}

// NewDiffer builds a differ with no baseline yet (the first epoch emits
// no alerts). The hijack heuristic's known providers are
// providers.Default().
func NewDiffer() *Differ {
	return &Differ{catalog: providers.Default()}
}

// SetBaseline installs a completed epoch's summaries as the comparison
// base and recomputes the NS-spread table. Must not run concurrently
// with Diff (the monitor swaps baselines only between epochs).
func (d *Differ) SetBaseline(summaries map[dnsname.Name]Summary) {
	spread := make(map[dnsname.Name]int)
	for _, s := range summaries {
		perDomain := make(map[dnsname.Name]bool)
		for _, h := range s.NS {
			perDomain[analysis.NSDomain(h)] = true
		}
		for nd := range perDomain {
			spread[nd]++
		}
	}
	d.baseline, d.spread = summaries, spread
}

// Diff compares r against the baseline and returns the domain's alert
// for this epoch, or nil when nothing changed (or no baseline exists).
// Seq and Epoch are left zero for the caller to assign. Diff is pure
// with respect to the differ's state and safe to call concurrently.
func (d *Differ) Diff(r *measure.DomainResult) *Alert {
	if d == nil || d.baseline == nil {
		return nil
	}
	return d.diffSummary(r.Domain, Summarize(r))
}

// diffSummary is Diff for a caller that already summarized the result —
// the monitor summarizes each result once and feeds both its baseline
// map and the diff from it.
func (d *Differ) diffSummary(domain dnsname.Name, cur Summary) *Alert {
	if d == nil || d.baseline == nil {
		return nil
	}
	prev, known := d.baseline[domain]
	if !known {
		return finish(&Alert{Domain: domain, Class: cur.Class, Findings: []Finding{{
			Kind: "new-domain", Severity: SevInfo,
			Detail: fmt.Sprintf("not in previous epoch; classified %s", cur.Class),
		}}})
	}

	var findings []Finding
	if cur.Class != prev.Class {
		sev := SevInfo
		if classRank[cur.Class] < classRank[prev.Class] {
			sev = SevWarning
			// Total loss of service tops the taxonomy: the paper's
			// fully-lame bucket, or the walk itself failing.
			if cur.Class == "fully-lame" || cur.Class == "walk-failure" {
				sev = SevCritical
			}
		}
		findings = append(findings, Finding{
			Kind: "class-flip", Severity: sev,
			Detail: prev.Class + " -> " + cur.Class,
		})
	}

	added, removed := diffNames(prev.NS, cur.NS)
	switch {
	case len(added)+len(removed) > 0:
		findings = append(findings, Finding{
			Kind: "ns-churn", Severity: SevWarning,
			Detail: churnDetail(added, removed),
		})
		var susp []dnsname.Name
		for _, h := range added {
			if d.suspicious(h, cur.ParentZone) {
				susp = append(susp, h)
			}
		}
		if len(susp) > 0 {
			findings = append(findings, Finding{
				Kind: "hijack-pattern", Severity: SevCritical,
				Detail: "delegation moved to out-of-bailiwick, uncataloged, low-spread NS: " + joinNames(susp),
			})
		}
	case !slices.Equal(prev.Addrs, cur.Addrs):
		// Same NS hosts, different addresses: an address rotation, only
		// reported when no NS churn already explains it.
		findings = append(findings, Finding{
			Kind: "addr-change", Severity: SevInfo,
			Detail: fmt.Sprintf("nameserver addresses changed: %s -> %s", joinAddrs(prev.Addrs), joinAddrs(cur.Addrs)),
		})
	}

	switch {
	case cur.ErrTransient && !prev.ErrTransient:
		findings = append(findings, Finding{
			Kind: "transient", Severity: SevInfo,
			Detail: "transient fault signature appeared: " + cur.Err,
		})
	case cur.Err != "" && prev.Err == "" && cur.Class == prev.Class:
		// A new hard error that did not move the classification — worth
		// a line, since the class-flip finding will not carry it.
		findings = append(findings, Finding{
			Kind: "error", Severity: SevInfo,
			Detail: "error appeared: " + cur.Err,
		})
	}
	if cur.Faults > 0 && prev.Faults == 0 {
		findings = append(findings, Finding{
			Kind: "fault-signature", Severity: SevInfo,
			Detail: fmt.Sprintf("%d wire faults observed (none in previous epoch)", cur.Faults),
		})
	}

	if len(findings) == 0 {
		return nil
	}
	return finish(&Alert{Domain: domain, PrevClass: prev.Class, Class: cur.Class, Findings: findings})
}

// suspicious is the online form of the hijack-history heuristic (see
// analysis.SuspiciousTransitions): an added nameserver matches the
// takeover pattern when it sits outside the domain's own parent zone,
// belongs to no cataloged provider, and its registrable domain hosted
// almost nothing in the baseline.
func (d *Differ) suspicious(host, parentZone dnsname.Name) bool {
	if parentZone != "" && host.IsSubdomainOf(parentZone) {
		return false
	}
	if _, known := d.catalog.Identify(host); known {
		return false
	}
	return d.spread[analysis.NSDomain(host)] <= nsSpreadThreshold
}

// finish sets the alert's severity to the maximum over its findings.
func finish(a *Alert) *Alert {
	max := SevInfo
	for _, f := range a.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	a.Severity = max
	return a
}

// diffNames computes set differences of two sorted name slices.
func diffNames(prev, cur []dnsname.Name) (added, removed []dnsname.Name) {
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch c := dnsname.Compare(prev[i], cur[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			removed = append(removed, prev[i])
			i++
		default:
			added = append(added, cur[j])
			j++
		}
	}
	removed = append(removed, prev[i:]...)
	added = append(added, cur[j:]...)
	return added, removed
}

func churnDetail(added, removed []dnsname.Name) string {
	var parts []string
	for _, h := range added {
		parts = append(parts, "+"+h.String())
	}
	for _, h := range removed {
		parts = append(parts, "-"+h.String())
	}
	return "NS set changed: " + strings.Join(parts, " ")
}

func joinNames(names []dnsname.Name) string {
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n.String()
	}
	return strings.Join(parts, " ")
}

func joinAddrs(addrs []netip.Addr) string {
	if len(addrs) == 0 {
		return "(none)"
	}
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}
