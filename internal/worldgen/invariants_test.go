package worldgen

import (
	"strings"
	"testing"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
)

// TestWorldInvariants validates structural properties of the generated
// world that every analysis implicitly depends on.
func TestWorldInvariants(t *testing.T) {
	w, active := sharedWorld(t)

	t.Run("spans are contiguous and ordered", func(t *testing.T) {
		for _, d := range w.Domains {
			if len(d.Spans) == 0 {
				t.Fatalf("%s has no spans", d.Name)
			}
			if d.Spans[0].FromYear != d.Born {
				t.Errorf("%s: first span starts %d, born %d", d.Name, d.Spans[0].FromYear, d.Born)
			}
			for i := 1; i < len(d.Spans); i++ {
				if d.Spans[i].FromYear != d.Spans[i-1].ToYear+1 {
					t.Errorf("%s: span gap between %d and %d", d.Name,
						d.Spans[i-1].ToYear, d.Spans[i].FromYear)
				}
			}
			last := d.Spans[len(d.Spans)-1]
			if d.Died != 0 && last.ToYear < d.Died {
				t.Errorf("%s: last span ends %d before death %d", d.Name, last.ToYear, d.Died)
			}
		}
	})

	t.Run("every span has nameservers", func(t *testing.T) {
		for _, d := range w.Domains {
			for _, span := range d.Spans {
				if len(span.A.NS) == 0 {
					t.Fatalf("%s: empty NS set in span %d-%d", d.Name, span.FromYear, span.ToYear)
				}
				if d.SingleNS && len(span.A.NS) != 1 {
					t.Errorf("%s: single-NS domain with %d nameservers", d.Name, len(span.A.NS))
				}
			}
		}
	})

	t.Run("domains map to their country suffix", func(t *testing.T) {
		for _, d := range w.Domains {
			suffix := w.Countries[d.CountryIdx].Suffix
			if !d.Name.IsSubdomainOf(suffix) {
				t.Errorf("%s not under %s", d.Name, suffix)
			}
		}
	})

	t.Run("domain names are unique", func(t *testing.T) {
		seen := make(map[dnsname.Name]bool, len(w.Domains))
		for _, d := range w.Domains {
			if seen[d.Name] {
				t.Errorf("duplicate domain %s", d.Name)
			}
			seen[d.Name] = true
		}
	})

	t.Run("healthy domains have servers for every nameserver", func(t *testing.T) {
		for _, d := range w.Domains {
			if d.Died != 0 || d.Cond != CondHealthy {
				continue
			}
			for _, host := range d.Final().NS {
				addrs := active.AddrsOf(host)
				if len(addrs) == 0 {
					t.Errorf("%s: healthy NS %s has no address", d.Name, host)
					continue
				}
				for _, addr := range addrs {
					if active.Net.IsBlackholed(addr) {
						t.Errorf("%s: healthy NS %s at %s is blackholed", d.Name, host, addr)
					}
					if _, ok := active.Net.ServerAt(addr); !ok {
						t.Errorf("%s: healthy NS %s at %s has no server", d.Name, host, addr)
					}
				}
			}
		}
	})

	t.Run("parent zone anomalies trace to injected defects", func(t *testing.T) {
		// Zone validation flags missing glue — which the generator
		// produces deliberately for partially-lame domains whose dead
		// nameserver is unresolvable. Every flagged problem must belong
		// to such a domain; anything else is a generator bug.
		brokenOK := make(map[dnsname.Name]bool)
		for _, d := range w.Domains {
			if d.Cond == CondPartialLameOwn || d.Cond == CondStaleDelegation {
				brokenOK[d.Name] = true
			}
		}
		for _, country := range w.Countries {
			parent, ok := active.ParentZone(country.Suffix)
			if !ok {
				// TLD-level suffixes (the US "gov") live in tldZones.
				continue
			}
			for _, problem := range parent.Validate() {
				matched := false
				for name := range brokenOK {
					if dnsname.Name(name).IsSubdomainOf(country.Suffix) &&
						containsName(problem.Error(), name) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s: unexplained zone problem: %v", country.Suffix, problem)
				}
			}
		}
	})

	t.Run("conditions imply dangling domains where required", func(t *testing.T) {
		for _, d := range w.Domains {
			switch d.Cond {
			case CondTypo, CondParked:
				if d.DanglingDomain == "" {
					t.Errorf("%s: %s without a dangling domain", d.Name, d.Cond)
				}
			}
		}
	})

	t.Run("PDNS windows stay inside the collection window", func(t *testing.T) {
		// Migration cache tails and transients may spill a few days
		// past December 31 of the final year, like real sensors that
		// keep reporting until the scan; nothing may exceed scan day.
		first, _ := pdns.YearRange(w.Cfg.StartYear)
		scanDay := pdns.Date(2021, time.April, 15) // the paper's active scan
		for _, rs := range w.PDNS.Snapshot() {
			if rs.RRType != dnswire.TypeNS {
				continue
			}
			if rs.FirstSeen < first || rs.LastSeen > scanDay {
				t.Errorf("%s %q window %s..%s outside the collection window",
					rs.RRName, rs.RData, rs.FirstSeen, rs.LastSeen)
			}
			if rs.LastSeen < rs.FirstSeen {
				t.Errorf("%s: inverted window", rs.RRName)
			}
		}
	})
}

// containsName reports whether the error text mentions the domain.
func containsName(errText string, name dnsname.Name) bool {
	return len(errText) > 0 && strings.Contains(errText, string(name))
}
