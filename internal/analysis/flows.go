package analysis

import (
	"sort"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
	"govdns/internal/providers"
)

// ProviderFlow counts domains that moved between two hosting labels
// between two years — the migration behind the § IV-B centralization
// story (who the cloud providers' customers came from).
type ProviderFlow struct {
	// From and To are hosting labels: a provider display name,
	// "private" (in-government), or "other" (unrecognized third party).
	From, To string
	// Domains is how many domains made this move.
	Domains int
}

// Hosting labels for domains outside the provider catalog.
const (
	LabelPrivate = "private"
	LabelOther   = "other"
)

// hostingLabel classifies a domain's hosting in one year by its active
// NS records: a catalog provider if any host matches one, else private
// if every host is in-government, else other.
func hostingLabel(sets []pdns.RecordSet, domain dnsname.Name, year int, m *Mapper, catalog *providers.Catalog) (string, bool) {
	first, last := pdns.YearRange(year)
	private := true
	found := ""
	any := false
	for i := range sets {
		rs := &sets[i]
		if rs.RRType != dnswire.TypeNS || !rs.Overlaps(first, last) {
			continue
		}
		any = true
		host, err := dnsname.Parse(rs.RData)
		if err != nil {
			continue
		}
		if p, ok := catalog.Identify(host); ok && found == "" {
			found = p.Display
		}
		if !m.IsPrivateHost(domain, host) {
			private = false
		}
	}
	switch {
	case !any:
		return "", false
	case found != "":
		return found, true
	case private:
		return LabelPrivate, true
	default:
		return LabelOther, true
	}
}

// ProviderFlows compares hosting labels between two years and returns
// the migration matrix, largest flows first. Domains present in only one
// of the years are ignored (births and deaths are not migrations).
func ProviderFlows(view *pdns.View, m *Mapper, catalog *providers.Catalog, yearA, yearB int) []ProviderFlow {
	idx := indexByDomain(view)
	counts := make(map[[2]string]int)
	for _, name := range idx.names {
		sets := idx.sets[name]
		from, okA := hostingLabel(sets, name, yearA, m, catalog)
		to, okB := hostingLabel(sets, name, yearB, m, catalog)
		if !okA || !okB || from == to {
			continue
		}
		counts[[2]string{from, to}]++
	}
	out := make([]ProviderFlow, 0, len(counts))
	for k, n := range counts {
		out = append(out, ProviderFlow{From: k[0], To: k[1], Domains: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domains != out[j].Domains {
			return out[i].Domains > out[j].Domains
		}
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}
