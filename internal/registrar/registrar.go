// Package registrar simulates the registration-availability and pricing
// checks the paper ran against GoDaddy for § IV-C/D's hijacking-risk
// analysis: which dangling nameserver domains can be registered, and at
// what cost. Prices are deterministic per domain and reproduce the
// distribution the paper reports — 0.01 to 20,000 USD with a median near
// 11.99 USD and a long premium tail (Fig. 12).
package registrar

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"govdns/internal/dnsname"
)

// Cents is a price in US cents. Using an integer type keeps price
// arithmetic exact.
type Cents int64

// String renders the price in dollars.
func (c Cents) String() string { return fmt.Sprintf("%.2f USD", float64(c)/100) }

// Dollars returns the price as a float for plotting.
func (c Cents) Dollars() float64 { return float64(c) / 100 }

// Registry tracks which domains are registered (taken) and which suffixes
// do not allow public registration at all (government suffixes, and TLDs
// that no longer operate).
type Registry struct {
	mu         sync.RWMutex
	taken      map[dnsname.Name]bool
	restricted *dnsname.SuffixSet
	priceSalt  uint64
}

// New creates an empty registry. restricted may be nil.
func New(restricted *dnsname.SuffixSet) *Registry {
	if restricted == nil {
		restricted = dnsname.NewSuffixSet()
	}
	return &Registry{
		taken:      make(map[dnsname.Name]bool),
		restricted: restricted,
	}
}

// SetPriceSalt varies the deterministic price function, letting tests
// and generators derive distinct but reproducible price landscapes.
func (r *Registry) SetPriceSalt(salt uint64) { r.priceSalt = salt }

// MarkRegistered records that domain (its registrable form is used as
// given) is taken.
func (r *Registry) MarkRegistered(domain dnsname.Name) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.taken[domain] = true
}

// Available reports whether domain could be registered right now: it is
// not taken and does not fall under a restricted suffix.
func (r *Registry) Available(domain dnsname.Name) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.taken[domain] {
		return false
	}
	if r.restricted.Contains(domain) {
		return false
	}
	if _, under := r.restricted.LongestSuffix(domain); under {
		return false
	}
	return true
}

// Price bands calibrated to the paper's Fig. 12: most available domains
// cost a standard registration fee (median 11.99), a tail of promo-priced
// domains reaches down to 0.01, and a small premium tail reaches 20,000.
// MinPriceCents is the model's floor, the paper's observed minimum.
const MinPriceCents Cents = 1

// Price quotes the registration cost for domain. The quote is a pure
// function of the domain name and the registry's salt. Domains held by
// parking services are aftermarket-listed and never quote below 300 USD
// (the paper's observed minimum for the parked dangling records).
func (r *Registry) Price(domain dnsname.Name) Cents {
	price := r.basePrice(domain)
	if labels := domain.Labels(); len(labels) > 0 && strings.Contains(labels[0], "parked") {
		if price < 30_000 {
			price = 30_000 + price%270_000
		}
	}
	return price
}

func (r *Registry) basePrice(domain dnsname.Name) Cents {
	h := fnv.New64a()
	// Hash the name and salt; fnv never errors.
	_, _ = h.Write([]byte(domain))
	var saltBytes [8]byte
	for i := 0; i < 8; i++ {
		saltBytes[i] = byte(r.priceSalt >> (8 * i))
	}
	_, _ = h.Write(saltBytes[:])
	v := h.Sum64()

	band := v % 1000
	roll := (v / 1000) % 1_000_000 // uniform in [0, 1e6)
	switch {
	case band < 250:
		// Promo / bargain tier: 0.01 – 11.98.
		return MinPriceCents + Cents(roll%1198)
	case band < 750:
		// Standard tier: exactly the common registration price points.
		points := []Cents{1199, 1299, 999, 1199, 1499, 1199, 1099, 1199}
		return points[roll%uint64(len(points))]
	case band < 950:
		// Elevated tier: 15.00 – 99.99.
		return 1500 + Cents(roll%8500)
	case band < 995:
		// Premium tier: 100 – 2,999 USD.
		return 10_000 + Cents(roll%290_000)
	default:
		// Aftermarket tier: 3,000 – 20,000 USD.
		return 300_000 + Cents(roll%1_700_001)
	}
}

// Quote prices a set of domains and returns the prices sorted ascending,
// ready for the Fig. 12 cost CDF.
func (r *Registry) Quote(domains []dnsname.Name) []Cents {
	out := make([]Cents, len(domains))
	for i, d := range domains {
		out[i] = r.Price(d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Median returns the median of sorted prices (lower middle for even
// counts), or 0 for an empty slice.
func Median(sorted []Cents) Cents {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)/2]
}
