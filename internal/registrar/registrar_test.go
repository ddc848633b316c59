package registrar

import (
	"fmt"
	"testing"

	"govdns/internal/dnsname"
)

func TestAvailability(t *testing.T) {
	r := New(dnsname.NewSuffixSet("gov.br", "gov.cn"))
	r.MarkRegistered("provider.com.")

	if r.Available("provider.com.") {
		t.Error("registered domain reported available")
	}
	if !r.Available("gone-provider.com.") {
		t.Error("unregistered domain reported unavailable")
	}
	if r.Available("anything.gov.br.") {
		t.Error("domain under restricted suffix reported available")
	}
	if r.Available("gov.br.") {
		t.Error("restricted suffix itself reported available")
	}
}

func TestPriceDeterministic(t *testing.T) {
	r := New(nil)
	a := r.Price("example.com.")
	b := r.Price("example.com.")
	if a != b {
		t.Errorf("Price not deterministic: %v vs %v", a, b)
	}
	r2 := New(nil)
	r2.SetPriceSalt(99)
	// With a different salt the landscape differs for at least some
	// domains (check several to avoid a coincidental equal price).
	diff := false
	for i := 0; i < 50; i++ {
		d := dnsname.MustParse(fmt.Sprintf("domain%d.com", i))
		if r.Price(d) != r2.Price(d) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("salt has no effect on prices")
	}
}

func TestPriceDistributionShape(t *testing.T) {
	// The paper reports prices from 0.01 to 20,000 USD with a median of
	// 11.99. Check the model's shape over a large sample.
	r := New(nil)
	var domains []dnsname.Name
	for i := 0; i < 5000; i++ {
		domains = append(domains, dnsname.MustParse(fmt.Sprintf("ns-domain-%d.com", i)))
	}
	prices := r.Quote(domains)

	if prices[0] < MinPriceCents {
		t.Errorf("min price %v below floor", prices[0])
	}
	if prices[len(prices)-1] > 2_000_000 { // the paper's 20,000 USD
		t.Errorf("max price %v above cap", prices[len(prices)-1])
	}
	med := Median(prices)
	if med < 900 || med > 1400 {
		t.Errorf("median = %v, want near 11.99 USD", med)
	}
	// A visible premium tail must exist (paper: up to 20,000 USD).
	if prices[len(prices)-1] < 100_000 {
		t.Errorf("no premium tail: max %v", prices[len(prices)-1])
	}
	// But premium prices must be rare (<10%).
	premium := 0
	for _, p := range prices {
		if p >= 10_000 {
			premium++
		}
	}
	if frac := float64(premium) / float64(len(prices)); frac > 0.10 {
		t.Errorf("premium fraction = %.2f, want < 0.10", frac)
	}
}

func TestQuoteSorted(t *testing.T) {
	r := New(nil)
	prices := r.Quote([]dnsname.Name{"a.com.", "b.com.", "c.com.", "d.com."})
	for i := 1; i < len(prices); i++ {
		if prices[i] < prices[i-1] {
			t.Fatalf("Quote not sorted: %v", prices)
		}
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Error("Median(nil) != 0")
	}
	if Median([]Cents{5}) != 5 {
		t.Error("Median single")
	}
	if Median([]Cents{1, 2, 3}) != 2 {
		t.Error("Median odd")
	}
	if Median([]Cents{1, 2, 3, 4}) != 2 {
		t.Error("Median even (lower middle)")
	}
}

func TestCentsFormatting(t *testing.T) {
	if Cents(1199).String() != "11.99 USD" {
		t.Errorf("String = %q", Cents(1199).String())
	}
	if Cents(1199).Dollars() != 11.99 {
		t.Errorf("Dollars = %v", Cents(1199).Dollars())
	}
}
