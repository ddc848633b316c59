// Package providers identifies third-party DNS service providers from
// nameserver hostnames, as § IV-B of the paper does: a regex for
// Amazon's generated nameserver names and suffix matching on well-known
// provider domains.
// It also implements the paper's grouping of related nameserver domains
// (AWS DNS, Azure DNS, Hostgator) used in Tables II and III.
package providers

import (
	"regexp"
	"strings"

	"govdns/internal/dnsname"
)

// Provider is one DNS service provider.
type Provider struct {
	// Key is the stable identifier used in analyses ("amazon").
	Key string
	// Display is the label used in reports ("AWS DNS").
	Display string
	// Major marks the providers in the paper's Table II (providers
	// popular among the Alexa Top 1M).
	Major bool
	// domains are nameserver-domain suffixes owned by the provider.
	domains []dnsname.Name
	// pattern optionally matches full NS hostnames (Amazon's generated
	// names span hundreds of domains and need a regex).
	pattern *regexp.Regexp
}

// Catalog is an ordered provider list; earlier entries win ties.
type Catalog struct {
	providers []*Provider
	suffixes  *dnsname.SuffixSet
	// byDomain maps each provider domain to the index of the first
	// provider listing it, and patterned lists the indices of the
	// providers that also match by regexp: together they let Identify
	// look a hostname's ancestors up instead of trying every provider.
	byDomain  map[dnsname.Name]int
	patterned []int
}

func newCatalog(list []*Provider, suffixes *dnsname.SuffixSet) *Catalog {
	c := &Catalog{providers: list, suffixes: suffixes, byDomain: make(map[dnsname.Name]int)}
	for i, p := range list {
		for _, d := range p.domains {
			if _, taken := c.byDomain[d]; !taken {
				c.byDomain[d] = i
			}
		}
		if p.pattern != nil {
			c.patterned = append(c.patterned, i)
		}
	}
	return c
}

// amazonPattern matches Route 53's generated nameservers, e.g.
// ns-123.awsdns-45.com / .net / .org / .co.uk.
var amazonPattern = regexp.MustCompile(`^ns-\d+\.awsdns-\d+\.(com|net|org|co\.uk)\.$`)

// azurePattern matches Azure DNS nameservers, e.g. ns1-07.azure-dns.com.
var azurePattern = regexp.MustCompile(`^ns\d-\d+\.azure-dns\.(com|net|org|info)\.$`)

func names(raw ...string) []dnsname.Name {
	out := make([]dnsname.Name, len(raw))
	for i, r := range raw {
		out[i] = dnsname.MustParse(r)
	}
	return out
}

// Default returns the study's provider catalog: the major providers of
// Table II, the additional top-by-country providers of Table III, and the
// country-local providers called out in § IV-A (gov.cn's hichina,
// xincache, dns-diy).
func Default() *Catalog {
	return newCatalog(
		[]*Provider{
			{Key: "amazon", Display: "AWS DNS", Major: true, pattern: amazonPattern,
				domains: names("awsdns-hostmaster.amazon.com")},
			{Key: "azure", Display: "Azure DNS", Major: true, pattern: azurePattern,
				domains: names("azure-dns.com", "azure-dns.net", "azure-dns.org", "azure-dns.info")},
			{Key: "cloudflare", Display: "cloudflare.com", Major: true,
				domains: names("cloudflare.com")},
			{Key: "dnspod", Display: "DNSPod", Major: true,
				domains: names("dnspod.net", "dnspod.com")},
			{Key: "dnsmadeeasy", Display: "DNSMadeEasy", Major: true,
				domains: names("dnsmadeeasy.com")},
			{Key: "dyn", Display: "Dyn", Major: true,
				domains: names("dynect.net", "dyn.com")},
			{Key: "godaddy", Display: "domaincontrol.com", Major: true,
				domains: names("domaincontrol.com")},
			{Key: "ultradns", Display: "UltraDNS", Major: true,
				domains: names("ultradns.net", "ultradns.org", "ultradns.info", "ultradns.biz")},

			{Key: "hostgator", Display: "Hostgator",
				domains: names("hostgator.com", "hostgator.com.br", "hostgator.mx")},
			{Key: "websitewelcome", Display: "websitewelcome.com",
				domains: names("websitewelcome.com")},
			{Key: "bluehost", Display: "bluehost.com", domains: names("bluehost.com")},
			{Key: "dreamhost", Display: "dreamhost.com", domains: names("dreamhost.com")},
			{Key: "zoneedit", Display: "zoneedit.com", domains: names("zoneedit.com")},
			{Key: "ixwebhosting", Display: "ixwebhosting.com", domains: names("ixwebhosting.com")},
			{Key: "hostmonster", Display: "hostmonster.com", domains: names("hostmonster.com")},
			{Key: "everydns", Display: "everydns.net", domains: names("everydns.net")},
			{Key: "pipedns", Display: "pipedns.com", domains: names("pipedns.com")},
			{Key: "stabletransit", Display: "stabletransit.com", domains: names("stabletransit.com")},
			{Key: "digitalocean", Display: "digitalocean.com", domains: names("digitalocean.com")},
			{Key: "microsoftonline", Display: "microsoftonline.com", domains: names("microsoftonline.com")},
			{Key: "wixdns", Display: "wixdns.net", domains: names("wixdns.net")},
			{Key: "cloudns", Display: "cloudns.net", domains: names("cloudns.net")},

			{Key: "hichina", Display: "hichina.com", domains: names("hichina.com")},
			{Key: "xincache", Display: "xincache.com", domains: names("xincache.com", "xincache.cn")},
			{Key: "dnsdiy", Display: "dns-diy.com", domains: names("dns-diy.com", "dns-diy.net")},

			{Key: "ovh", Display: "ovh.net", domains: names("ovh.net")},
			{Key: "gandi", Display: "gandi.net", domains: names("gandi.net")},
			{Key: "he", Display: "he.net", domains: names("he.net")},
			{Key: "nsone", Display: "nsone.net", domains: names("nsone.net")},
			{Key: "akamai", Display: "akam.net", domains: names("akam.net")},
			{Key: "worldnic", Display: "worldnic.com", domains: names("worldnic.com")},
			{Key: "uidns", Display: "ui-dns.com", domains: names("ui-dns.com", "ui-dns.org")},
		},
		dnsname.NewSuffixSet(
			"com", "net", "org", "info", "biz",
			"com.br", "net.br", "com.mx", "com.tr", "co.uk", "org.uk",
			"com.au", "net.au", "co.in", "net.in", "com.cn", "net.cn",
			"com.ua", "com.ar", "co.th", "in.th", "co.za", "com.sg",
		),
	)
}

// Major returns the Table II providers.
func (c *Catalog) Major() []*Provider {
	var out []*Provider
	for _, p := range c.providers {
		if p.Major {
			out = append(out, p)
		}
	}
	return out
}

// Identify returns the provider owning the NS hostname, if known.
//
// The answer is the first provider in catalog order whose pattern
// matches the host or one of whose domains is a strict ancestor of it.
// A provider domain matches when it is a strict ancestor of the
// host, so those are found by walking the host's ancestors; only the
// providers with a regexp, and only those listed before the best
// ancestor match, still have to be tried one by one.
func (c *Catalog) Identify(host dnsname.Name) (*Provider, bool) {
	best := len(c.providers)
	// The walk ends where Parent stops moving: at the root, or at the
	// last label of a name written without its trailing dot.
	for d, child := host.Parent(), host; d != child; d, child = d.Parent(), d {
		if i, ok := c.byDomain[d]; ok && i < best {
			best = i
		}
	}
	for _, i := range c.patterned {
		if i >= best {
			break
		}
		if c.providers[i].pattern.MatchString(string(host)) {
			best = i
			break
		}
	}
	if best == len(c.providers) {
		return nil, false
	}
	return c.providers[best], true
}

// GroupLabel returns the paper's Table III row label for a nameserver
// hostname: known grouped providers (AWS, Azure, Hostgator) map to their
// group label, other known providers to their display name, and unknown
// hosts to the registered domain of the hostname. The final return value
// reports whether the host matched a known provider.
func (c *Catalog) GroupLabel(host dnsname.Name) (string, bool) {
	if p, ok := c.Identify(host); ok {
		return p.Display, true
	}
	if reg, ok := c.suffixes.RegisteredDomain(host); ok {
		return strings.TrimSuffix(reg.String(), "."), false
	}
	return strings.TrimSuffix(host.String(), "."), false
}
