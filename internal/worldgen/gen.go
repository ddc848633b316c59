// Package worldgen generates the synthetic world the study measures: a
// longitudinal population of government domains for 193 countries
// (2011-2020) with calibrated deployment strategies, provider adoption
// trends, and misconfigurations; a passive-DNS history of that
// population; and an "active" simulated Internet (zones, servers,
// topology) frozen at scan time (April 2021).
//
// Generation is deterministic: the same Config yields the same world.
package worldgen

import (
	"fmt"
	"math/rand"
	"sync"

	"govdns/internal/dnsname"
	"govdns/internal/pdns"
)

// Config controls generation.
type Config struct {
	// Seed drives every random choice.
	Seed int64
	// Scale multiplies all country weights. 1.0 reproduces the paper's
	// magnitudes (~190k PDNS domains); the default 0.1 keeps test and
	// example runs fast while preserving every rate.
	Scale float64
	// StartYear and EndYear bound the PDNS study period (inclusive).
	// Zero values default to 2011 and 2020.
	StartYear, EndYear int
	// HijackEvents injects that many historical hijacking episodes into
	// the PDNS record: for a couple of weeks a domain's NS records point
	// at attacker infrastructure, then revert. Zero disables injection
	// (the default); the § V-A forensics analysis hunts for these.
	HijackEvents int
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if c.StartYear == 0 {
		c.StartYear = 2011
	}
	if c.EndYear == 0 {
		c.EndYear = 2020
	}
	return c
}

// HostingKind classifies how a domain's authoritative DNS is operated.
type HostingKind int

// Hosting kinds.
const (
	// HostPrivate means dedicated in-domain nameservers
	// (ns1.<domain>).
	HostPrivate HostingKind = iota + 1
	// HostCentral means the government's shared central nameservers
	// (ns1.<d_gov>).
	HostCentral
	// HostLocal means a country-local hosting company outside the
	// provider catalog.
	HostLocal
	// HostGlobal means a provider from the global catalog.
	HostGlobal
)

// Assignment is a domain's nameserver configuration during a span.
type Assignment struct {
	Kind HostingKind
	// Provider is the catalog key (HostGlobal) or hoster domain string
	// (HostLocal); empty otherwise.
	Provider string
	// NS are the delegated nameserver hostnames.
	NS []dnsname.Name
	// Mixed marks provider-hosted domains that kept one extra private
	// nameserver (these are not d_1P).
	Mixed bool
}

// Span is an assignment over [FromYear, ToYear], inclusive.
type Span struct {
	FromYear, ToYear int
	A                Assignment
}

// Condition is the misconfiguration state of a domain at scan time.
type Condition int

// Conditions observed by the active scan.
const (
	// CondHealthy domains answer consistently from every server.
	CondHealthy Condition = iota + 1
	// CondStaleDelegation: the domain is dead but its delegation
	// remains in the parent — a fully defective delegation.
	CondStaleDelegation
	// CondPartialLameShared: a shared nameserver (central or hoster) is
	// dead, breaking many domains at once.
	CondPartialLameShared
	// CondPartialLameOwn: one of the domain's dedicated nameservers is
	// dead.
	CondPartialLameOwn
	// CondTypo: the parent lists a typo'd nameserver hostname whose
	// (unregistered) domain does not exist.
	CondTypo
	// CondInconsistentExtraChild: the child zone lists an extra
	// nameserver the parent lacks (C ⊃ P).
	CondInconsistentExtraChild
	// CondInconsistentExtraParent: the parent lists an extra nameserver
	// the child zone dropped (P ⊃ C). The forgotten server still answers,
	// serving the current child zone, so the delegation is not lame.
	CondInconsistentExtraParent
	// CondInconsistentDisjoint: the domain migrated providers and the
	// parent was never updated (P ∩ C = ∅). The old servers still answer,
	// serving the current child zone, which lists the new set.
	CondInconsistentDisjoint
	// CondDangling: a nameserver lies under an expired, registrable
	// domain.
	CondDangling
	// CondParked: the parent lists a nameserver under an expired domain
	// now owned by a parking service that answers everything.
	CondParked
)

// String returns a short mnemonic for the condition.
func (c Condition) String() string {
	switch c {
	case CondHealthy:
		return "healthy"
	case CondStaleDelegation:
		return "stale"
	case CondPartialLameShared:
		return "partial-shared"
	case CondPartialLameOwn:
		return "partial-own"
	case CondTypo:
		return "typo"
	case CondInconsistentExtraChild:
		return "inc-extra-child"
	case CondInconsistentExtraParent:
		return "inc-extra-parent"
	case CondInconsistentDisjoint:
		return "inc-disjoint"
	case CondDangling:
		return "dangling"
	case CondParked:
		return "parked"
	default:
		return fmt.Sprintf("condition(%d)", int(c))
	}
}

// DiversityClass pins the Table I outcome for a multi-NS domain.
type DiversityClass int

// Diversity classes.
const (
	// DivSameIP: all nameservers resolve to one address.
	DivSameIP DiversityClass = iota + 1
	// DivSame24: multiple addresses within one /24.
	DivSame24
	// DivMulti24: multiple /24 prefixes, one AS.
	DivMulti24
	// DivMultiASN: multiple autonomous systems.
	DivMultiASN
)

// Domain is one government domain's full history.
type Domain struct {
	Name       dnsname.Name
	CountryIdx int
	Level      int
	// Born and Died are years; Died == 0 means alive at scan time.
	Born, Died int
	// Spans is the assignment history, contiguous and ordered.
	Spans []Span
	// SingleNS marks d_1NS domains.
	SingleNS bool
	// Cond is the scan-time condition (only meaningful if the domain is
	// alive or stale-delegated).
	Cond Condition
	// Div is the effective diversity class (multi-NS domains only);
	// provider migrations override it. DrawnDiv preserves the original
	// draw so a domain returning to local hosting recovers its class.
	Div      DiversityClass
	DrawnDiv DiversityClass
	// ProviderEligible marks locally-hosted domains that may be
	// recruited by the global-provider calibration, drawn per the
	// country's GlobalProviderShare.
	ProviderEligible bool
	// DanglingDomain is the expired registrable domain involved for
	// CondTypo/CondDangling/CondParked.
	DanglingDomain dnsname.Name
}

// Final returns the last assignment.
func (d *Domain) Final() Assignment {
	return d.Spans[len(d.Spans)-1].A
}

// AliveIn reports whether the domain existed during year y.
func (d *Domain) AliveIn(y int) bool {
	if y < d.Born {
		return false
	}
	return d.Died == 0 || y <= d.Died
}

// DelegatedAtScan reports whether the parent zone still delegates the
// domain at scan time: every living domain, plus stale delegations.
func (d *Domain) DelegatedAtScan() bool {
	return d.Died == 0 || d.Cond == CondStaleDelegation
}

// HijackEvent is one injected historical hijacking episode: ground truth
// for the § V-A forensics analysis.
type HijackEvent struct {
	// Domain is the victim.
	Domain dnsname.Name
	// AttackerDomain is the registered domain of the attacker's
	// nameservers.
	AttackerDomain dnsname.Name
	// From and To bound the takeover window.
	From, To pdns.Day
}

// World is the generated dataset before the active network is built.
type World struct {
	Cfg       Config
	Countries []Country
	Profiles  []Profile
	Domains   []*Domain
	PDNS      *pdns.Store
	// Hosters lists each country's local hosting companies.
	Hosters map[int][]localHoster
	// GhostNames are PDNS-visible names under stale delegations; their
	// parent zones never answer, reproducing the paper's
	// query-list-vs-responsive gap.
	GhostNames []dnsname.Name
	// SharedDangling are per-country expired hoster domains reused by
	// several dangling domains.
	SharedDangling map[int][]dnsname.Name
	// Hijacks is the ground truth for injected hijacking episodes.
	Hijacks []HijackEvent

	marketMu    sync.Mutex
	marketCache map[string][]int
}

// Generate builds the longitudinal world and its PDNS history.
func Generate(cfg Config) *World {
	cfg = cfg.withDefaults()
	countries := Countries()
	w := &World{
		Cfg:            cfg,
		Countries:      countries,
		Profiles:       make([]Profile, len(countries)),
		PDNS:           pdns.NewStore(),
		Hosters:        make(map[int][]localHoster, len(countries)),
		SharedDangling: make(map[int][]dnsname.Name, len(countries)),
	}
	for i, country := range countries {
		w.Profiles[i] = profileFor(country)
	}

	// Per-country population simulation.
	for i := range countries {
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(i)<<20 ^ 0x9e3779b9))
		w.Hosters[i] = localHostersFor(countries[i], rng)
		w.generateCountry(i, rng)
	}

	// Global provider-share calibration, year by year.
	w.calibrateProviders()

	// Scan-time conditions and dangling infrastructure.
	for i := range countries {
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(i)<<20 ^ 0x51f15e4d))
		w.assignConditions(i, rng)
	}

	// Realize shared infrastructure per diversity class, then emit the
	// PDNS history from the final histories.
	w.normalizeInfra()
	w.emitPDNS()
	return w
}

// yearIndex converts a calendar year to an index into Growth.
func (w *World) yearIndex(y int) int { return y - w.Cfg.StartYear }

// t01 maps a year into [0,1] across the study period.
func (w *World) t01(y int) float64 {
	span := w.Cfg.EndYear - w.Cfg.StartYear
	if span == 0 {
		return 1
	}
	return float64(y-w.Cfg.StartYear) / float64(span)
}

// generateCountry simulates one country's domain population year by
// year: deaths by churn, births to reach the growth target, and sticky
// hosting assignments.
func (w *World) generateCountry(idx int, rng *rand.Rand) {
	country := w.Countries[idx]
	profile := w.Profiles[idx]
	namer := newNamer(country, rng)

	// The country apex (d_gov itself) is a studied domain too: the
	// paper's <1% of second-level domains. It appears in PDNS from the
	// country's first year with any delegated domain, which makes the
	// number of countries with data grow across the decade (Fig. 2).
	firstYear := w.Cfg.EndYear
	for y := w.Cfg.StartYear; y <= w.Cfg.EndYear; y++ {
		if int(float64(country.Weight)*w.Cfg.Scale*profile.Growth[w.yearIndex(y)]) >= 1 {
			firstYear = y
			break
		}
	}
	apex := &Domain{
		Name:       country.Suffix,
		CountryIdx: idx,
		Level:      country.Suffix.Level(),
		Born:       firstYear,
		Cond:       CondHealthy,
		Div:        DivMulti24,
	}
	apex.Spans = []Span{{
		FromYear: firstYear,
		ToYear:   w.Cfg.EndYear,
		A: Assignment{
			Kind: HostCentral,
			NS:   centralNS(country),
		},
	}}
	w.Domains = append(w.Domains, apex)

	var alive []*Domain
	for y := w.Cfg.StartYear; y <= w.Cfg.EndYear; y++ {
		target := int(float64(country.Weight) * w.Cfg.Scale * profile.Growth[w.yearIndex(y)])
		// Deaths.
		var survivors []*Domain
		for _, d := range alive {
			death := profile.ChurnDeath
			if d.SingleNS {
				death = profile.SingleChurnDeath
			}
			if rng.Float64() < death {
				d.Died = y - 1
				d.Spans[len(d.Spans)-1].ToYear = y - 1
				continue
			}
			survivors = append(survivors, d)
		}
		alive = survivors
		// Births up to the target.
		for len(alive) < target {
			d := w.newDomain(idx, y, namer, rng)
			alive = append(alive, d)
			w.Domains = append(w.Domains, d)
		}
		// Extend every survivor's last span through this year.
		for _, d := range alive {
			if last := &d.Spans[len(d.Spans)-1]; last.ToYear < y {
				last.ToYear = y
			}
		}
	}
}

// centralNS returns the country's shared central nameserver pair.
func centralNS(country Country) []dnsname.Name {
	return []dnsname.Name{
		country.Suffix.MustPrepend("ns1"),
		country.Suffix.MustPrepend("ns2"),
	}
}

// newDomain creates a domain born in year y with its initial assignment.
func (w *World) newDomain(idx, y int, namer *namer, rng *rand.Rand) *Domain {
	country := w.Countries[idx]
	profile := w.Profiles[idx]
	name, level := namer.next(profile)

	d := &Domain{
		Name:       name,
		CountryIdx: idx,
		Level:      level,
		Born:       y,
		Cond:       CondHealthy,
	}
	d.SingleNS = rng.Float64() < profile.SingleNSHist
	a := w.drawAssignment(d, country, profile, rng)
	d.Spans = []Span{{FromYear: y, ToYear: y, A: a}}
	if !d.SingleNS {
		d.Div = drawDiversity(profile, rng)
		d.DrawnDiv = d.Div
		d.ProviderEligible = a.Kind == HostLocal && rng.Float64() < profile.GlobalProviderShare
	}
	return d
}

// drawAssignment picks a domain's initial hosting.
func (w *World) drawAssignment(d *Domain, country Country, profile Profile, rng *rand.Rand) Assignment {
	if d.SingleNS {
		if rng.Float64() < profile.SingleNSPrivate {
			return Assignment{Kind: HostPrivate, NS: []dnsname.Name{d.Name.MustPrepend("ns1")}}
		}
		h := w.Hosters[d.CountryIdx][rng.Intn(len(w.Hosters[d.CountryIdx]))]
		return Assignment{Kind: HostLocal, Provider: h.domain.String(), NS: h.ns[:1]}
	}
	if rng.Float64() < profile.PrivateMulti {
		if rng.Float64() < profile.CentralShare {
			return Assignment{Kind: HostCentral, NS: centralNS(country)}
		}
		n := 2
		if rng.Float64() < 0.25 {
			n = 3
		}
		ns := make([]dnsname.Name, 0, n)
		for i := 0; i < n; i++ {
			ns = append(ns, d.Name.MustPrepend(fmt.Sprintf("ns%d", i+1)))
		}
		return Assignment{Kind: HostPrivate, NS: ns}
	}
	// Third party: local hoster initially; the calibration pass promotes
	// domains into global providers to match each year's targets.
	h := w.Hosters[d.CountryIdx][rng.Intn(len(w.Hosters[d.CountryIdx]))]
	return Assignment{Kind: HostLocal, Provider: h.domain.String(), NS: h.ns}
}

// drawDiversity picks the Table I class from profile dials.
func drawDiversity(profile Profile, rng *rand.Rand) DiversityClass {
	if rng.Float64() >= profile.MultiIP {
		return DivSameIP
	}
	if rng.Float64() >= profile.Multi24GivenIP {
		return DivSame24
	}
	if rng.Float64() >= profile.MultiASNGiven24 {
		return DivMulti24
	}
	return DivMultiASN
}
