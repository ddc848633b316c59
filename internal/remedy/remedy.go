// Package remedy implements the remediation approaches the paper's § V-B
// surveys: CSYNC-style child-to-parent synchronization (RFC 7477) for
// inconsistent delegations, removal of stale delegations, and
// registry-lock advisories for domains whose nameservers sit under
// registrable (hijackable) domains.
//
// The workflow mirrors an operator's: scan, propose a plan, apply the
// automatable parts to the parent zones, and re-scan to verify.
package remedy

import (
	"context"
	"fmt"
	"sort"

	"govdns/internal/analysis"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/measure"
	"govdns/internal/registrar"
	"govdns/internal/resolver"
	"govdns/internal/worldgen"
	"govdns/internal/zone"
)

// ActionKind classifies a proposed fix.
type ActionKind int

// Remediation actions.
const (
	// ActionSyncParent replaces the parent's NS set for a domain with
	// the child's authoritative set (the CSYNC model).
	ActionSyncParent ActionKind = iota + 1
	// ActionRemoveStale deletes the delegation of a domain whose
	// nameservers no longer answer at all — the stale records behind
	// fully defective delegations.
	ActionRemoveStale
	// ActionRegistryLock is advisory: the domain's delegation involves
	// a registrable nameserver domain, so automated changes must be
	// suspended and the registration risk handled by a human (the
	// registry-lock recommendation of § V-B).
	ActionRegistryLock
)

// String returns the action mnemonic.
func (k ActionKind) String() string {
	switch k {
	case ActionSyncParent:
		return "sync-parent"
	case ActionRemoveStale:
		return "remove-stale"
	case ActionRegistryLock:
		return "registry-lock"
	default:
		return fmt.Sprintf("action(%d)", int(k))
	}
}

// Action is one proposed fix for one domain.
type Action struct {
	Kind   ActionKind
	Domain dnsname.Name
	// NewNS is the replacement parent NS set (ActionSyncParent).
	NewNS []dnsname.Name
	// Reason is a human-readable justification.
	Reason string
	// NSDomains lists the registrable nameserver domains involved
	// (ActionRegistryLock).
	NSDomains []dnsname.Name
}

// Plan is the set of proposed actions.
type Plan struct {
	Actions []Action
}

// Counts tallies the plan by kind.
func (p *Plan) Counts() map[ActionKind]int {
	out := make(map[ActionKind]int)
	for _, a := range p.Actions {
		out[a.Kind]++
	}
	return out
}

// Propose derives a remediation plan from scan results: stale
// delegations are removed, inconsistent-but-responsive delegations are
// synchronized to the child view, and anything involving a registrable
// nameserver domain becomes a registry-lock advisory instead of an
// automated change (automating those would complete the hijack).
func Propose(results []*measure.DomainResult, m *analysis.Mapper, reg *registrar.Registry) *Plan {
	plan := &Plan{}
	for _, r := range results {
		if !r.HasData() {
			continue
		}

		// Registrable nameserver domains anywhere in the delegation?
		var risky []dnsname.Name
		for _, host := range append(append([]dnsname.Name{}, r.ParentNS...), r.ChildNS()...) {
			if m.IsPrivateHost(r.Domain, host) {
				continue
			}
			nsDomain := analysis.NSDomain(host)
			if reg.Available(nsDomain) {
				risky = append(risky, nsDomain)
			}
		}
		if len(risky) > 0 {
			sort.Slice(risky, func(i, j int) bool { return dnsname.Compare(risky[i], risky[j]) < 0 })
			plan.Actions = append(plan.Actions, Action{
				Kind:      ActionRegistryLock,
				Domain:    r.Domain,
				NSDomains: dedupe(risky),
				Reason:    "delegation references registrable nameserver domains; lock and fix out of band",
			})
			continue
		}

		switch {
		case r.FullyDefective():
			plan.Actions = append(plan.Actions, Action{
				Kind:   ActionRemoveStale,
				Domain: r.Domain,
				Reason: "no delegated nameserver answers; delegation is stale",
			})
		case analysis.Classify(r) != analysis.ClassEqual || r.PartiallyDefective():
			child := r.ChildNS()
			if len(child) == 0 {
				continue
			}
			plan.Actions = append(plan.Actions, Action{
				Kind:   ActionSyncParent,
				Domain: r.Domain,
				NewNS:  child,
				Reason: "parent NS set differs from the child's authoritative set",
			})
		}
	}
	return plan
}

func dedupe(names []dnsname.Name) []dnsname.Name {
	out := names[:0]
	var prev dnsname.Name
	for i, n := range names {
		if i == 0 || n != prev {
			out = append(out, n)
		}
		prev = n
	}
	return out
}

// Applier executes a plan against the active world's parent zones.
type Applier struct {
	// Active is the world to fix.
	Active *worldgen.Active
	// Client queries children for CSYNC records; required for
	// ActionSyncParent.
	Client *resolver.Client
	// Force applies synchronizations even without an immediate-flagged
	// CSYNC record (modelling out-of-band confirmation).
	Force bool
}

// Outcome summarizes an Apply run.
type Outcome struct {
	Applied, NeedsOutOfBand, Advisory, Failed int
}

// Apply executes the plan. Sync actions honour RFC 7477 semantics: the
// child must publish a CSYNC record covering NS, and without the
// immediate flag the change requires out-of-band confirmation (skipped
// unless Force is set). Registry-lock actions are advisory and never
// change zones.
func (ap *Applier) Apply(ctx context.Context, plan *Plan) (*Outcome, error) {
	out := &Outcome{}
	for _, action := range plan.Actions {
		switch action.Kind {
		case ActionRegistryLock:
			out.Advisory++
		case ActionRemoveStale:
			parent, ok := ap.parentOf(action.Domain)
			if !ok {
				out.Failed++
				continue
			}
			parent.Remove(action.Domain, dnswire.TypeNS)
			out.Applied++
		case ActionSyncParent:
			ok, err := ap.syncParent(ctx, action)
			if err != nil {
				out.Failed++
				continue
			}
			if !ok {
				out.NeedsOutOfBand++
				continue
			}
			out.Applied++
		}
	}
	return out, ctx.Err()
}

// parentOf finds the parent zone holding a domain's delegation.
func (ap *Applier) parentOf(domain dnsname.Name) (*zone.Zone, bool) {
	for cur := domain.Parent(); !cur.IsRoot(); cur = cur.Parent() {
		if z, ok := ap.Active.ParentZone(cur); ok {
			return z, true
		}
	}
	return nil, false
}

// syncParent checks the child's CSYNC record and, when allowed, rewrites
// the parent's delegation to the child's NS set (with glue for hosts the
// world knows addresses for).
func (ap *Applier) syncParent(ctx context.Context, action Action) (bool, error) {
	parent, ok := ap.parentOf(action.Domain)
	if !ok {
		return false, fmt.Errorf("remedy: no parent zone for %s", action.Domain)
	}
	if !ap.Force {
		allowed, err := ap.csyncAllows(ctx, action)
		if err != nil || !allowed {
			return false, err
		}
	}

	parent.Remove(action.Domain, dnswire.TypeNS)
	for _, host := range action.NewNS {
		if err := parent.Add(dnswire.RR{
			Name: action.Domain, Class: dnswire.ClassIN, TTL: 3600,
			Data: dnswire.NSData{Host: host},
		}); err != nil {
			return false, err
		}
		if host.IsSubdomainOf(parent.Origin()) {
			for _, addr := range ap.Active.AddrsOf(host) {
				if err := parent.Add(dnswire.RR{
					Name: host, Class: dnswire.ClassIN, TTL: 3600,
					Data: dnswire.AData{Addr: addr},
				}); err != nil {
					return false, err
				}
			}
		}
	}
	return true, nil
}

// csyncAllows queries the child's nameservers for a CSYNC record with
// the immediate flag covering NS.
func (ap *Applier) csyncAllows(ctx context.Context, action Action) (bool, error) {
	a := ap.Client.ArenaPool().Get()
	defer a.Finish()
	for _, host := range action.NewNS {
		for _, addr := range ap.Active.AddrsOf(host) {
			resp, err := ap.Client.QueryArena(ctx, a, addr, action.Domain, dnswire.TypeCSYNC)
			if err != nil {
				continue
			}
			for _, rr := range resp.AnswersOfType(dnswire.TypeCSYNC) {
				csync, ok := rr.Data.(dnswire.CSYNCData)
				if !ok {
					continue
				}
				return csync.Immediate() && csync.Covers(dnswire.TypeNS), nil
			}
			// An authoritative answer without CSYNC means the child
			// does not opt in: out-of-band confirmation required.
			if resp.Header.Authoritative {
				return false, nil
			}
		}
	}
	return false, nil
}
