package simnet

import (
	"context"
	"net/netip"
)

// The paper's measurements ran from a single vantage point and § V-A
// flags multi-vantage scanning as future work: servers may answer only
// certain source ranges (geo-fencing) or answer differently by source.
// This file adds both halves: per-server source ACLs, and vantage-bound
// transports that stamp a source address on every exchange.

// ACL decides whether a server answers a query from the given source.
type ACL func(src netip.Addr) bool

// AllowPrefix builds an ACL admitting only sources within the prefix.
func AllowPrefix(prefix netip.Prefix) ACL {
	return func(src netip.Addr) bool { return prefix.Contains(src) }
}

// DefaultVantage is the source address used by the plain
// Network.Exchange — the study's single measurement vantage (a
// university network, per § III-B).
var DefaultVantage = netip.MustParseAddr("198.18.0.1")

// SetACL installs a source filter for the server at addr. A nil ACL
// removes the restriction.
func (n *Network) SetACL(addr netip.Addr, acl ACL) {
	n.update(addr, func(ep *endpoint) { ep.acl = acl })
}

// Vantage is a transport bound to a source address; exchanges are
// subject to server ACLs.
type Vantage struct {
	net *Network
	src netip.Addr
}

// Vantage returns a transport that sends from src.
func (n *Network) Vantage(src netip.Addr) *Vantage {
	return &Vantage{net: n, src: src}
}

// Source returns the vantage's source address.
func (v *Vantage) Source() netip.Addr { return v.src }

// Exchange implements the resolver transport from this vantage.
func (v *Vantage) Exchange(ctx context.Context, addr netip.Addr, query []byte) ([]byte, error) {
	return v.net.exchangeFrom(ctx, v.src, addr, query)
}

// ReleaseResponse returns a response Exchange lent to the packet pool.
func (v *Vantage) ReleaseResponse(buf []byte) { v.net.ReleaseResponse(buf) }
