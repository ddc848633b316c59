// Package simnet provides the in-memory network that carries DNS queries
// between the measurement client and the synthetic authoritative servers.
// Messages cross the network in wire format, so the full codec is
// exercised exactly as it would be over UDP. The network itself is
// instantaneous and lossless: an exchange either reaches a server that
// answers, or — a blackholed address, no server attached, a server
// that drops the query — times out like a UDP query, the raw material
// of lame delegations. Such a timeout costs no wall time when the
// caller's deadline is an attempt's own (deadline.Expire): waiting
// could not change its outcome.
//
// Loss, delay, duplicates, truncation, corrupted IDs and flapping
// servers are injected by wrapping the network with internal/chaos,
// whose schedules are seeded and keyed by query content rather than
// arrival order; it is the repo's one loss/delay model. Simnet therefore
// owns no random source and no timer.
package simnet

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"

	"govdns/internal/authserver"
	"govdns/internal/deadline"
	"govdns/internal/pktbuf"
)

// Network errors.
var (
	// ErrDropped indicates the query was never answered (blackhole, no
	// server, or a server that drops queries).
	ErrDropped = errors.New("simnet: packet dropped")

	// A dropped exchange fails with one of these, by how its context
	// ended: ErrDropped wrapped around the context's error, made once
	// rather than per drop.
	errDroppedDeadline = fmt.Errorf("%w: %v", ErrDropped, context.DeadlineExceeded)
	errDroppedCanceled = fmt.Errorf("%w: %v", ErrDropped, context.Canceled)
)

// endpoint is everything the network knows about one address.
type endpoint struct {
	server     *authserver.Server
	blackholed bool
}

// Network is the simulated Internet. It is safe for concurrent use.
type Network struct {
	mu        sync.RWMutex
	endpoints map[netip.Addr]endpoint
}

// New creates an empty network.
func New() *Network {
	return &Network{endpoints: make(map[netip.Addr]endpoint)}
}

// endpoint returns the record at addr (the zero endpoint when nothing
// was ever configured there).
func (n *Network) endpoint(addr netip.Addr) endpoint {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.endpoints[addr]
}

// update applies f to the record at addr under the write lock.
func (n *Network) update(addr netip.Addr, f func(*endpoint)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := n.endpoints[addr]
	f(&ep)
	n.endpoints[addr] = ep
}

// Attach binds a server to an address. One server may be reachable at
// several addresses (anycast-style), and re-attaching replaces the
// previous binding.
func (n *Network) Attach(addr netip.Addr, s *authserver.Server) {
	n.update(addr, func(ep *endpoint) { ep.server = s })
}

// ServerAt returns the server bound at addr.
func (n *Network) ServerAt(addr netip.Addr) (*authserver.Server, bool) {
	s := n.endpoint(addr).server
	return s, s != nil
}

// NumServers returns the number of bound addresses.
func (n *Network) NumServers() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	bound := 0
	for _, ep := range n.endpoints {
		if ep.server != nil {
			bound++
		}
	}
	return bound
}

// Blackhole makes addr drop all traffic regardless of what is attached,
// modelling a dead host or unreachable network.
func (n *Network) Blackhole(addr netip.Addr) {
	n.update(addr, func(ep *endpoint) { ep.blackholed = true })
}

// Unblackhole restores traffic to addr.
func (n *Network) Unblackhole(addr netip.Addr) {
	n.update(addr, func(ep *endpoint) { ep.blackholed = false })
}

// IsBlackholed reports whether addr currently drops traffic.
func (n *Network) IsBlackholed(addr netip.Addr) bool {
	return n.endpoint(addr).blackholed
}

// waitForTimeout ends ctx's attempt at once if its own deadline binds
// (deadline.Expire), and otherwise blocks until ctx expires, modelling a
// query that will never be answered. Either way it returns the error a
// real timeout would.
func waitForTimeout(ctx context.Context) error {
	deadline.Expire(ctx)
	<-ctx.Done()
	return droppedErr(ctx.Err())
}

// droppedErr is the error of an exchange dropped under a context that
// ended with err.
func droppedErr(err error) error {
	switch err {
	case context.DeadlineExceeded:
		return errDroppedDeadline
	case context.Canceled:
		return errDroppedCanceled
	}
	return fmt.Errorf("%w: %v", ErrDropped, err)
}

// Exchange implements the resolver transport: it sends a wire-format
// query to the server at addr and returns the wire-format response.
// Unanswerable queries (blackholes, unresponsive servers, empty
// addresses) fail as UDP timeouts do, with ctx expired: at once when ctx
// is an attempt deadline whose own deadline binds, else when ctx ends.
//
// The response is lent from the packet pool (internal/pktbuf): the
// caller owns it — wrapping layers such as the chaos transport may
// mutate it in place — and returns it through ReleaseResponse once
// decoded, or leaves it to the GC.
func (n *Network) Exchange(ctx context.Context, addr netip.Addr, query []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ep := n.endpoint(addr)
	if ep.server == nil || ep.blackholed {
		return nil, waitForTimeout(ctx)
	}
	// The server runs the codec on a pooled arena and appends the
	// response to a pooled packet buffer, which the caller now owns. A
	// response too large for it grows onto the heap, and release then
	// leaves it to the GC.
	buf := pktbuf.Get()
	resp, ok := ep.server.HandleWireAppend(buf[:0], query)
	if !ok {
		pktbuf.Put(buf)
		return nil, waitForTimeout(ctx)
	}
	return resp, nil
}

// ReleaseResponse returns a response Exchange lent to the packet pool.
// Implements resolver.ResponseReleaser.
func (n *Network) ReleaseResponse(buf []byte) { pktbuf.Put(buf) }
