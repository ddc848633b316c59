// Package authserver implements an authoritative DNS nameserver over the
// zone model. A server hosts any number of zones and answers wire-format
// queries with RFC 1034 semantics: authoritative answers, referrals with
// glue, NXDOMAIN/NODATA with SOA, and REFUSED for zones it does not host.
//
// Servers also model the failure behaviours the study measures in the
// wild: unresponsive hosts (lame delegations), servers still serving
// stale zone copies, and parking services that answer every query with
// their own addresses. A server that no longer hosts a zone answers
// REFUSED like any query outside its zones.
package authserver

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/zone"
)

// Behavior describes how a server treats queries.
type Behavior int

// Server behaviours observed (and injected) by the study.
const (
	// BehaviorHealthy answers normally from hosted zones.
	BehaviorHealthy Behavior = iota + 1
	// BehaviorUnresponsive drops every query (no response at all). This
	// is the signature of a fully lame nameserver.
	BehaviorUnresponsive
	// BehaviorParking answers *any* query authoritatively with the
	// parking target address, the behaviour of expired-domain parking
	// services that make dangling NS records exploitable.
	BehaviorParking
)

// String returns a short mnemonic for b.
func (b Behavior) String() string {
	switch b {
	case BehaviorHealthy:
		return "healthy"
	case BehaviorUnresponsive:
		return "unresponsive"
	case BehaviorParking:
		return "parking"
	default:
		return fmt.Sprintf("behavior(%d)", int(b))
	}
}

// Server is one authoritative nameserver instance.
type Server struct {
	// Hostname is the NS-record name this server is known by, for
	// diagnostics; routing happens by address in the simulated network.
	Hostname dnsname.Name

	mu          sync.RWMutex
	behavior    Behavior
	zones       map[dnsname.Name]*zone.Zone
	parkingAddr netip.Addr
	pool        *dnswire.Pool
	cache       *ResponseCache
	ednsBufSize uint16
}

// New creates a healthy server with no zones, no response cache, and the
// default EDNS0 buffer cap.
func New(hostname dnsname.Name) *Server {
	return &Server{
		Hostname:    hostname,
		behavior:    BehaviorHealthy,
		zones:       make(map[dnsname.Name]*zone.Zone),
		ednsBufSize: dnswire.DefaultEDNSBufSize,
	}
}

// SetCache installs (or, with nil, removes) a response cache. A cache
// may be shared between servers; keys never collide across zones because
// they carry the full qname.
func (s *Server) SetCache(c *ResponseCache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = c
}

// Cache returns the installed response cache, nil when caching is off.
func (s *Server) Cache() *ResponseCache {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cache
}

// SetEDNSBufSize sets the server's EDNS0 payload cap: the size it
// advertises in echoed OPT records and the ceiling it clamps client
// advertisements to. Values below the classic 512-byte limit are raised
// to it — EDNS0 can only extend the protocol floor.
func (s *Server) SetEDNSBufSize(n uint16) {
	if n < dnswire.MaxUDPPayload {
		n = dnswire.MaxUDPPayload
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ednsBufSize = n
}

// SetBehavior switches the server's failure behaviour.
func (s *Server) SetBehavior(b Behavior) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.behavior = b
}

// Behavior returns the current behaviour.
func (s *Server) Behavior() Behavior {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.behavior
}

// SetParkingTarget sets the address returned for every query under
// BehaviorParking.
func (s *Server) SetParkingTarget(addr netip.Addr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parkingAddr = addr
}

// AddZone makes the server authoritative for z. Adding a zone with an
// origin already hosted atomically replaces the previous copy — the
// mechanism AXFR-synced secondaries (SyncZone) use to install a fetched
// zone, and what tests use to model stale replicas by installing an
// older copy. A replacement also empties the server's response cache,
// which keys responses by question alone: replacement is rare, and the
// replaced zone's answers must not be served until their TTLs run out.
func (s *Server) AddZone(z *zone.Zone) {
	s.mu.Lock()
	_, replaced := s.zones[z.Origin()]
	s.zones[z.Origin()] = z
	cache := s.cache
	s.mu.Unlock()
	if replaced && cache != nil {
		cache.purge()
	}
}

// ZoneByOrigin returns the hosted zone with exactly the given origin.
func (s *Server) ZoneByOrigin(origin dnsname.Name) (*zone.Zone, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	z, ok := s.zones[origin]
	return z, ok
}

// Zones returns the origins this server is authoritative for.
func (s *Server) Zones() []dnsname.Name {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]dnsname.Name, 0, len(s.zones))
	for origin := range s.zones {
		out = append(out, origin)
	}
	return out
}

// zoneFor returns the hosted zone with the deepest origin at or above
// name. It walks the name's ancestors so the cost is O(labels), not
// O(zones) — shared servers host thousands of zones.
func (s *Server) zoneFor(name dnsname.Name) (*zone.Zone, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for cur := name; ; cur = cur.Parent() {
		if z, ok := s.zones[cur]; ok {
			return z, true
		}
		if cur.IsRoot() {
			return nil, false
		}
	}
}

// respond fills the pre-built (empty, headers-only) response for query
// and returns it, or nil when the behaviour drops the query. The zone's
// records are appended to buf, so the sections live wherever buf does.
// Splitting construction from logic lets HandleWireAppend build the
// response in a codec arena — slot and sections.
func (s *Server) respond(query, resp *dnswire.Message, buf []dnswire.RR) *dnswire.Message {
	s.mu.RLock()
	behavior := s.behavior
	parking := s.parkingAddr
	s.mu.RUnlock()

	switch behavior {
	case BehaviorUnresponsive:
		return nil
	case BehaviorParking:
		return s.parkingResponse(query, resp, parking)
	}

	// Decision table for a healthy server. Each query lands in exactly
	// one row, checked top to bottom:
	//
	//	condition                       | RCODE    | AA | sections
	//	--------------------------------+----------+----+---------------------------
	//	!=1 question / opcode != QUERY  | NOTIMP   |  0 | empty
	//	class != IN                     | NOTIMP   |  0 | empty
	//	qtype == AXFR (this path = UDP) | REFUSED  |  0 | empty (transfers are
	//	                                |          |    | TCP-only; see xfr.go)
	//	no hosted zone covers qname     | REFUSED  |  0 | empty (not authoritative)
	//	name in a delegated subtree     | NOERROR  |  0 | authority: child NS;
	//	                                |          |    | additional: glue (referral)
	//	name+type exist                 | NOERROR  |  1 | answer: RRset;
	//	                                |          |    | additional: A glue for NS/MX
	//	name exists, type doesn't       | NOERROR  |  1 | authority: SOA (NODATA)
	//	name doesn't exist              | NXDOMAIN |  1 | authority: SOA
	if len(query.Questions) != 1 || query.Header.Opcode != dnswire.OpcodeQuery {
		resp.Header.RCode = dnswire.RCodeNotImp
		return resp
	}
	q := query.Question()
	if q.Class != dnswire.ClassIN {
		resp.Header.RCode = dnswire.RCodeNotImp
		return resp
	}
	if q.Type == dnswire.TypeAXFR {
		// Zone transfers ride their own TCP streaming path (serveAXFR);
		// an AXFR arriving here came over UDP or out of band.
		resp.Header.RCode = dnswire.RCodeRefused
		return resp
	}
	z, ok := s.zoneFor(q.Name)
	if !ok {
		resp.Header.RCode = dnswire.RCodeRefused
		return resp
	}

	ans := z.AppendAuthoritative(buf, q.Name, q.Type)
	resp.Answers, resp.Authority, resp.Additional = ans.Records, ans.Authority, ans.Additional
	switch ans.Kind {
	case zone.KindAnswer, zone.KindNoData:
		resp.Header.Authoritative = true
	case zone.KindNXDomain:
		resp.Header.Authoritative = true
		resp.Header.RCode = dnswire.RCodeNXDomain
	}
	return resp
}

// parkingResponse fabricates an authoritative answer pointing every name
// at the parking address. NS queries are answered with the parking
// server's own hostname, which is how hijacked resolutions propagate.
func (s *Server) parkingResponse(query, resp *dnswire.Message, parking netip.Addr) *dnswire.Message {
	resp.Header.Authoritative = true
	if len(query.Questions) != 1 {
		return resp
	}
	q := query.Question()
	switch q.Type {
	case dnswire.TypeA:
		if parking.IsValid() {
			resp.Answers = []dnswire.RR{{
				Name: q.Name, Class: dnswire.ClassIN, TTL: 300,
				Data: dnswire.AData{Addr: parking},
			}}
		}
	case dnswire.TypeNS:
		resp.Answers = []dnswire.RR{{
			Name: q.Name, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.NSData{Host: s.Hostname},
		}}
	}
	return resp
}

// wirePool supplies the codec arenas every wire-level exchange runs on:
// the query decodes into an arena slot, the response is built in the
// arena's second slot sharing the query's question section, and the
// response encodes into the arena's output buffer before the one copy
// out. One pool for the package; servers share arenas freely.
var wirePool = dnswire.NewPool()

// HandleWire answers a wire-format query over the UDP transport class,
// exercising the full codec. A nil return means the query was dropped.
// Undecodable queries produce a FORMERR response when at least the
// 12-byte header was readable, and are dropped otherwise.
func (s *Server) HandleWire(wire []byte) []byte {
	out, ok := s.HandleWireAppend(nil, wire)
	if !ok {
		return nil
	}
	return out
}

// HandleWireAppend is HandleWire writing the response into dst
// (extending it as needed) instead of a fresh slice. It reports ok=false
// when the query was dropped. Serving loops that answer one query at a
// time reuse a single response buffer across packets; the codec itself
// runs entirely on a pooled arena.
func (s *Server) HandleWireAppend(dst, wire []byte) (out []byte, ok bool) {
	return s.serveWire(dst, wire, TransportUDP)
}

// payloadLimit is the response size ceiling for one exchange: the full
// 16-bit range over TCP; over UDP the classic 512 bytes, lifted to the
// client's advertised EDNS0 buffer clamped into [512, server cap].
func payloadLimit(tc TransportClass, hasOPT bool, advertised, serverCap uint16) int {
	if tc == TransportTCP {
		return dnswire.MaxTCPPayload
	}
	if !hasOPT {
		return dnswire.MaxUDPPayload
	}
	limit := min(advertised, serverCap)
	return int(max(limit, dnswire.MaxUDPPayload))
}

// serveWire is the transport-independent serving pipeline:
//
//	decode → negotiate EDNS0 → consult cache → render → size-bounded encode
//
// The decoded query borrows a pooled arena for the whole exchange; the
// response is built in the arena's second message slot and encoded into
// the arena's output buffer, so the only copy is the final append into
// dst. Cached exchanges skip render+encode entirely: the stored template
// is appended and its ID bytes and RD bit patched, which by construction
// yields the exact bytes the uncached path would have produced.
func (s *Server) serveWire(dst, wire []byte, tc TransportClass) (out []byte, ok bool) {
	s.mu.RLock()
	pool := s.pool
	cache := s.cache
	serverCap := s.ednsBufSize
	behavior := s.behavior
	s.mu.RUnlock()
	if pool == nil {
		pool = wirePool
	}

	a := pool.Get()
	defer a.Finish()
	query, err := a.Decode(wire)
	if err != nil {
		if len(wire) < 12 {
			return dst, false
		}
		var resp dnswire.Message
		resp.Header.ID = uint16(wire[0])<<8 | uint16(wire[1])
		resp.Header.Response = true
		resp.Header.RCode = dnswire.RCodeFormErr
		enc, err := a.Encode(&resp)
		if err != nil {
			return dst, false
		}
		return append(dst, enc...), true
	}

	advertised, hasOPT := query.EDNS()
	limit := payloadLimit(tc, hasOPT, advertised, serverCap)

	// Cacheable: a healthy server answering an ordinary single-question
	// IN query. Parking answers, multi-question oddities, and meta qtypes
	// render fresh every time — they are cheap, rare, or (AXFR) never
	// answered on this path at all.
	if cache != nil && behavior == BehaviorHealthy &&
		len(query.Questions) == 1 && query.Header.Opcode == dnswire.OpcodeQuery {
		q := query.Question()
		if q.Class == dnswire.ClassIN && q.Type != dnswire.TypeAXFR {
			key := cacheKey{
				name:  q.Name,
				qtype: q.Type,
				class: tc,
				limit: uint16(limit),
				opt:   hasOPT,
			}
			// get before do: the hit path must not construct the render
			// closure, or every cached exchange would allocate it.
			tmpl := cache.get(key)
			if tmpl == nil {
				tmpl, _ = cache.do(key, func() ([]byte, time.Duration) {
					return s.renderTemplate(a, query, hasOPT, serverCap, limit)
				})
			}
			if tmpl != nil {
				return appendPatched(dst, tmpl, query.Header.ID, query.Header.RecursionDesired), true
			}
			return dst, false
		}
	}

	resp := s.respond(query, a.NewResponse(query), a.RRBuf())
	if resp == nil {
		return dst, false
	}
	if hasOPT {
		appendOPT(resp, serverCap)
	}
	enc, err := a.EncodeLimit(resp, limit)
	if err != nil {
		// Encoding our own response should never fail; drop the query
		// rather than panic in a server loop.
		return dst, false
	}
	return append(dst, enc...), true
}

// renderTemplate renders the cacheable form of the response to query:
// encoded with ID zero and the RD bit clear — the only bytes that vary
// between queries sharing a cache key — and copied off the arena so the
// template owns its storage. ttl==0 marks the render uncacheable.
func (s *Server) renderTemplate(a *dnswire.Arena, query *dnswire.Message, hasOPT bool, serverCap uint16, limit int) (template []byte, ttl time.Duration) {
	resp := s.respond(query, a.NewResponse(query), a.RRBuf())
	if resp == nil {
		return nil, 0
	}
	resp.Header.ID = 0
	resp.Header.RecursionDesired = false
	if hasOPT {
		appendOPT(resp, serverCap)
	}
	enc, err := a.EncodeLimit(resp, limit)
	if err != nil {
		return nil, 0
	}
	return append([]byte(nil), enc...), minResponseTTL(resp)
}

// appendOPT echoes an EDNS0 OPT record advertising the server's own
// payload cap. Every section respond builds is capped
// (zone.AppendAuthoritative), so the append copies rather than write
// into a record that follows.
func appendOPT(resp *dnswire.Message, serverCap uint16) {
	resp.Additional = append(resp.Additional, dnswire.OPTRecord(serverCap))
}

// appendPatched appends a cached template to dst and patches in the
// query's transaction ID (bytes 0-1) and RD bit (byte 2, bit 0). The
// template was rendered with both zeroed, so OR-ing the bit suffices.
func appendPatched(dst, template []byte, id uint16, rd bool) []byte {
	base := len(dst)
	out := append(dst, template...)
	out[base] = byte(id >> 8)
	out[base+1] = byte(id)
	if rd {
		out[base+2] |= 0x01
	}
	return out
}
