// Package udpx is the batched UDP transport for the real-network scan
// path, and the repo's one UDP client. It is the way ZDNS and massdns
// reach ~100k+ QPS on commodity hardware: instead of dialing per
// exchange (a fresh connected socket, a connect/send/recv/close syscall
// quartet, and a 4 KiB buffer allocation per query), a BatchTransport
// multiplexes every in-flight query over a small fixed pool of
// long-lived, unconnected sockets:
//
//   - Callers enqueue (server, query) onto a bounded per-socket send
//     ring; one sender goroutine per socket drains the ring in batches
//     (socket.go) and hands each to PacketConn.WriteBatch — a single
//     sendmmsg(2) per batch on Linux, one write per datagram everywhere
//     else (pconn*.go, mmsg_linux*.go).
//   - One receiver goroutine per socket drains datagrams in batches
//     (PacketConn.ReadBatch: recvmmsg(2), or one read per datagram)
//     into pooled fixed-size buffers, lent only while the socket is
//     readable, and demuxes each to its waiting exchange through the
//     socket's own slot table: one slot per 16-bit wire transaction
//     ID, so a datagram is matched on (the socket it arrived on, its
//     ID, its source address) and on nothing keyed by destination.
//   - Transaction IDs on the wire are the transport's, not the
//     caller's: each exchange advances its socket's cursor, maps it
//     through the socket's keyed permutation of the 16-bit ID space
//     (drawn from crypto/rand when the socket is created, so an
//     off-path attacker cannot predict the next ID), takes the first
//     empty slot it reaches and sends the slot's index as its ID. No two
//     in-flight queries on one socket share an ID no matter what IDs
//     the callers chose. A slot belongs to the exchange that filled it
//     until whichever completer wins the waiter's state CAS clears it.
//     The response's ID is patched back to the caller's before
//     delivery, so the resolver's validation, duplicate accounting,
//     and discard machinery see the caller's own ID, as from a socket
//     of its own.
//   - Per-query deadlines, the context's included, are each exchange's
//     own: every pooled waiter owns one runtime timer, reset for each
//     exchange, instead of a per-socket read deadline, so one blackholed
//     server burns only its own queries and never stalls a shared socket,
//     and an exchange allocates nothing to arm its deadline.
//   - Response buffers are pooled (buffers.go) under the same
//     borrow/own discipline as the dnswire.Pool codec arenas: the
//     resolver decodes a response onto its arena — which copies every
//     retained byte — and then returns the wire buffer through
//     ReleaseResponse (resolver.ResponseReleaser), keeping the
//     steady-state exchange hot path allocation-free.
//
// Late, duplicate, and stray datagrams — an ID whose slot is empty, a
// source address other than the one the slot's query went to, the
// right answer on the wrong pool socket — are counted
// (udpx_demux_misses_total) and dropped, as a closed per-exchange
// socket would drop them; datagrams that do reach
// a waiter but fail validation are the resolver's business and flow
// through its existing classify / accepted-ring / discard-budget
// machinery unchanged. The transport keeps no state per destination, so
// its memory does not grow with the number of servers a scan contacts.
// The pool is IPv4-only: the resolver learns server addresses from A
// glue, A lookups and IPv4 root hints, so nothing can hand Exchange an
// IPv6 destination, and one that did gets ErrNoSocket. See DESIGN.md
// § 14 for the full lifecycle and the fallback matrix.
package udpx

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"govdns/internal/deadline"
	"govdns/internal/obs"
	"govdns/internal/pktbuf"
)

// Transport errors.
var (
	// ErrTimeout indicates the transport's own per-query deadline
	// (Config.Timeout) passed before a response was demuxed to the
	// exchange. When the context's deadline is the tighter one, the
	// exchange fails with context.DeadlineExceeded instead.
	ErrTimeout = errors.New("udpx: query timed out")
	// ErrQIDExhausted indicates more than 65536 concurrent in-flight
	// queries on a single pool socket: the 16-bit transaction ID space
	// has no free ID to allocate. This fails loudly — silently reusing
	// a live ID would misdeliver answers.
	ErrQIDExhausted = errors.New("udpx: transaction ID space exhausted (65536 queries in flight on one socket)")
	// ErrClosed indicates an Exchange on a transport whose Close has
	// begun; in-flight exchanges are failed with it too.
	ErrClosed = errors.New("udpx: transport closed")
	// ErrNoSocket indicates a destination of an address family the
	// pool has no socket for: the pool is IPv4-only.
	ErrNoSocket = errors.New("udpx: no socket for address family")
)

// Defaults for Config fields left zero, and the transport's fixed
// dimensions.
const (
	// DefaultSockets caps the shared socket pool size; the default is
	// min(DefaultSockets, max(2, NumCPU)).
	// Receive-side fan-in is the scaling limit, not fd count; a few
	// sockets spread kernel buffer pressure without fragmenting
	// batches, and sockets beyond the core count only add scheduling
	// churn.
	DefaultSockets = 4
	// DefaultRing bounds queued sends per socket; enqueue blocks (with
	// the caller's context and deadline still armed) when full.
	DefaultRing = 1024
	// DefaultBatch is the maximum datagrams moved per sendmmsg/recvmmsg
	// call (and the send ring's drain bound on every platform).
	DefaultBatch = 32
	// DefaultTimeout is the transport's own per-query deadline when the
	// caller's context carries none. The resolver's per-attempt context
	// deadline is normally far tighter; this is the backstop.
	DefaultTimeout = 2 * time.Second
	// maxInflightPerSock is the 16-bit transaction ID space: the hard
	// bound on concurrent queries on one pool socket, and the length of
	// its slot table. The scanner holds at most Concurrency × Fanout =
	// 1,024 exchanges across the whole pool (measured peak under 300).
	maxInflightPerSock = 1 << 16
)

// Config parameterizes a BatchTransport. The zero value gives the
// defaults above and the Linux batched-syscall path when available;
// send-ring depth (DefaultRing), batch size (DefaultBatch) and the
// destination port (53) are constants.
type Config struct {
	// Sockets is the pool size (default DefaultSockets).
	Sockets int
	// Timeout is the per-query deadline, measured from the send, that
	// the exchange's timer enforces when the context has none (default
	// DefaultTimeout). A context deadline tighter than Timeout wins.
	Timeout time.Duration
	// Portable forces PacketConn's one-datagram-per-syscall fallback even
	// where batched syscalls are available, for differential testing of
	// the two I/O paths.
	Portable bool

	// AddrOverride maps a server IP to the socket actually serving it;
	// a server with no entry is sent to on port 53. Tests and benches
	// serve simulated-topology IPs from loopback high ports.
	AddrOverride map[netip.Addr]netip.AddrPort
}

// metrics is the udpx_* instrument set on the shared registry.
type metrics struct {
	exchanges  *obs.Counter // udpx_exchanges_total
	sendDgrams *obs.Counter // udpx_send_datagrams_total
	sendBatch  *obs.Counter // udpx_send_batches_total
	recvDgrams *obs.Counter // udpx_recv_datagrams_total
	recvBatch  *obs.Counter // udpx_recv_batches_total
	sysSaved   *obs.Counter // udpx_syscalls_saved_total
	misses     *obs.Counter // udpx_demux_misses_total
	malformed  *obs.Counter // udpx_malformed_total
	timeouts   *obs.Counter // udpx_timeouts_total
	cancels    *obs.Counter // udpx_cancels_total
	exhausted  *obs.Counter // udpx_qid_exhausted_total
	rtt        *obs.Histogram

	inflight     *obs.Gauge // udpx_qid_inflight
	inflightHigh *obs.Gauge // udpx_qid_inflight_highwater
	ringHigh     *obs.Gauge // udpx_ring_highwater
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		exchanges:    r.Counter("udpx_exchanges_total"),
		sendDgrams:   r.Counter("udpx_send_datagrams_total"),
		sendBatch:    r.Counter("udpx_send_batches_total"),
		recvDgrams:   r.Counter("udpx_recv_datagrams_total"),
		recvBatch:    r.Counter("udpx_recv_batches_total"),
		sysSaved:     r.Counter("udpx_syscalls_saved_total"),
		misses:       r.Counter("udpx_demux_misses_total"),
		malformed:    r.Counter("udpx_malformed_total"),
		timeouts:     r.Counter("udpx_timeouts_total"),
		cancels:      r.Counter("udpx_cancels_total"),
		exhausted:    r.Counter("udpx_qid_exhausted_total"),
		rtt:          r.Histogram("udpx_exchange_rtt"),
		inflight:     r.Gauge("udpx_qid_inflight"),
		inflightHigh: r.Gauge("udpx_qid_inflight_highwater"),
		ringHigh:     r.Gauge("udpx_ring_highwater"),
	}
}

// BatchTransport is the shared-socket batched UDP transport. It
// implements resolver.Transport (and resolver.ResponseReleaser); one
// instance serves any number of concurrent exchanges until Close.
type BatchTransport struct {
	cfg   Config
	socks []*sock // the pool; IPv4 only

	wpool sync.Pool // *waiter

	done   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup

	// rttTick drives the 1-in-16 RTT sampling in Exchange/deliver.
	rttTick atomic.Uint64

	metricsOnce sync.Once
	m           *metrics
}

// New builds and starts a BatchTransport: binds the socket pool and
// launches one sender and one receiver goroutine per socket. Callers
// must Close it to release the sockets.
func New(cfg Config) (*BatchTransport, error) {
	if cfg.Sockets <= 0 {
		// The pool exists to spread receive fan-in across cores and
		// kernel buffers; sockets beyond the core count only add loop
		// goroutines to schedule and fragment send batches.
		cfg.Sockets = runtime.NumCPU()
		if cfg.Sockets < 2 {
			cfg.Sockets = 2
		}
		if cfg.Sockets > DefaultSockets {
			cfg.Sockets = DefaultSockets
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	t := &BatchTransport{
		cfg:  cfg,
		done: make(chan struct{}),
	}
	keys := make([][4]uint32, cfg.Sockets)
	if err := binary.Read(rand.Reader, binary.LittleEndian, keys); err != nil {
		return nil, fmt.Errorf("udpx: wire-ID keys: %w", err)
	}
	for i := 0; i < cfg.Sockets; i++ {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
		if err != nil {
			t.closeSocks()
			return nil, fmt.Errorf("udpx: bind udp4 socket %d: %w", i, err)
		}
		t.socks = append(t.socks, newSock(t, c, keys[i]))
	}
	for _, s := range t.socks {
		t.wg.Add(2)
		go func(s *sock) { defer t.wg.Done(); s.sendLoop() }(s)
		go func(s *sock) { defer t.wg.Done(); s.recvLoop() }(s)
	}
	return t, nil
}

func (t *BatchTransport) closeSocks() {
	for _, s := range t.socks {
		_ = s.conn.Close()
	}
}

// AttachRegistry binds the transport's udpx_* instruments onto r. Call
// it before the first Exchange. The first registry attached wins: a
// later call, or one after first use bound a private registry, is a
// no-op, and a nil r changes nothing.
func (t *BatchTransport) AttachRegistry(r *obs.Registry) {
	if r != nil {
		t.metricsOnce.Do(func() { t.m = newMetrics(r) })
	}
}

func (t *BatchTransport) metrics() *metrics {
	t.metricsOnce.Do(func() { t.m = newMetrics(obs.NewRegistry()) })
	return t.m
}

// target resolves the socket address actually serving server: its
// AddrOverride entry, else port 53 of the address itself.
func (t *BatchTransport) target(server netip.Addr) netip.AddrPort {
	if ap, ok := t.cfg.AddrOverride[server]; ok {
		return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	return netip.AddrPortFrom(server.Unmap(), 53)
}

// sockFor picks the pool socket for dest by a destination hash, so
// every exchange with one server rides one socket and its responses
// come back to the slot table that holds their waiters. An IPv6
// destination has no socket.
func (t *BatchTransport) sockFor(dest netip.AddrPort) *sock {
	if dest.Addr().Is6() {
		return nil
	}
	return t.socks[destHash(dest)%uint32(len(t.socks))]
}

// destHash is an FNV-1a over the destination address and port.
func destHash(dest netip.AddrPort) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	a16 := dest.Addr().As16()
	for _, b := range a16 {
		h = (h ^ uint32(b)) * prime32
	}
	p := dest.Port()
	h = (h ^ uint32(p&0xff)) * prime32
	h = (h ^ uint32(p>>8)) * prime32
	return h
}

// reserve claims a wire transaction ID on s for w: the first empty slot
// the socket's permuted cursor reaches. The slot table is its own occupancy
// record — an ID is free exactly when its slot is empty — so two
// in-flight queries on one socket can never share an ID. The stripe
// lock's release publishes w's registration fields (sock, dest, wireID)
// to whoever next reads the slot. Fails loudly with ErrQIDExhausted at
// 65536 in flight on s.
func (t *BatchTransport) reserve(s *sock, dest netip.AddrPort, w *waiter, gen uint32) error {
	if s.live.Add(1) <= maxInflightPerSock {
		w.sock, w.dest = s, dest
		// The count guarantees an empty slot exists, but other reservers
		// can take each one this probe was about to reach; bound the
		// probe so that never loops forever.
		for tries := 0; tries < maxInflightPerSock; tries++ {
			id := s.permuteID(uint16(s.cursor.Add(1) - 1))
			mu := s.stripe(id)
			mu.Lock()
			if s.slots[id].w == nil {
				w.wireID = id
				s.slots[id] = slot{w: w, gen: gen}
				mu.Unlock()
				t.noteInflight()
				return nil
			}
			mu.Unlock()
		}
	}
	s.live.Add(-1)
	t.metrics().exhausted.Inc()
	return fmt.Errorf("%w: %s", ErrQIDExhausted, dest)
}

// noteInflight maintains the occupancy gauge and its high-water mark.
// The high-water update is load-then-set and may lose a race to a
// concurrent peak; it is a telemetry watermark, not an invariant.
func (t *BatchTransport) noteInflight() {
	m := t.metrics()
	m.inflight.Add(1)
	if v := m.inflight.Load(); v > m.inflightHigh.Load() {
		m.inflightHigh.Set(v)
	}
}

// unregister clears w's slot, returning its ID to the socket's space.
// Called exactly once per exchange, by whichever completer won the
// state CAS.
func (t *BatchTransport) unregister(w *waiter, gen uint32) {
	s := w.sock
	mu := s.stripe(w.wireID)
	mu.Lock()
	if sl := &s.slots[w.wireID]; sl.w == w && sl.gen == gen {
		*sl = slot{}
	}
	mu.Unlock()
	s.live.Add(-1)
	t.metrics().inflight.Add(-1)
}

// pending reports the number of registered waiters across the pool's
// slot tables — zero when no exchange is in flight. Tests assert it
// returns to zero after churn; production code never needs it.
func (t *BatchTransport) pending() int {
	n := 0
	for _, s := range t.socks {
		n += int(s.live.Load())
	}
	return n
}

// getWaiter checks a waiter out of the pool under a fresh generation.
// A new waiter's timer starts stopped, and every path out of Exchange
// leaves it stopped and drained again before the waiter goes back.
func (t *BatchTransport) getWaiter() (*waiter, uint32) {
	w, _ := t.wpool.Get().(*waiter)
	if w == nil {
		w = &waiter{ch: make(chan wresult, 1), timer: time.NewTimer(time.Hour)}
		w.timer.Stop()
	}
	gen := w.nextGen()
	return w, gen
}

func (t *BatchTransport) putWaiter(w *waiter) { t.wpool.Put(w) }

// Exchange implements resolver.Transport: enqueue the query toward its
// socket, wait for the demuxed response (or the deadline, or the
// context). The returned buffer is pooled; callers release it through
// ReleaseResponse once decoded (the resolver's arena decode copies
// every retained byte first).
func (t *BatchTransport) Exchange(ctx context.Context, server netip.Addr, query []byte) ([]byte, error) {
	if len(query) < 12 {
		return nil, fmt.Errorf("udpx: query shorter than a DNS header (%d bytes)", len(query))
	}
	if len(query) > pktbuf.Size {
		return nil, fmt.Errorf("udpx: query of %d bytes exceeds %d", len(query), pktbuf.Size)
	}
	if t.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := t.metrics()
	dest := t.target(server)
	s := t.sockFor(dest)
	if s == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSocket, dest)
	}

	w, gen := t.getWaiter()
	w.origID = binary.BigEndian.Uint16(query)
	if err := t.reserve(s, dest, w, gen); err != nil {
		t.putWaiter(w)
		return nil, err
	}
	// The registration is live from here on: exactly one completer —
	// receiver, this exchange's timer or cancellation, or the close
	// sweep — wins the state CAS and unregisters. If the transport raced
	// into Close after the registration, the sweep is guaranteed to see
	// the slot (its stripe lock orders the sweep against the insert), so
	// the wait below always terminates.
	if t.closed.Load() {
		err := t.cancelWait(w, gen, ErrClosed)
		t.putWaiter(w)
		return nil, err
	}

	req := getSendReq()
	req.dest = dest
	req.n = copy(req.b[:], query)
	binary.BigEndian.PutUint16(req.b[:], w.wireID)

	w.sentAt = time.Now()
	// RTT observation is sampled: the histogram needs thousands of
	// points per scan, not one per exchange, and the unsampled fast
	// path skips a clock read and the bucket update in deliver.
	w.rttSample = t.rttTick.Add(1)&15 == 0
	// The waiter's timer enforces whichever deadline is tighter, the
	// transport's or the context's, so the waits below need only the
	// caller's cancellation besides: deadline.Cancel hands back a
	// channel that, for the resolver's attempt context, arms no timer of
	// its own. The timer is reset after sentAt was read, so it never
	// fires before the deadline.
	wait, ctxDeadline := t.cfg.Timeout, false
	if d, ok := ctx.Deadline(); ok && d.Sub(w.sentAt) < wait {
		wait, ctxDeadline = d.Sub(w.sentAt), true
	}
	w.timer.Reset(wait)
	cancel := deadline.Cancel(ctx)

	// ring stays non-nil while the request waits for room in a full
	// send ring, so the enqueue and the reply share one wait.
	ring := s.ring
	select {
	case ring <- req:
		// Common case: ring has room, no selectgo round.
		ring = nil
		t.queued(s)
	default:
	}
	var res wresult
	for { // again only after the request made it into a full ring
		select {
		case ring <- req:
			ring = nil
			t.queued(s)
			continue
		case res = <-w.ch:
			// Delivered, or failed by the close sweep (perhaps while the
			// ring was full and the datagram never went out).
			w.disarm()
		case <-w.timer.C:
			if w.complete(gen, stTimedOut) {
				t.unregister(w, gen)
				m.timeouts.Inc()
				res.err = ErrTimeout
				if ctxDeadline {
					// The error the context itself reports once it has
					// passed.
					res.err = context.DeadlineExceeded
				}
			} else {
				// A completer won the race the timer lost: its outcome
				// stands.
				res = <-w.ch
			}
		case <-cancel:
			w.disarm()
			res.err = t.cancelWait(w, gen, ctx.Err())
		}
		break
	}
	if ring != nil {
		putSendReq(req)
	}
	t.putWaiter(w)
	return res.buf, res.err
}

// queued records a request entering s's send ring.
func (t *BatchTransport) queued(s *sock) {
	m := t.metrics()
	if n := int64(len(s.ring)); n > m.ringHigh.Load() {
		m.ringHigh.Set(n)
	}
	m.exchanges.Inc()
}

// cancelWait resolves an exchange whose context fired (or that lost the
// race with Close): win the CAS and clean up, or — if a completer beat
// us — drain its result and discard it, as a datagram that lands after
// the deadline is discarded. The caller still
// owns w and returns it to the pool.
func (t *BatchTransport) cancelWait(w *waiter, gen uint32, cause error) error {
	if w.complete(gen, stCancelled) {
		t.unregister(w, gen)
		t.metrics().cancels.Inc()
		return cause
	}
	if res := <-w.ch; res.buf != nil {
		pktbuf.Put(res.buf)
	}
	return cause
}

// deliver routes one datagram received on s to its waiter: the slot
// its transaction ID indexes, if that slot's query went to the address
// the datagram came from. The slot is copied out under its stripe lock
// (a filled slot's waiter cannot be recycled until the slot is cleared,
// so reading its dest there is safe); the completion CAS then runs on
// the copied generation, so a datagram that loses the race to a timeout
// finds the waiter's next life under a new generation and fails.
// A runt shorter than a DNS header, or a datagram with the QR bit
// clear, is no answer: it is counted malformed and dropped, and the
// exchange its ID may name keeps waiting. Misses — late duplicates of
// completed exchanges, stray or spoofed datagrams, chaos debris — are
// counted and dropped, the batched equivalent of a closed per-exchange
// socket swallowing them.
func (t *BatchTransport) deliver(s *sock, buf []byte, src netip.AddrPort) {
	m := t.metrics()
	m.recvDgrams.Inc()
	if len(buf) < 12 || buf[2]&0x80 == 0 {
		m.malformed.Inc()
		pktbuf.Put(buf)
		return
	}
	src = netip.AddrPortFrom(src.Addr().Unmap(), src.Port())
	id := binary.BigEndian.Uint16(buf)
	mu := s.stripe(id)
	mu.Lock()
	ref := s.slots[id]
	ok := ref.w != nil && ref.w.dest == src
	mu.Unlock()
	if !ok || !ref.w.complete(ref.gen, stDelivered) {
		m.misses.Inc()
		pktbuf.Put(buf)
		return
	}
	t.unregister(ref.w, ref.gen)
	if ref.w.rttSample {
		m.rtt.ObserveSince(ref.w.sentAt)
	}
	// Patch the caller's transaction ID back in before the resolver
	// sees the wire; the rewrite is invisible end to end.
	binary.BigEndian.PutUint16(buf, ref.w.origID)
	ref.w.ch <- wresult{buf: buf}
}

// ReleaseResponse returns a buffer handed out by Exchange to the packet
// pool (the resolver calls it right after its arena decode, which
// copies everything it keeps). Implements resolver.ResponseReleaser.
// Foreign buffers — a chaos duplicate's replay copy, a caller's own
// slice — are recognized by capacity and simply left to the GC.
func (t *BatchTransport) ReleaseResponse(buf []byte) { pktbuf.Put(buf) }

// Close shuts the transport down: stops the senders, closes every socket (unblocking the receivers), and fails every
// still-pending exchange with ErrClosed. Idempotent.
func (t *BatchTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.done)
	t.closeSocks()
	t.wg.Wait()
	// Sweep the slot tables: every remaining waiter gets ErrClosed.
	// Registrations racing Close either saw closed first (and
	// self-cancelled) or filled their slot before this sweep took its
	// stripe lock — the mutex makes one of the two orders definite.
	for _, s := range t.socks {
		for id := range s.slots {
			mu := s.stripe(uint16(id))
			mu.Lock()
			ref := s.slots[id]
			mu.Unlock()
			if ref.w != nil && ref.w.complete(ref.gen, stClosed) {
				t.unregister(ref.w, ref.gen)
				ref.w.ch <- wresult{err: ErrClosed}
			}
		}
	}
	return nil
}

// Stats is a snapshot of transport counters, read from the registry
// instruments (shared or private).
type Stats struct {
	// Exchanges counts queries put on the ring; SendBatches and
	// SendDatagrams (resp. Recv*) describe the syscall batching:
	// Datagrams/Batches is the mean batch size, and SyscallsSaved is
	// the datagrams that shared a syscall with a predecessor.
	Exchanges, SendBatches, SendDatagrams, RecvBatches, RecvDatagrams, SyscallsSaved uint64
	// DemuxMisses counts datagrams with no waiting exchange (late,
	// duplicate, stray); Malformed counts sub-header runts and datagrams
	// with the QR bit clear.
	DemuxMisses, Malformed uint64
	// Timeouts counts exchanges ended by their deadline; Cancels counts
	// context cancellations; QIDExhausted counts reservations refused at
	// 65536 in flight.
	Timeouts, Cancels, QIDExhausted uint64
	// Inflight is the current registered-waiter count;
	// InflightHighwater its observed peak; RingHighwater the deepest
	// observed send-ring backlog.
	Inflight, InflightHighwater, RingHighwater int64
}

// Stats returns the current counter snapshot.
func (t *BatchTransport) Stats() Stats {
	m := t.metrics()
	return Stats{
		Exchanges:         m.exchanges.Load(),
		SendBatches:       m.sendBatch.Load(),
		SendDatagrams:     m.sendDgrams.Load(),
		RecvBatches:       m.recvBatch.Load(),
		RecvDatagrams:     m.recvDgrams.Load(),
		SyscallsSaved:     m.sysSaved.Load(),
		DemuxMisses:       m.misses.Load(),
		Malformed:         m.malformed.Load(),
		Timeouts:          m.timeouts.Load(),
		Cancels:           m.cancels.Load(),
		QIDExhausted:      m.exhausted.Load(),
		Inflight:          m.inflight.Load(),
		InflightHighwater: m.inflightHigh.Load(),
		RingHighwater:     m.ringHigh.Load(),
	}
}
