package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"govdns/internal/authserver"
	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/obs"
	"govdns/internal/worldgen"
)

const (
	// closedWindow is the closed loop's in-flight bound per connection.
	closedWindow = 32
	// openWindow bounds the open loop's in-flight queries per connection.
	// At the offered rates 2 to 8 are in flight, so it binds only after
	// a stall: without it a generator that wakes 150 ms late puts its
	// whole backlog (6,000 datagrams at 40k qps) on the wire at once,
	// into a server socket buffer that holds under 300, and loses most
	// of it. With it the backlog waits in the generator, where it shows
	// as lateness and as latency from the due time.
	openWindow = 64
	// lateLimit is how long a query may stay unanswered before it counts
	// as failed.
	lateLimit = time.Second
	ednsSize  = 1232
	// serveWindows is how many equal windows a phase is cut into. Rates
	// and percentiles are taken per window and the median window is
	// reported: on a small shared box a single stall (GC, a stolen
	// timeslice) otherwise owns the whole phase's p99.
	serveWindows = 10
)

// openRates are the open loop's offered rates in queries per second,
// frozen below the closed loop's capacity on the reference box (2 vCPU,
// load generator in the same process). The middle rate feeds
// op_p50_ms/op_tail_ms.
var openRates = [3]float64{10000, 20000, 40000}

// template is one cacheable query of the mix and the bytes an uncached
// twin of the server answers it with, per transport. All IDs are zero.
type template struct {
	query     []byte
	expectUDP []byte
	expectTCP []byte
}

// serveEnv is the serving tier under test: one authserver.Server from
// the generated world behind real loopback listeners, configured as
// cmd/dnsserver configures it.
type serveEnv struct {
	w       world
	addr    netip.Addr
	srv     *authserver.Server
	twin    *twinServer
	reg     *obs.Registry
	udp     *authserver.UDPServer
	tcp     *authserver.TCPServer
	origins []dnsname.Name // index = popularity rank
	tmpl    []template     // index (rank*numQTypes+qtype)*2 + edns
}

func (e *serveEnv) close() {
	if e.udp != nil {
		_ = e.udp.Close()
	}
	if e.tcp != nil {
		_ = e.tcp.Close()
	}
	if e.twin != nil {
		e.twin.close()
	}
}

// twinServer is an uncached server over the same zones, answering in
// process: what every response on the wire must equal byte for byte.
type twinServer struct {
	srv  *authserver.Server
	near net.Conn // TCP framing path, over an in-memory pipe
	rd   *bufio.Reader
}

func newTwin(srv *authserver.Server) *twinServer {
	t := &twinServer{srv: authserver.New(srv.Hostname)}
	for _, o := range srv.Zones() {
		if z, ok := srv.ZoneByOrigin(o); ok {
			t.srv.AddZone(z)
		}
	}
	near, far := net.Pipe()
	t.near, t.rd = near, bufio.NewReader(near)
	go t.srv.ServeTCPConn(far, 0)
	return t
}

func (t *twinServer) close() { _ = t.near.Close() }

func (t *twinServer) answerUDP(query []byte) []byte { return t.srv.HandleWire(query) }

func (t *twinServer) answerTCP(query []byte) ([]byte, error) {
	frame := make([]byte, 2+len(query))
	binary.BigEndian.PutUint16(frame, uint16(len(query)))
	copy(frame[2:], query)
	if _, err := t.near.Write(frame); err != nil {
		return nil, err
	}
	return readFrame(t.rd, nil)
}

func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(hdr[:]))
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// pickServer returns the healthy server hosting the most zones among
// the addresses the world's scan-time delegations name; ties go to the
// lower address.
func pickServer(a *worldgen.Active) (*authserver.Server, netip.Addr, error) {
	var best *authserver.Server
	var bestAddr netip.Addr
	bestZones := 0
	seen := make(map[netip.Addr]bool)
	for _, d := range a.World.Domains {
		if !d.DelegatedAtScan() {
			continue
		}
		for _, host := range d.Final().NS {
			for _, addr := range a.AddrsOf(host) {
				if seen[addr] {
					continue
				}
				seen[addr] = true
				srv, ok := a.Net.ServerAt(addr)
				if !ok || srv.Behavior() != authserver.BehaviorHealthy {
					continue
				}
				n := len(srv.Zones())
				if n > bestZones || (n == bestZones && addr.Less(bestAddr)) {
					best, bestAddr, bestZones = srv, addr, n
				}
			}
		}
	}
	if best == nil {
		return nil, netip.Addr{}, errors.New("no healthy server in the world")
	}
	return best, bestAddr, nil
}

func encodeQuery(name dnsname.Name, qtype dnswire.Type, edns bool) ([]byte, error) {
	q := dnswire.NewQuery(0, name, qtype)
	if edns {
		q.Additional = append(q.Additional, dnswire.OPTRecord(ednsSize))
	}
	return dnswire.Encode(q)
}

func setupServe(cfg runConfig) (*serveEnv, error) {
	e := &serveEnv{w: buildWorld(cfg.seed, scaleSim)}
	var err error
	if e.srv, e.addr, err = pickServer(e.w.active); err != nil {
		return nil, err
	}
	e.twin = newTwin(e.srv)

	e.origins = e.srv.Zones()
	sort.Slice(e.origins, func(i, j int) bool { return dnsname.Compare(e.origins[i], e.origins[j]) < 0 })
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(e.origins), func(i, j int) {
		e.origins[i], e.origins[j] = e.origins[j], e.origins[i]
	})
	e.tmpl = make([]template, 0, len(e.origins)*numQTypes*2)
	for _, o := range e.origins {
		z, _ := e.srv.ZoneByOrigin(o)
		nsHost := o
		if ns := z.Lookup(o, dnswire.TypeNS); len(ns) > 0 {
			if d, ok := ns[0].Data.(dnswire.NSData); ok {
				nsHost = d.Host
			}
		}
		shapes := [numQTypes]struct {
			name  dnsname.Name
			qtype dnswire.Type
		}{{o, dnswire.TypeNS}, {o, dnswire.TypeSOA}, {nsHost, dnswire.TypeA}}
		for _, sh := range shapes {
			for _, edns := range []bool{false, true} {
				t := template{}
				if t.query, err = encodeQuery(sh.name, sh.qtype, edns); err != nil {
					return nil, fmt.Errorf("encode %s: %w", sh.name, err)
				}
				if t.expectUDP = e.twin.answerUDP(t.query); t.expectUDP == nil {
					return nil, fmt.Errorf("server drops %s %v", sh.name, sh.qtype)
				}
				if t.expectTCP, err = e.twin.answerTCP(t.query); err != nil {
					return nil, fmt.Errorf("twin over TCP: %w", err)
				}
				e.tmpl = append(e.tmpl, t)
			}
		}
	}

	// cmd/dnsserver's defaults: response cache on, counters attached.
	e.reg = obs.NewRegistry()
	rc := authserver.NewResponseCache()
	rc.AttachRegistry(e.reg)
	e.srv.SetCache(rc)
	if e.udp, err = authserver.ListenUDPReaders("127.0.0.1:0", e.srv, runtime.GOMAXPROCS(0)); err != nil {
		e.close()
		return nil, err
	}
	if e.tcp, err = authserver.ListenTCP("127.0.0.1:0", e.srv); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// templateIndex is where setupServe put the template a draw names.
func templateIndex(d draw) int32 {
	i := (d.rank*numQTypes + d.qtype) * 2
	if d.edns {
		i++
	}
	return int32(i)
}

const (
	slotFree uint32 = iota
	slotPending
)

// slot is one in-flight query, indexed by its DNS message ID. The
// sender fills it and then stores slotPending; whoever swaps the state
// back to slotFree (a receiver, or the sweep that declares it lost)
// owns the fields.
type slot struct {
	state atomic.Uint32
	seq   int32
	due   time.Duration // since the client's epoch
	sent  time.Duration
	tmpl  int32 // -1: a miss, checked after the phase
	tcp   bool
	query []byte        // misses only
	sem   chan struct{} // the window this query holds a place in
}

type missRec struct {
	tcp         bool
	query, resp []byte
}

// phase is what one stretch of load produced. The two receivers and
// the sender each append under mu.
type phase struct {
	name string
	log  *spanLog // traced runs only

	mu         sync.Mutex
	sent       int
	answered   int
	lost       int
	mismatched int
	late       int       // answered, but more than lateLimit after due
	latUS      []float64 // in order of arrival
	misses     []missRec

	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	lateUS []float64 // generator lateness per query, open loop, ascending
	// closed loop, per window
	rates []float64 // answered queries per second
	cpuUS []float64 // CPU microseconds per answered query
}

// windowed returns the median over the phase's windows of each
// window's pct-th latency percentile, in microseconds.
func (p *phase) windowed(pct float64) float64 {
	per := make([]float64, 0, serveWindows)
	for w := 0; w < serveWindows; w++ {
		chunk := p.latUS[w*len(p.latUS)/serveWindows : (w+1)*len(p.latUS)/serveWindows]
		if len(chunk) > 0 {
			per = append(per, percentile(sortedCopy(chunk), pct))
		}
	}
	return median(per)
}

// highPct is the highest of p99 and p90 that a single window supports.
func (p *phase) highPct() float64 {
	if supported(len(p.latUS)/serveWindows, 99) {
		return 99
	}
	return 90
}

// loadClient is the load generator: one pacing sender, one UDP socket,
// one pipelined TCP connection, one receiver per connection.
type loadClient struct {
	env   *serveEnv
	epoch time.Time
	mix   *mix
	udp   *net.UDPConn
	tcp   net.Conn
	slots []slot
	next  uint16
	seq   int32
	frame []byte

	outstanding atomic.Int64
	cur         atomic.Pointer[phase]
	wg          sync.WaitGroup
}

func newLoadClient(e *serveEnv, seed int64) (*loadClient, error) {
	c := &loadClient{env: e, epoch: time.Now(), mix: newMix(seed, len(e.origins)),
		slots: make([]slot, 1<<16), frame: make([]byte, 2, 2+512)}
	ua := e.udp.Addr().(*net.UDPAddr)
	var err error
	if c.udp, err = net.DialUDP("udp", nil, ua); err != nil {
		return nil, err
	}
	_ = c.udp.SetReadBuffer(4 << 20)
	if c.tcp, err = net.Dial("tcp", e.tcp.Addr().String()); err != nil {
		_ = c.udp.Close()
		return nil, err
	}
	c.wg.Add(2)
	go c.recvUDP()
	go c.recvTCP()
	return c, nil
}

func (c *loadClient) close() {
	_ = c.udp.Close()
	_ = c.tcp.Close()
	c.wg.Wait()
}

func (c *loadClient) recvUDP() {
	defer c.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, err := c.udp.Read(buf)
		if err != nil {
			return
		}
		c.deliver(buf[:n], false)
	}
}

func (c *loadClient) recvTCP() {
	defer c.wg.Done()
	rd := bufio.NewReaderSize(c.tcp, 64<<10)
	var buf []byte
	for {
		var err error
		if buf, err = readFrame(rd, buf); err != nil {
			return
		}
		c.deliver(buf, true)
	}
}

// deliver matches a response to its slot, checks it, and records its
// latency from the query's due time.
func (c *loadClient) deliver(resp []byte, tcp bool) {
	now := time.Since(c.epoch)
	if len(resp) < 12 {
		return
	}
	s := &c.slots[binary.BigEndian.Uint16(resp)]
	if !s.state.CompareAndSwap(slotPending, slotFree) {
		return // duplicate, or already swept as lost
	}
	p := c.cur.Load()
	ok := s.tcp == tcp
	var miss *missRec
	if s.tmpl >= 0 {
		expect := c.env.tmpl[s.tmpl].expectUDP
		if tcp {
			expect = c.env.tmpl[s.tmpl].expectTCP
		}
		ok = ok && bytes.Equal(resp[2:], expect[2:])
	} else {
		miss = &missRec{tcp: tcp, query: s.query, resp: append([]byte(nil), resp...)}
	}
	lat := now - s.due
	if p.log != nil {
		id := p.log.add(s.seq, -1, "serve.query", s.due.Nanoseconds(), now.Nanoseconds(), "from due time")
		transport := "udp"
		if tcp {
			transport = "tcp"
		}
		p.log.add(s.seq, id, "serve.wire", s.sent.Nanoseconds(), now.Nanoseconds(), transport)
	}
	sem := s.sem
	p.mu.Lock()
	p.answered++
	p.latUS = append(p.latUS, float64(lat.Nanoseconds())/1e3)
	if !ok {
		p.mismatched++
	}
	if lat > lateLimit {
		p.late++
	}
	if miss != nil {
		p.misses = append(p.misses, *miss)
	}
	p.mu.Unlock()
	c.outstanding.Add(-1)
	<-sem
}

// giveUp declares a pending slot lost.
func (c *loadClient) giveUp(s *slot, p *phase) {
	if !s.state.CompareAndSwap(slotPending, slotFree) {
		return
	}
	sem := s.sem
	p.mu.Lock()
	p.lost++
	p.mu.Unlock()
	c.outstanding.Add(-1)
	<-sem
}

// send draws the next query of the mix and puts it on the wire.
func (c *loadClient) send(p *phase, due time.Duration, udpSem, tcpSem chan struct{}) error {
	d := c.mix.next()
	var tmpl int32 = -1
	var query []byte
	if d.miss {
		name, err := c.env.origins[d.rank].Prepend(fmt.Sprintf("m%016x", d.label))
		if err != nil {
			return err
		}
		if query, err = encodeQuery(name, dnswire.TypeA, d.edns); err != nil {
			return err
		}
	} else {
		tmpl = templateIndex(d)
		query = c.env.tmpl[tmpl].query
	}
	sem := udpSem
	if d.tcp {
		sem = tcpSem
	}
	sem <- struct{}{}
	id := c.next
	c.next++
	s := &c.slots[id]
	c.giveUp(s, p) // the ID space wrapped onto a query still unanswered
	s.seq, s.due, s.tmpl, s.tcp, s.sem = c.seq, due, tmpl, d.tcp, sem
	s.query = nil
	c.seq++

	c.frame = append(c.frame[:2], query...)
	binary.BigEndian.PutUint16(c.frame[2:], id)
	if d.miss {
		s.query = append([]byte(nil), c.frame[2:]...)
	}
	s.sent = time.Since(c.epoch)
	s.state.Store(slotPending)
	c.outstanding.Add(1)
	p.sent++
	var err error
	if d.tcp {
		binary.BigEndian.PutUint16(c.frame, uint16(len(query)))
		_, err = c.tcp.Write(c.frame)
	} else {
		_, err = c.udp.Write(c.frame[2:])
	}
	return err
}

// drain waits for the outstanding queries, then counts the rest lost.
func (c *loadClient) drain(p *phase) {
	deadline := time.Now().Add(lateLimit)
	for c.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for i := range c.slots {
		c.giveUp(&c.slots[i], p)
	}
}

// sweep declares queries older than lateLimit lost, off the sender's
// path, until the returned stop is called: a lost datagram would
// otherwise hold its place in the window forever.
func (c *loadClient) sweep(p *phase) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(lateLimit / 4)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				now := time.Since(c.epoch)
				for i := range c.slots {
					if s := &c.slots[i]; s.state.Load() == slotPending && now-s.due > lateLimit {
						c.giveUp(s, p)
					}
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// closedLoop keeps closedWindow queries in flight per connection for
// the duration: the server sets the pace, so answered/wall is capacity.
func (c *loadClient) closedLoop(name string, d time.Duration, log *spanLog) (*phase, error) {
	p := &phase{name: name, log: log}
	c.cur.Store(p)
	udpSem, tcpSem := make(chan struct{}, closedWindow), make(chan struct{}, closedWindow)
	stopSweep := c.sweep(p)

	var m pass
	meter := startMeter()
	var err error
	window := d / serveWindows
	mark, markAnswered, markCPU := window, 0, meter.cpu0
	for err == nil {
		if el := time.Since(meter.t0); el >= mark {
			p.mu.Lock()
			answered := p.answered
			p.mu.Unlock()
			cpu := cpuTime()
			if n := float64(answered - markAnswered); n > 0 {
				p.rates = append(p.rates, n/window.Seconds())
				p.cpuUS = append(p.cpuUS, float64((cpu-markCPU).Microseconds())/n)
			}
			mark, markAnswered, markCPU = mark+window, answered, cpu
			if el >= d {
				break
			}
		}
		err = c.send(p, time.Since(c.epoch), udpSem, tcpSem)
	}
	meter.stop(&m)
	stopSweep()
	c.drain(p)
	p.wall, p.cpu, p.allocs = m.wall, m.cpu, m.allocs
	return p, err
}

// openLoopPhase offers queries at a fixed rate whatever the server
// does, up to openWindow in flight per connection.
func (c *loadClient) openLoopPhase(name string, rate float64, d time.Duration, log *spanLog) (*phase, error) {
	p := &phase{name: name, log: log}
	c.cur.Store(p)
	udpSem, tcpSem := make(chan struct{}, openWindow), make(chan struct{}, openWindow)
	stopSweep := c.sweep(p)
	base := time.Since(c.epoch)
	var m pass
	meter := startMeter()
	var err error
	late := openLoop(wallClock{meter.t0}, rate, d, func(_ int, due time.Duration) {
		if err == nil {
			err = c.send(p, base+due, udpSem, tcpSem)
		}
	})
	meter.stop(&m)
	stopSweep()
	c.drain(p)
	p.wall, p.cpu, p.allocs = m.wall, m.cpu, m.allocs
	p.lateUS = make([]float64, len(late))
	for i, l := range late {
		p.lateUS[i] = float64(l.Nanoseconds()) / 1e3
	}
	sort.Float64s(p.lateUS)
	return p, err
}

// settle checks a finished phase's misses against the twin and adds
// its tallies to the report.
func (c *loadClient) settle(rep *report, p *phase, counted bool) error {
	for _, m := range p.misses {
		var expect []byte
		if m.tcp {
			var err error
			if expect, err = c.env.twin.answerTCP(m.query); err != nil {
				return err
			}
		} else {
			expect = c.env.twin.answerUDP(m.query)
		}
		if !bytes.Equal(m.resp, expect) {
			p.mismatched++
		}
	}
	if counted {
		rep.attempted += p.sent
		rep.failed += p.lost + p.late
	}
	if p.mismatched > 0 {
		rep.breakf("%s: %d responses differ from the uncached twin's bytes", p.name, p.mismatched)
	}
	rep.infof("%-12s sent=%d answered=%d lost=%d mismatched=%d late=%d misses=%d wall=%.2fs",
		p.name, p.sent, p.answered, p.lost, p.mismatched, p.late, len(p.misses), p.wall.Seconds())
	return nil
}

// serveRun is the phases of one serve_zipf run.
type serveRun struct {
	closed *phase
	open   [len(openRates)]*phase
}

func (e *serveEnv) run(rep *report, seed int64, budget time.Duration, log *spanLog) (*serveRun, error) {
	c, err := newLoadClient(e, seed)
	if err != nil {
		return nil, err
	}
	defer c.close()
	// 5% warm-up, 50% closed loop, 15% per open-loop rate.
	part := func(share float64) time.Duration { return time.Duration(share * float64(budget)) }
	warm, err := c.closedLoop("warm-up", part(0.05), nil)
	if err != nil {
		return nil, err
	}
	if err := c.settle(rep, warm, false); err != nil {
		return nil, err
	}
	r := &serveRun{}
	if r.closed, err = c.closedLoop("closed", part(0.50), log); err != nil {
		return nil, err
	}
	if err := c.settle(rep, r.closed, true); err != nil {
		return nil, err
	}
	for i, rate := range openRates {
		name := fmt.Sprintf("open@%.0f", rate)
		if r.open[i], err = c.openLoopPhase(name, rate, part(0.15), log); err != nil {
			return nil, err
		}
		if err := c.settle(rep, r.open[i], true); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func runServe(_ context.Context, cfg runConfig) (*report, error) {
	if cfg.trace {
		return runServeTraced(cfg)
	}
	rep := newReport(cfg.workload, endToEnd)
	setupStart := time.Now()
	e, err := setupServe(cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setup := time.Since(setupStart)

	rss := startRSSWindow()
	r, err := e.run(rep, cfg.seed, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	peak, peakSource := rss.peakMB()

	closed := r.closed
	answered := float64(closed.answered)
	rep.set("ops_per_s", median(closed.rates),
		fmt.Sprintf("answered queries/s, closed loop, window %d per connection, median of %d windows, n=%d", closedWindow, len(closed.rates), closed.answered))
	rep.set("cpu_us_per_op", median(closed.cpuUS), "closed loop, rusage user+sys per answered query, median window, load generator included")
	rep.set("allocs_per_op", float64(closed.allocs)/answered, "closed loop, heap objects per answered query, load generator included")
	rep.set("op_p50_ms", closed.windowed(50)/1e3,
		fmt.Sprintf("closed loop, from asking for a place in the window to the response, median of %d windows, n=%d", serveWindows, len(closed.latUS)))
	rep.set("op_tail_ms", closed.windowed(tailPct)/1e3, fmt.Sprintf("p%d of the same; p99 %.4f ms", tailPct, closed.windowed(99)/1e3))
	rep.set("peak_rss_mb", peak, peakSource)
	rep.set("setup_s", setup.Seconds(), "world build, twin answers for every template, listeners; once per run")

	rep.infof("seed=%d server=%s zones=%d templates=%d udp_readers=%d; traffic crossed the host's loopback interface",
		cfg.seed, e.addr, len(e.origins), len(e.tmpl), runtime.GOMAXPROCS(0))
	for i, p := range r.open {
		all := sortedCopy(p.latUS)
		rep.infof("open loop %6.0f qps: median window p50=%.1fus p99=%.1fus; whole phase p50=%.1fus p99=%.1fus n=%d; generator lateness p50=%.1fus p99=%.1fus",
			openRates[i], p.windowed(50), p.windowed(99), percentile(all, 50), percentile(all, 99), len(all),
			percentile(p.lateUS, 50), percentile(p.lateUS, 99))
	}
	rep.infof("cores_busy=%.2f of %d in the closed loop", r.closed.cpu.Seconds()/r.closed.wall.Seconds(), runtime.GOMAXPROCS(0))
	return rep, nil
}
