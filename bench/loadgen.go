package main

import (
	"math/rand"
	"syscall"
	"time"
)

// The serve workload's traffic mix, all drawn from one seeded source.
const (
	zipfS     = 1.1  // name popularity exponent
	ednsShare = 0.5  // queries carrying OPT with a 1232-byte payload size
	missShare = 0.05 // queries with a fresh random left label: always a cache miss
	tcpShare  = 0.10 // queries sent on the pipelined TCP connection
	numQTypes = 3    // NS, SOA, A of the zone's first NS host
)

// draw is one query of the mix.
type draw struct {
	rank  int // popularity rank of the origin, 0 = most popular
	qtype int // 0..numQTypes-1
	edns  bool
	miss  bool
	tcp   bool
	label uint64 // the random left label of a miss
}

// mix draws queries. Two mixes with the same seed and origin count
// draw the same sequence.
type mix struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newMix(seed int64, origins int) *mix {
	rng := rand.New(rand.NewSource(seed))
	return &mix{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(origins-1))}
}

func (m *mix) next() draw {
	d := draw{
		rank:  int(m.zipf.Uint64()),
		qtype: m.rng.Intn(numQTypes),
		edns:  m.rng.Float64() < ednsShare,
		miss:  m.rng.Float64() < missShare,
		tcp:   m.rng.Float64() < tcpShare,
	}
	if d.miss {
		d.label = m.rng.Uint64()
	}
	return d
}

// clock is the pacing sender's view of time, as an offset from the
// start of the phase; tests substitute a fake.
type clock interface {
	Now() time.Duration
	Sleep(time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }

// Sleep blocks in nanosleep(2) rather than time.Sleep: the runtime's
// timers ride on an epoll wait that rounds up to a millisecond (a 25 us
// time.Sleep took 1.1 ms in sizing, the raw call 0.1 ms), which is
// coarser than the gaps between queries, and spinning instead would
// take a processor from the server under test.
func (c wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // an early wake only makes openLoop wait again
}

// openLoop calls send for query i at or after its due time i/rate,
// whatever happened to earlier queries: a stall makes later queries
// late, it never moves their due times, so latency timed from due
// counts the wait a stall imposes. It returns how late each send began.
func openLoop(clk clock, rate float64, duration time.Duration, send func(i int, due time.Duration)) []time.Duration {
	n := int(rate * duration.Seconds())
	late := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) * float64(time.Second) / rate)
		for wait := due - clk.Now(); wait > 0; wait = due - clk.Now() {
			clk.Sleep(wait)
		}
		late[i] = max(clk.Now()-due, 0)
		send(i, due)
	}
	return late
}
