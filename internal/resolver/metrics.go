package resolver

import (
	"govdns/internal/obs"
)

// metrics holds the resolver's instrument handles on an obs.Registry.
// It is the single counter system behind both the programmatic Stats
// snapshot and the registry's JSON/HTTP form: the query-load and cache
// counters plus the per-attempt RTT histogram. The set is fixed — 16
// counter series however many servers a scan queries. What each server
// address did lives in the client's server table (one bounded record
// per address, the per-server outcome view Septiadi et al. build their
// resilience analysis on) and is read through Client.WorstServers, not
// exported as one metric series per address.
//
// A Client without an attached registry lazily creates a private one,
// so zero-configured clients keep working and Stats stays cheap; share
// one registry across components (client, scanner, chaos) with
// Client.AttachRegistry before first use.
type metrics struct {
	// Query-load counters (the former Client atomics).
	sent, received, timeouts, mismatches   *obs.Counter
	duplicates, truncations, qidMismatches *obs.Counter
	questionMismatches, malformed          *obs.Counter

	// Iterator cache and coalescing counters (the former Iterator
	// atomics; the flight counters are shared by the host and zone
	// tables). The zone_cache counters count what
	// Stats.ZoneCacheHits/ZoneCacheMisses document.
	hostHits, hostMisses, zoneHits, zoneMisses *obs.Counter
	negHits, coalesced, bypassed               *obs.Counter
	togetherGroups, askedTogether              *obs.Counter

	// rtt is the latency of every exchange stage, successful or not (a
	// timeout observes the full wait, and an attempt a simulated
	// transport expired at once its whole deadline): the datagram's
	// round trip plus the reply's validation, the same reading as the
	// exchange span.
	rtt *obs.Histogram
}

// newMetrics builds the resolver's instruments on r. Instruments are
// get-or-create, so two clients attached to one registry share counters.
//
// resolver_attempt_rtt is the exchange stage's duration: send, the
// wait, and the reply's decode and validation, the same interval as the
// exchange span's rtt attribute. It is wider than udpx_exchange_rtt,
// which stops when the batched transport demultiplexes the datagram, so
// the two histograms are not comparable bucket for bucket.
func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		sent:               r.Counter("resolver_sent_total"),
		received:           r.Counter("resolver_received_total"),
		timeouts:           r.Counter("resolver_timeouts_total"),
		mismatches:         r.Counter("resolver_mismatches_total"),
		duplicates:         r.Counter("resolver_duplicates_total"),
		truncations:        r.Counter("resolver_truncations_total"),
		qidMismatches:      r.Counter("resolver_qid_mismatches_total"),
		questionMismatches: r.Counter("resolver_question_mismatches_total"),
		malformed:          r.Counter("resolver_malformed_total"),
		hostHits:           r.Counter("resolver_host_cache_hits_total"),
		hostMisses:         r.Counter("resolver_host_cache_misses_total"),
		zoneHits:           r.Counter("resolver_zone_cache_hits_total"),
		zoneMisses:         r.Counter("resolver_zone_cache_misses_total"),
		negHits:            r.Counter("resolver_negative_hits_total"),
		coalesced:          r.Counter("resolver_coalesced_waits_total"),
		bypassed:           r.Counter("resolver_flight_bypasses_total"),
		togetherGroups:     r.Counter("resolver_together_groups_total"),
		askedTogether:      r.Counter("resolver_asked_together_total"),
		rtt:                r.Histogram("resolver_attempt_rtt"), // exchange stage, reply validation included
	}
}
