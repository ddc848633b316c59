package analysis

// The columnar PDNS analysis corpus: a one-time-compiled, read-only
// representation of a passive-DNS view that every yearly analysis
// consumes instead of re-indexing raw []pdns.RecordSet per figure.
//
// The compile step interns owner names and rdata strings into dense
// IDs (each rdata is parsed into a dnsname.Name exactly once, ever),
// lays NS records out as struct-of-arrays grouped by owner, and
// precomputes the per-(domain, year) NS-count mode for every study
// year in one event sweep over each owner's record-window edges (see
// sweepModes), for two edges per record instead of one step per active
// day.
// Year-invariant facts are memoized per interned ID: each owner's
// country index (Mapper.suffixIndex, one probe on the top-level domain
// and a suffix check per government suffix under it), each record's
// private-deployment bit, and each rdata's provider labels, interned
// as label IDs (rdataLabels).
//
// Determinism contract: owner IDs are indices into the canonically
// ordered name list (a view cut from a store snapshot arrives in that
// order and is only checked; any other view is sorted — internOwners)
// and rdata IDs follow first encounter in view order;
// every parallel phase of the compile and of Yearly writes disjoint,
// index-addressed output slots (the same index-ordered assembly
// discipline as the scanner's per-domain fan-out), so a corpus and
// everything computed from it are bit-identical across GOMAXPROCS
// settings.
//
// Equivalence is pinned, not assumed: every passive output over a set
// of generated stores is frozen in testdata/corpus.golden.jsonl
// (TestCorpusDifferential), and the per-(domain, year) mode is checked
// against a per-day reference kept in mode_ref_test.go.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
	"govdns/internal/providers"
	"govdns/internal/stats"
)

// Corpus is the compiled columnar form of one PDNS view. It is
// immutable after CompileCorpus and safe for concurrent use.
type Corpus struct {
	m                  *Mapper
	startYear, endYear int
	years              int
	yearFirst          []pdns.Day // per year index
	yearLast           []pdns.Day

	// Interned owner names in canonical (dnsname.Compare) order; an
	// owner's ID is its index.
	names []dnsname.Name

	// Interned NS rdata strings with their once-parsed hostnames.
	// hosts[id] is valid only when hostOK[id].
	rdatas []string
	hosts  []dnsname.Name
	hostOK []bool

	// NS records as struct-of-arrays grouped by owner: owner i's
	// records occupy [nsOff[i], nsOff[i+1]), preserving the view's
	// per-owner record order (sorted views keep rdata ascending).
	nsOff   []int32
	nsRData []int32
	nsFirst []pdns.Day
	nsLast  []pdns.Day
	// nsPrivate memoizes the year-invariant private-deployment bit per
	// record: rdata parses and the host falls under the owner's
	// government suffix (Mapper.isPrivateHost).
	nsPrivate []bool

	// nsOwners lists the owner IDs that have at least one NS record —
	// the domain population every figure iterates.
	nsOwners []int32

	// country memoizes Mapper.suffixIndex per owner: an index into the
	// mapper's country list (-1 = unmapped).
	country []int32

	// mode is the per-(owner, year) NS-count mode, row-major by owner:
	// among the days of the year with at least one NS record active, the
	// number of records active on the most of them, the smaller number
	// on a tie. 0 means the domain had no active NS day that year.
	mode []int32

	// activeNames counts, per year, the distinct owner names with any
	// record (of any type) active that year — pdnsq's -counts series.
	activeNames []int

	// Lazily computed provider labels per rdata ID for one catalog
	// (the study uses a single catalog; a different one recomputes).
	labelMu  sync.Mutex
	labelCat *providers.Catalog
	labels   *rdataLabels
}

// minChunk is the fewest items a chunk of a per-domain figure loop
// (perChunk) takes, so that a loop over fewer than twice as many runs
// as one chunk on the caller's goroutine: test-sized inputs stay serial
// and allocation-flat, and a worker is only started for enough work to
// pay for it.
const minChunk = 4096

// chunkCount returns how many chunks to split n items into: one per
// worker (GOMAXPROCS), but no more than leaves each chunk minSize items,
// and at least one. It depends only on n, minSize and GOMAXPROCS.
func chunkCount(n, minSize int) int {
	workers := runtime.GOMAXPROCS(0)
	if minSize > 1 {
		workers = min(workers, n/minSize)
	}
	return max(1, min(workers, n))
}

// forChunks cuts [0, n) into chunks contiguous, balanced pieces (their
// lengths differ by at most one) and runs fn(k, lo, hi) on each piece
// k = [lo, hi) concurrently; a single chunk runs on the caller's
// goroutine.
func forChunks(n, chunks int, fn func(k, lo, hi int)) {
	if chunks <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < chunks; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			fn(k, k*n/chunks, (k+1)*n/chunks)
		}(k)
	}
	wg.Wait()
}

// parallelChunks splits [0, n) into one contiguous chunk per worker
// and runs fn on each concurrently. Chunk boundaries depend only on n
// and GOMAXPROCS; callers write disjoint index ranges, so results are
// deterministic regardless of scheduling.
func parallelChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	forChunks(n, chunkCount(n, 1), func(_, lo, hi int) { fn(lo, hi) })
}

// perChunk runs fill over the chunks of [0, n), each at least minChunk
// long, concurrently and each into a zero T of its own, and returns the
// parts in chunk order. Chunk boundaries depend only on n and
// GOMAXPROCS, and the caller merges the parts in the order returned, so
// what it computes from them does not depend on scheduling; a merge
// that only adds counts or unions sets does not depend on the number
// of chunks either.
func perChunk[T any](n int, fill func(part *T, lo, hi int)) []T {
	parts := make([]T, chunkCount(n, minChunk))
	forChunks(n, len(parts), func(k, lo, hi int) { fill(&parts[k], lo, hi) })
	return parts
}

// CompileCorpus builds the columnar corpus for view over the study
// years [startYear, endYear]. The mapper may be nil when only
// type-agnostic queries (ActiveNamesPerYear) are needed; country and
// private-deployment columns are then empty.
func CompileCorpus(view *pdns.View, m *Mapper, startYear, endYear int) *Corpus {
	c := &Corpus{m: m, startYear: startYear, endYear: endYear}
	if endYear >= startYear {
		c.years = endYear - startYear + 1
	}
	c.yearFirst = make([]pdns.Day, c.years)
	c.yearLast = make([]pdns.Day, c.years)
	for y := 0; y < c.years; y++ {
		c.yearFirst[y], c.yearLast[y] = pdns.YearRange(startYear + y)
	}

	// Phase 1 — intern owner names so IDs (and therefore every
	// per-owner loop) follow canonical order.
	owner := c.internOwners(view.Sets)

	// Phase 2 — count NS records per owner and mark all-type year
	// activity bits.
	n := len(c.names)
	counts := make([]int32, n)
	words := (c.years + 63) / 64
	var activeBits []uint64
	if c.years > 0 {
		activeBits = make([]uint64, n*words)
	}
	nsTotal := 0
	for i := range view.Sets {
		rs := &view.Sets[i]
		id := int(owner[i])
		if c.years > 0 {
			c.markYears(activeBits[id*words:(id+1)*words], rs.FirstSeen, rs.LastSeen)
		}
		if rs.RRType == dnswire.TypeNS {
			counts[id]++
			nsTotal++
		}
	}
	c.activeNames = make([]int, c.years)
	for id := 0; id < n && c.years > 0; id++ {
		row := activeBits[id*words : (id+1)*words]
		for y := 0; y < c.years; y++ {
			if row[y/64]&(1<<(y%64)) != 0 {
				c.activeNames[y]++
			}
		}
	}

	// Phase 3 — offsets and fill; rdata interned in view order.
	c.nsOff = make([]int32, n+1)
	for i := 0; i < n; i++ {
		c.nsOff[i+1] = c.nsOff[i] + counts[i]
		if counts[i] > 0 {
			c.nsOwners = append(c.nsOwners, int32(i))
		}
	}
	c.nsRData = make([]int32, nsTotal)
	c.nsFirst = make([]pdns.Day, nsTotal)
	c.nsLast = make([]pdns.Day, nsTotal)
	c.nsPrivate = make([]bool, nsTotal)
	cursor := make([]int32, n)
	copy(cursor, c.nsOff[:n])
	rdataID := make(map[string]int32)
	for i := range view.Sets {
		rs := &view.Sets[i]
		if rs.RRType != dnswire.TypeNS {
			continue
		}
		id, ok := rdataID[rs.RData]
		if !ok {
			id = int32(len(c.rdatas))
			rdataID[rs.RData] = id
			c.rdatas = append(c.rdatas, rs.RData)
		}
		o := owner[i]
		p := cursor[o]
		cursor[o]++
		c.nsRData[p] = id
		c.nsFirst[p] = rs.FirstSeen
		c.nsLast[p] = rs.LastSeen
	}

	// Phase 4 — parse every distinct rdata exactly once (sharded).
	c.hosts = make([]dnsname.Name, len(c.rdatas))
	c.hostOK = make([]bool, len(c.rdatas))
	parallelChunks(len(c.rdatas), func(lo, hi int) {
		for id := lo; id < hi; id++ {
			if h, err := dnsname.Parse(c.rdatas[id]); err == nil {
				c.hosts[id], c.hostOK[id] = h, true
			}
		}
	})

	// Phase 5 — per-owner country index and per-record private bits
	// (sharded over NS owners; year-invariant, so computed once).
	c.country = make([]int32, n)
	for i := range c.country {
		c.country[i] = -1
	}
	if m != nil {
		parallelChunks(len(c.nsOwners), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				i := int(c.nsOwners[k])
				idx := m.suffixIndex(c.names[i])
				c.country[i] = int32(idx)
				if idx < 0 {
					continue
				}
				for r := c.nsOff[i]; r < c.nsOff[i+1]; r++ {
					id := c.nsRData[r]
					c.nsPrivate[r] = c.hostOK[id] && m.isPrivateHost(idx, c.hosts[id])
				}
			}
		})
	}

	// Phase 6 — the sweep: per-(owner, year) NS-count mode from the
	// owner's record-window edges.
	c.mode = make([]int32, n*c.years)
	if c.years > 0 {
		c.sweepModes()
	}
	return c
}

// internOwners fills c.names with the distinct owner names of sets in
// canonical order and returns each set's owner ID (its index in
// c.names). A view cut from a store snapshot already lists its owners
// in that order, which one pass of adjacent comparisons both checks
// and turns into IDs; only a view in some other order pays for a name
// map and a sort.
func (c *Corpus) internOwners(sets []pdns.RecordSet) []int32 {
	owner := make([]int32, len(sets))
	ordered := true
	for i := range sets {
		name := sets[i].RRName
		if n := len(c.names); n == 0 || name != c.names[n-1] {
			if n > 0 && dnsname.Compare(c.names[n-1], name) >= 0 {
				ordered = false
				break
			}
			c.names = append(c.names, name)
		}
		owner[i] = int32(len(c.names) - 1)
	}
	if ordered {
		return owner
	}
	id := make(map[dnsname.Name]int32, len(sets)/2+1)
	c.names = c.names[:0]
	for i := range sets {
		if _, ok := id[sets[i].RRName]; !ok {
			id[sets[i].RRName] = -1
			c.names = append(c.names, sets[i].RRName)
		}
	}
	slices.SortFunc(c.names, dnsname.Compare)
	for i, name := range c.names {
		id[name] = int32(i)
	}
	for i := range sets {
		owner[i] = id[sets[i].RRName]
	}
	return owner
}

// markYears sets the bit of every study year the window [first, last]
// overlaps. Calendar years partition days, so the overlapped years are
// exactly [first.Year(), last.Year()] clamped to the study span.
func (c *Corpus) markYears(bits []uint64, first, last pdns.Day) {
	if last < c.yearFirst[0] || first > c.yearLast[c.years-1] {
		return
	}
	fy := first.Year() - c.startYear
	if fy < 0 {
		fy = 0
	}
	ly := last.Year() - c.startYear
	if ly >= c.years {
		ly = c.years - 1
	}
	for y := fy; y <= ly; y++ {
		bits[y/64] |= 1 << (y % 64)
	}
}

// sweepModes fills c.mode with an event sweep per owner. The number of
// concurrently active NS records changes only at record-window edges,
// so the owner's windows (clipped to the study span) are cut into
// segments at their sorted first and last+1 days; each segment credits
// its length in days, split at year boundaries, to its running count
// in the years it overlaps. A year's mode is then the count with the
// most days, the smallest such count on a tie — the mode of the
// year's per-day counts, for 2 edges per record instead of one step per
// active day.
func (c *Corpus) sweepModes() {
	spanFirst := c.yearFirst[0]
	spanLast := c.yearLast[c.years-1]
	parallelChunks(len(c.nsOwners), func(lo, hi int) {
		// Scratch reused across the worker's owners: window edges, and
		// days[y*stride+v] = days of year y with v records active.
		var opens, closes []pdns.Day
		var days []int32
		for k := lo; k < hi; k++ {
			i := int(c.nsOwners[k])
			opens, closes = opens[:0], closes[:0]
			for r := c.nsOff[i]; r < c.nsOff[i+1]; r++ {
				f, l := c.nsFirst[r], c.nsLast[r]
				if l < spanFirst || f > spanLast || l < f {
					continue
				}
				opens = append(opens, max(f, spanFirst))
				closes = append(closes, min(l, spanLast)+1)
			}
			if len(opens) == 0 {
				continue
			}
			slices.Sort(opens)
			slices.Sort(closes)
			stride := len(opens) + 1
			if need := c.years * stride; need > len(days) {
				days = make([]int32, need)
			}

			// Walk the edges in day order; y follows the segments, which
			// only move forward.
			running, y := 0, 0
			oi, ci := 0, 0
			at := opens[0]
			for ci < len(closes) {
				next := closes[ci]
				if oi < len(opens) && opens[oi] < next {
					next = opens[oi]
				}
				// [at, next) is a segment with running records active.
				for from := at; running > 0 && from < next; {
					for from > c.yearLast[y] {
						y++
					}
					to := min(next-1, c.yearLast[y])
					days[y*stride+running] += int32(to-from) + 1
					from = to + 1
				}
				at = next
				for oi < len(opens) && opens[oi] == at {
					running++
					oi++
				}
				for ci < len(closes) && closes[ci] == at {
					running--
					ci++
				}
			}

			row := c.mode[i*c.years : (i+1)*c.years]
			for y := range row {
				tally := days[y*stride : (y+1)*stride]
				best, bestDays := 0, int32(0)
				for v := 1; v < stride; v++ {
					// Strict > keeps the smallest count on ties.
					if tally[v] > bestDays {
						best, bestDays = v, tally[v]
					}
					tally[v] = 0
				}
				row[y] = int32(best)
			}
		}
	})
}

// yearIndex converts a calendar year to the corpus row index, or
// panics: serving a year outside the compiled span would silently
// return zeros for a year the view may well cover.
func (c *Corpus) yearIndex(year int) int {
	y := year - c.startYear
	if y < 0 || y >= c.years {
		panic(fmt.Sprintf("analysis: year %d outside corpus span %d-%d", year, c.startYear, c.endYear))
	}
	return y
}

// modeAt returns the precomputed NS-count mode for (owner, year row).
func (c *Corpus) modeAt(owner, y int) int32 { return c.mode[owner*c.years+y] }

// overlapsYear reports whether NS record r's window intersects year
// row y.
func (c *Corpus) overlapsYear(r int32, y int) bool {
	return c.nsFirst[r] <= c.yearLast[y] && c.yearFirst[y] <= c.nsLast[r]
}

// YearStats aggregates one study year of PDNS data (Figs. 2, 3, 7).
// A domain counts in a year when it had an active NS record on at
// least one day of it.
type YearStats struct {
	Year int
	// Domains is the number of distinct names with active NS records.
	Domains int
	// Countries is the number of countries those names map to.
	Countries int
	// Nameservers is the number of distinct NS rdata strings active
	// that year on those names.
	Nameservers int
	// SingleNS is the number of d_1NS domains (NS-count mode == 1).
	SingleNS int
	// SingleNSPrivate counts d_1NS whose nameserver is in-government.
	SingleNSPrivate int
	// PrivateAll counts all domains whose nameservers that year are all
	// in-government: every active rdata parses and falls under the
	// domain's government suffix.
	PrivateAll int
}

// PrivateSinglePct returns the share of d_1NS using private deployments
// (Fig. 7's upper series).
func (y YearStats) PrivateSinglePct() float64 { return stats.Pct(y.SingleNSPrivate, y.SingleNS) }

// PrivateAllPct returns the share of all domains on private deployments
// (Fig. 7's lower series).
func (y YearStats) PrivateAllPct() float64 { return stats.Pct(y.PrivateAll, y.Domains) }

// Yearly computes YearStats for every corpus year, sharded across years
// with index-ordered assembly.
func (c *Corpus) Yearly() []YearStats {
	out := make([]YearStats, c.years)
	nCountries := 0
	if c.m != nil {
		nCountries = len(c.m.countries)
	}
	parallelChunks(c.years, func(lo, hi int) {
		// Epoch-marked scratch: one allocation per worker per call,
		// reused across the worker's years.
		countrySeen := make([]int32, nCountries)
		hostSeen := make([]int32, len(c.rdatas))
		for y := lo; y < hi; y++ {
			epoch := int32(y + 1)
			ys := YearStats{Year: c.startYear + y}
			for _, oi := range c.nsOwners {
				i := int(oi)
				mode := c.modeAt(i, y)
				if mode == 0 {
					continue
				}
				ys.Domains++
				if ci := c.country[i]; ci >= 0 && countrySeen[ci] != epoch {
					countrySeen[ci] = epoch
					ys.Countries++
				}
				private := true
				for r := c.nsOff[i]; r < c.nsOff[i+1]; r++ {
					if !c.overlapsYear(r, y) {
						continue
					}
					if id := c.nsRData[r]; hostSeen[id] != epoch {
						hostSeen[id] = epoch
						ys.Nameservers++
					}
					if !c.nsPrivate[r] {
						private = false
					}
				}
				// mode > 0 guarantees an overlapping record, so a
				// private domain always has at least one host.
				if private {
					ys.PrivateAll++
				}
				if mode == 1 {
					ys.SingleNS++
					if private {
						ys.SingleNSPrivate++
					}
				}
			}
			out[y] = ys
		}
	})
	return out
}

// DomainsPerCountry returns each country's domain count for one year
// (Fig. 4), keyed by country code; unmapped domains count nowhere.
func (c *Corpus) DomainsPerCountry(year int) map[string]int {
	y := c.yearIndex(year)
	out := make(map[string]int)
	for _, oi := range c.nsOwners {
		i := int(oi)
		if c.modeAt(i, y) == 0 {
			continue
		}
		if ci := c.country[i]; ci >= 0 {
			out[c.m.countries[ci].Code]++
		}
	}
	return out
}

// ChurnStats tracks the paper's Fig. 6 series for one year.
type ChurnStats struct {
	Year int
	// Total is the number of d_1NS that year.
	Total int
	// New is how many were not d_1NS the previous year.
	New int
	// FromBase is how many were already d_1NS in the base year (2011).
	FromBase int
	// BaseGone is how many of the base year's d_1NS are no longer
	// active (any NS count) this year.
	BaseGone int
	// BaseTotal is the base-year d_1NS population size.
	BaseTotal int
}

// NewPct returns the share of this year's d_1NS that are new.
func (c ChurnStats) NewPct() float64 { return stats.Pct(c.New, c.Total) }

// FromBasePct returns the share of the base year's d_1NS still
// single-NS this year.
func (c ChurnStats) FromBasePct() float64 { return stats.Pct(c.FromBase, c.BaseTotal) }

// BaseGonePct returns the share of the base year's d_1NS no longer
// active.
func (c ChurnStats) BaseGonePct() float64 { return stats.Pct(c.BaseGone, c.BaseTotal) }

// SingleNSChurn computes the Fig. 6 churn/overlap series over the
// corpus span (base year = the corpus start year), one entry per year
// after it, in one pass over the precomputed mode rows.
func (c *Corpus) SingleNSChurn() []ChurnStats {
	if c.years <= 1 {
		return nil
	}
	out := make([]ChurnStats, c.years-1)
	for y := 1; y < c.years; y++ {
		out[y-1].Year = c.startYear + y
	}
	baseTotal := 0
	for _, oi := range c.nsOwners {
		row := c.mode[int(oi)*c.years : (int(oi)+1)*c.years]
		base := row[0] == 1
		if base {
			baseTotal++
		}
		for y := 1; y < c.years; y++ {
			cs := &out[y-1]
			if row[y] == 1 {
				cs.Total++
				if row[y-1] != 1 {
					cs.New++
				}
				if base {
					cs.FromBase++
				}
			}
			if base && row[y] == 0 {
				cs.BaseGone++
			}
		}
	}
	for i := range out {
		out[i].BaseTotal = baseTotal
	}
	return out
}

// NameserversPerYear returns the number of distinct NS rdata strings
// active in each corpus year — Fig. 3's series over the whole view,
// with no per-domain mode gating. Distinctness per year is a bitset
// union over each rdata's record windows.
func (c *Corpus) NameserversPerYear() []int {
	out := make([]int, 0, c.years)
	if c.years == 0 {
		return out
	}
	words := (c.years + 63) / 64
	bits := make([]uint64, len(c.rdatas)*words)
	spanFirst, spanLast := c.yearFirst[0], c.yearLast[c.years-1]
	for r := range c.nsRData {
		f, l := c.nsFirst[r], c.nsLast[r]
		if l < spanFirst || f > spanLast {
			continue
		}
		fy := f.Year() - c.startYear
		if fy < 0 {
			fy = 0
		}
		ly := l.Year() - c.startYear
		if ly >= c.years {
			ly = c.years - 1
		}
		row := bits[int(c.nsRData[r])*words:]
		for y := fy; y <= ly; y++ {
			row[y/64] |= 1 << (y % 64)
		}
	}
	for y := 0; y < c.years; y++ {
		w, b := y/64, uint(y%64)
		count := 0
		for id := 0; id < len(c.rdatas); id++ {
			if bits[id*words+w]&(1<<b) != 0 {
				count++
			}
		}
		out = append(out, count)
	}
	return out
}

// ActiveNamesPerYear returns, per corpus year, the number of distinct
// owner names with any record (of any type) active that year — the
// series behind pdnsq's -counts mode. The slice is a copy.
func (c *Corpus) ActiveNamesPerYear() []int {
	return append([]int(nil), c.activeNames...)
}
