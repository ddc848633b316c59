package analysis

// The columnar PDNS analysis corpus: a one-time-compiled, read-only
// representation of a passive-DNS view that every yearly analysis
// consumes instead of re-indexing raw []pdns.RecordSet per figure.
//
// The compile step interns owner names and rdata strings into dense
// IDs (each rdata is parsed into a dnsname.Name exactly once, ever),
// lays NS records out as struct-of-arrays grouped by owner, and
// precomputes the per-(domain, year) NS-count mode for every study
// year in a single difference-array sweep over days — replacing
// NSDaily's O(window) per-day increment loop that the view-based
// analyses re-executed per figure per year. Year-invariant predicates
// (Mapper.CountryOf, Mapper.IsPrivateHost, provider identification)
// are memoized per interned ID.
//
// Determinism contract: owner IDs are assigned from the canonically
// sorted name list and rdata IDs from first encounter in view order;
// every parallel phase of the compile and of Yearly writes disjoint,
// index-addressed output slots (the same index-ordered assembly
// discipline as the scanner's per-domain fan-out), so a corpus and
// everything computed from it are bit-identical across GOMAXPROCS
// settings. The view-based implementations in this package are
// retained as the reference slow path; TestCorpusDifferential pins
// the equivalence.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
	"govdns/internal/pdns"
	"govdns/internal/providers"
)

// Corpus is the compiled columnar form of one PDNS view. It is
// immutable after CompileCorpus and safe for concurrent use.
type Corpus struct {
	m                  *Mapper
	startYear, endYear int
	years              int
	yearFirst          []pdns.Day // per year index
	yearLast           []pdns.Day

	// Interned owner names in canonical (dnsname.Compare) order;
	// nameID inverts the slice.
	names  []dnsname.Name
	nameID map[dnsname.Name]int32

	// Interned NS rdata strings with their once-parsed hostnames.
	// hosts[id] is valid only when hostOK[id].
	rdatas  []string
	rdataID map[string]int32
	hosts   []dnsname.Name
	hostOK  []bool

	// NS records as struct-of-arrays grouped by owner: owner i's
	// records occupy [nsOff[i], nsOff[i+1]), preserving the view's
	// per-owner record order (sorted views keep rdata ascending, the
	// order the reference implementations see).
	nsOff   []int32
	nsRData []int32
	nsFirst []pdns.Day
	nsLast  []pdns.Day
	// nsPrivate memoizes the year-invariant private-deployment bit per
	// record: rdata parses and the host falls under the owner's
	// government suffix (Mapper.IsPrivateHost).
	nsPrivate []bool

	// nsOwners lists the owner IDs that have at least one NS record —
	// the domain population every figure iterates.
	nsOwners []int32

	// country memoizes Mapper.CountryOf per owner as an index into the
	// mapper's country list (-1 = unmapped).
	country []int32

	// mode is the per-(owner, year) NS-count mode, row-major by owner;
	// 0 means the domain had no active NS day that year (NSModeForYear
	// !ok).
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

// parallelChunks splits [0, n) into one contiguous chunk per worker
// and runs fn on each concurrently. Chunk boundaries depend only on n
// and GOMAXPROCS; callers write disjoint index ranges, so results are
// deterministic regardless of scheduling.
func parallelChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
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

	// Phase 1 — intern owner names, sorted so IDs (and therefore every
	// per-owner loop) follow canonical order.
	c.nameID = make(map[dnsname.Name]int32, len(view.Sets)/2+1)
	for i := range view.Sets {
		name := view.Sets[i].RRName
		if _, ok := c.nameID[name]; !ok {
			c.nameID[name] = -1
			c.names = append(c.names, name)
		}
	}
	sort.Slice(c.names, func(i, j int) bool { return dnsname.Compare(c.names[i], c.names[j]) < 0 })
	for i, n := range c.names {
		c.nameID[n] = int32(i)
	}

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
		id := int(c.nameID[rs.RRName])
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
	c.rdataID = make(map[string]int32)
	for i := range view.Sets {
		rs := &view.Sets[i]
		if rs.RRType != dnswire.TypeNS {
			continue
		}
		id, ok := c.rdataID[rs.RData]
		if !ok {
			id = int32(len(c.rdatas))
			c.rdataID[rs.RData] = id
			c.rdatas = append(c.rdatas, rs.RData)
		}
		o := c.nameID[rs.RRName]
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
				name := c.names[i]
				c.country[i] = m.countryIndexOf(name)
				suffix, ok := m.SuffixOf(name)
				if !ok {
					continue
				}
				for r := c.nsOff[i]; r < c.nsOff[i+1]; r++ {
					id := c.nsRData[r]
					c.nsPrivate[r] = c.hostOK[id] && c.hosts[id].IsSubdomainOf(suffix)
				}
			}
		})
	}

	// Phase 6 — the sweep: per-(owner, year) NS-count mode from one
	// difference array over the owner's active day span.
	c.mode = make([]int32, n*c.years)
	if c.years > 0 {
		c.sweepModes()
	}
	return c
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

// sweepModes fills c.mode: for each owner one difference array over
// its clipped record windows, one prefix-sum pass over the touched day
// range, and a per-year frequency count whose smallest-most-frequent
// value is exactly stats.Mode of NSDaily — 2 writes per record plus
// one pass over active days, instead of per-day increments per record
// per year per figure.
func (c *Corpus) sweepModes() {
	spanFirst := c.yearFirst[0]
	spanLast := c.yearLast[c.years-1]
	spanDays := int(spanLast-spanFirst) + 1
	dayYear := make([]int16, spanDays)
	for y := 0; y < c.years; y++ {
		for d := c.yearFirst[y]; d <= c.yearLast[y]; d++ {
			dayYear[d-spanFirst] = int16(y)
		}
	}
	parallelChunks(len(c.nsOwners), func(lo, hi int) {
		diff := make([]int32, spanDays+1)
		freq := make([]int32, 8)
		for k := lo; k < hi; k++ {
			i := int(c.nsOwners[k])
			loD, hiD := spanDays, -1
			for r := c.nsOff[i]; r < c.nsOff[i+1]; r++ {
				f, l := c.nsFirst[r], c.nsLast[r]
				if l < spanFirst || f > spanLast {
					continue
				}
				if f < spanFirst {
					f = spanFirst
				}
				if l > spanLast {
					l = spanLast
				}
				fi, li := int(f-spanFirst), int(l-spanFirst)
				diff[fi]++
				diff[li+1]--
				if fi < loD {
					loD = fi
				}
				if li > hiD {
					hiD = li
				}
			}
			if hiD < 0 {
				continue
			}
			row := c.mode[i*c.years : (i+1)*c.years]
			running := int32(0)
			maxC := int32(0)
			curYear := int(dayYear[loD])
			flush := func(y int) {
				best, bestFreq := int32(0), int32(0)
				for v := int32(1); v <= maxC; v++ {
					// Strict > keeps the smallest value on ties,
					// matching stats.Mode.
					if freq[v] > bestFreq {
						best, bestFreq = v, freq[v]
					}
					freq[v] = 0
				}
				maxC = 0
				row[y] = best
			}
			for d := loD; d <= hiD; d++ {
				running += diff[d]
				diff[d] = 0
				if y := int(dayYear[d]); y != curYear {
					flush(curYear)
					curYear = y
				}
				if running == 0 {
					continue
				}
				for int(running) >= len(freq) {
					freq = append(freq, make([]int32, len(freq))...)
				}
				freq[running]++
				if running > maxC {
					maxC = running
				}
			}
			flush(curYear)
			diff[hiD+1] = 0
		}
	})
}

// StartYear returns the first study year the corpus covers.
func (c *Corpus) StartYear() int { return c.startYear }

// EndYear returns the last study year the corpus covers.
func (c *Corpus) EndYear() int { return c.endYear }

// NumDomains returns the number of owner names with NS records.
func (c *Corpus) NumDomains() int { return len(c.nsOwners) }

// NumNames returns the number of distinct owner names of any type.
func (c *Corpus) NumNames() int { return len(c.names) }

// NumRecords returns the number of NS record sets.
func (c *Corpus) NumRecords() int { return len(c.nsRData) }

// yearIndex converts a calendar year to the corpus row index, or
// panics: serving a year outside the compiled span would silently
// return zeros where the reference path computes real values.
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

// Yearly computes YearStats for every corpus year — the corpus-backed
// fast path of PDNSYearly, sharded across years with index-ordered
// assembly.
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
				// mode > 0 guarantees an overlapping record, so the
				// reference path's anyHost condition always holds here.
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

// DomainsPerCountry returns each country's domain count for one year —
// the corpus-backed fast path of the package-level DomainsPerCountry.
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

// SingleNSDomains returns the set of d_1NS for a year — the
// corpus-backed fast path of the package-level SingleNSDomains.
func (c *Corpus) SingleNSDomains(year int) map[dnsname.Name]bool {
	y := c.yearIndex(year)
	out := make(map[dnsname.Name]bool)
	for _, oi := range c.nsOwners {
		if c.modeAt(int(oi), y) == 1 {
			out[c.names[oi]] = true
		}
	}
	return out
}

// SingleNSChurn computes the Fig. 6 churn/overlap series over the
// corpus span (base year = the corpus start year) — the corpus-backed
// fast path of the package-level SingleNSChurn, one pass over the
// precomputed mode rows.
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
// active in each corpus year (Fig. 3's series over the whole view) —
// the corpus-backed fast path of the package-level NameserversPerYear.
// Distinctness per year is a bitset union over each rdata's record
// windows.
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
