// Package geoip provides the study's substitute for MaxMind's GeoIP2 ASN
// database: a range-indexed IPv4 → (ASN, organisation) lookup table. The
// table is generated from the synthetic topology (internal/nettopo) and
// supports the same two lookups the paper needs for Table I — the ASN and
// the /24 prefix of each nameserver address.
package geoip

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"govdns/internal/nettopo"
)

// Lookup errors.
var (
	// ErrNotFound indicates the address is not covered by any range.
	ErrNotFound = errors.New("geoip: address not in database")
	// ErrBadFormat indicates a malformed CSV row during import.
	ErrBadFormat = errors.New("geoip: bad row")
)

// Record is the result of a lookup.
type Record struct {
	ASN uint32
	Org string
}

// DB is an immutable, binary-searchable ASN database.
type DB struct {
	starts []uint32
	ends   []uint32
	recs   []Record
}

// FromTopology builds a database from the topology's allocated ranges.
func FromTopology(t *nettopo.Topology) *DB {
	return fromRanges(t.Ranges())
}

func fromRanges(ranges []nettopo.Range) *DB {
	db := &DB{
		starts: make([]uint32, len(ranges)),
		ends:   make([]uint32, len(ranges)),
		recs:   make([]Record, len(ranges)),
	}
	for i, r := range ranges {
		db.starts[i] = r.Start
		db.ends[i] = r.End
		db.recs[i] = Record{ASN: r.ASN, Org: r.Org}
	}
	return db
}

// Len returns the number of ranges in the database.
func (db *DB) Len() int { return len(db.starts) }

// Lookup returns the ASN record covering addr.
func (db *DB) Lookup(addr netip.Addr) (Record, error) {
	i, ok := db.find(addr)
	switch {
	case ok:
		return db.recs[i], nil
	case !addr.Is4():
		return Record{}, fmt.Errorf("%w: %v is not IPv4", ErrNotFound, addr)
	}
	return Record{}, fmt.Errorf("%w: %v", ErrNotFound, addr)
}

// ASN is a convenience wrapper returning only the AS number, with ok=false
// when the address is unknown. Unlike Lookup, it allocates nothing for an
// unknown address.
func (db *DB) ASN(addr netip.Addr) (uint32, bool) {
	i, ok := db.find(addr)
	if !ok {
		return 0, false
	}
	return db.recs[i].ASN, true
}

// find returns the index of the range covering addr.
func (db *DB) find(addr netip.Addr) (int, bool) {
	if !addr.Is4() {
		return 0, false
	}
	v := nettopo.IPv4Value(addr)
	// First range with start > v, then step back one.
	i := sort.Search(len(db.starts), func(i int) bool { return db.starts[i] > v })
	if i == 0 || v > db.ends[i-1] {
		return 0, false
	}
	return i - 1, true
}

// WriteCSV exports the database in a MaxMind-like CSV schema:
// network_start,network_end,asn,organisation.
func (db *DB) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range db.starts {
		// Organisation names are Go-quoted (%q); ReadCSV unquotes them.
		if _, err := fmt.Fprintf(bw, "%s,%s,%d,%q\n",
			nettopo.IPv4(db.starts[i]), nettopo.IPv4(db.ends[i]), db.recs[i].ASN, db.recs[i].Org); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV imports a database written by WriteCSV. Rows must be IPv4
// ranges, sorted and non-overlapping, as WriteCSV produces them.
func ReadCSV(r io.Reader) (*DB, error) {
	var ranges []nettopo.Range
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, ",", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("%w: line %d has %d fields", ErrBadFormat, lineNo, len(parts))
		}
		start, err := netip.ParseAddr(parts[0])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d start: %v", ErrBadFormat, lineNo, err)
		}
		end, err := netip.ParseAddr(parts[1])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d end: %v", ErrBadFormat, lineNo, err)
		}
		if !start.Is4() || !end.Is4() {
			return nil, fmt.Errorf("%w: line %d: range %s-%s is not IPv4", ErrBadFormat, lineNo, start, end)
		}
		if end.Less(start) {
			return nil, fmt.Errorf("%w: line %d: range %s-%s ends before it starts", ErrBadFormat, lineNo, start, end)
		}
		asn, err := strconv.ParseUint(parts[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d asn: %v", ErrBadFormat, lineNo, err)
		}
		org, err := strconv.Unquote(parts[3])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d org: %v", ErrBadFormat, lineNo, err)
		}
		ranges = append(ranges, nettopo.Range{
			Start: nettopo.IPv4Value(start),
			End:   nettopo.IPv4Value(end),
			ASN:   uint32(asn),
			Org:   org,
		})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("geoip: reading CSV: %w", err)
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Start <= ranges[i-1].End {
			return nil, fmt.Errorf("%w: ranges unsorted or overlapping at row %d", ErrBadFormat, i+1)
		}
	}
	return fromRanges(ranges), nil
}
