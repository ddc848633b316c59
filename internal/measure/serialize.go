package measure

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"slices"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

// The JSONL schema mirrors what bulk scanners like zdns emit: one domain
// result per line, self-contained, so scans can be archived and analyses
// re-run without re-measuring.

// resultJSON is the serialization shape of DomainResult.
type resultJSON struct {
	Domain              dnsname.Name        `json:"domain"`
	ParentZone          dnsname.Name        `json:"parent_zone,omitempty"`
	ParentResponded     bool                `json:"parent_responded"`
	ParentNS            []dnsname.Name      `json:"parent_ns,omitempty"`
	ParentAuthoritative bool                `json:"parent_aa,omitempty"`
	Addrs               map[string][]string `json:"addrs,omitempty"`
	Servers             []serverJSON        `json:"servers,omitempty"`
	Rounds              int                 `json:"rounds"`
	Err                 string              `json:"error,omitempty"`
	ErrTransient        bool                `json:"error_transient,omitempty"`
	Faults              *FaultCounts        `json:"faults,omitempty"`
}

type serverJSON struct {
	Host          dnsname.Name   `json:"host"`
	Addr          string         `json:"addr"`
	OK            bool           `json:"ok"`
	RCode         uint8          `json:"rcode,omitempty"`
	Authoritative bool           `json:"aa,omitempty"`
	NS            []dnsname.Name `json:"ns,omitempty"`
	Err           string         `json:"error,omitempty"`
}

// toResultJSON builds the serialization shape of r. Address lists are
// emitted in netip.Addr.Less order — the same canonical order the
// scanner holds them in memory — so that write → read → write is a
// byte identity and a reloaded scan digests identically to the live one
// (an earlier lexicographic string sort here reordered e.g. 9.0.0.2
// before 10.0.0.1 and quietly broke both properties).
func toResultJSON(r *DomainResult) resultJSON {
	out := resultJSON{
		Domain:              r.Domain,
		ParentZone:          r.ParentZone,
		ParentResponded:     r.ParentResponded,
		ParentNS:            r.ParentNS,
		ParentAuthoritative: r.ParentAuthoritative,
		Rounds:              r.Rounds,
		Err:                 r.Err,
		ErrTransient:        r.ErrTransient,
	}
	if r.Faults != (FaultCounts{}) {
		f := r.Faults
		out.Faults = &f
	}
	if len(r.Addrs) > 0 {
		out.Addrs = make(map[string][]string, len(r.Addrs))
		for host, addrs := range r.Addrs {
			sorted := append([]netip.Addr(nil), addrs...)
			slices.SortFunc(sorted, netip.Addr.Compare)
			strs := make([]string, len(sorted))
			for j, a := range sorted {
				strs[j] = a.String()
			}
			out.Addrs[string(host)] = strs
		}
	}
	for _, sr := range r.Servers {
		sj := serverJSON{
			Host: sr.Host, OK: sr.OK, RCode: uint8(sr.RCode),
			Authoritative: sr.Authoritative, NS: sr.NS, Err: sr.Err,
		}
		if sr.Addr.IsValid() {
			sj.Addr = sr.Addr.String()
		}
		out.Servers = append(out.Servers, sj)
	}
	return out
}

// fromResultJSON rebuilds an in-memory result. Address lists are
// re-sorted into netip.Addr.Less order on the way in, so archives
// written before the order was canonicalized still load canonically.
func fromResultJSON(in *resultJSON) (*DomainResult, error) {
	out := &DomainResult{
		Domain:              in.Domain,
		ParentZone:          in.ParentZone,
		ParentResponded:     in.ParentResponded,
		ParentNS:            in.ParentNS,
		ParentAuthoritative: in.ParentAuthoritative,
		Addrs:               make(map[dnsname.Name][]netip.Addr, len(in.Addrs)),
		Rounds:              in.Rounds,
		Err:                 in.Err,
		ErrTransient:        in.ErrTransient,
	}
	if in.Faults != nil {
		out.Faults = *in.Faults
	}
	for host, strs := range in.Addrs {
		name, err := dnsname.Parse(host)
		if err != nil {
			return nil, fmt.Errorf("host %q: %w", host, err)
		}
		var addrs []netip.Addr
		for _, s := range strs {
			a, err := netip.ParseAddr(s)
			if err != nil {
				return nil, fmt.Errorf("addr %q: %w", s, err)
			}
			addrs = append(addrs, a)
		}
		slices.SortFunc(addrs, netip.Addr.Compare)
		out.Addrs[name] = addrs
	}
	for _, sj := range in.Servers {
		sr := ServerResponse{
			Host: sj.Host, OK: sj.OK, RCode: dnswire.RCode(sj.RCode),
			Authoritative: sj.Authoritative, NS: sj.NS, Err: sj.Err,
		}
		if sj.Addr != "" {
			a, err := netip.ParseAddr(sj.Addr)
			if err != nil {
				return nil, fmt.Errorf("server addr %q: %w", sj.Addr, err)
			}
			sr.Addr = a
		}
		out.Servers = append(out.Servers, sr)
	}
	return out, nil
}

// WriteJSONL streams results as JSON lines. The bytes are identical to
// what a StreamWriter fed the same results emits, which is what the
// slice-vs-stream differential pins.
func WriteJSONL(w io.Writer, results []*DomainResult) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, r := range results {
		if r == nil {
			continue
		}
		out := toResultJSON(r)
		if err := enc.Encode(&out); err != nil {
			return fmt.Errorf("measure: encoding result %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL loads results written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]*DomainResult, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var results []*DomainResult
	line := 0
	for dec.More() {
		line++
		var in resultJSON
		if err := dec.Decode(&in); err != nil {
			return nil, fmt.Errorf("measure: decoding result %d: %w", line, err)
		}
		out, err := fromResultJSON(&in)
		if err != nil {
			return nil, fmt.Errorf("measure: result %d: %w", line, err)
		}
		results = append(results, out)
	}
	return results, nil
}
