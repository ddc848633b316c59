package measure

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"strconv"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

// The JSONL schema mirrors what bulk scanners like zdns emit: one domain
// result per line, self-contained, so scans can be archived and analyses
// re-run without re-measuring.

// resultJSON is the shape a result line decodes into; appendResultJSON
// writes the same shape by hand.
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

// jsonlEncoder renders results as their JSONL lines. It is the one
// writer of the line format: StreamWriter, WriteJSONL and resume's
// canonical-tail check all render through it. Its sort scratch is
// reused from result to result, so a warm encoder allocates nothing.
type jsonlEncoder struct{ sortScratch }

// appendResultJSON appends r's line to dst: exactly the bytes
// json.Encoder writes for resultJSON (FuzzResultJSON pins this), with
// its field order, its omitempty rules and its trailing newline. Hosts
// go in byte order, as encoding/json orders map keys, and each host's
// addresses in netip.Addr.Compare order, the same canonical order the
// scanner holds them in memory, so that write → read → write is a byte
// identity and a reloaded scan digests identically to the live one (an
// earlier lexicographic string sort reordered e.g. 9.0.0.2 before
// 10.0.0.1 and quietly broke both properties). An unresolved host
// writes [], never null.
func (e *jsonlEncoder) appendResultJSON(dst []byte, r *DomainResult) []byte {
	dst = append(dst, `{"domain":`...)
	dst = appendJSONString(dst, string(r.Domain))
	if r.ParentZone != "" {
		dst = append(dst, `,"parent_zone":`...)
		dst = appendJSONString(dst, string(r.ParentZone))
	}
	dst = append(dst, `,"parent_responded":`...)
	dst = strconv.AppendBool(dst, r.ParentResponded)
	if len(r.ParentNS) > 0 {
		dst = append(dst, `,"parent_ns":`...)
		dst = appendJSONNames(dst, r.ParentNS)
	}
	if r.ParentAuthoritative {
		dst = append(dst, `,"parent_aa":true`...)
	}
	if len(r.Addrs) > 0 {
		dst = append(dst, `,"addrs":{`...)
		for i, h := range e.sortedHosts(r.Addrs, cmp.Compare[dnsname.Name]) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, string(h.Host))
			dst = append(dst, ":["...)
			for j, a := range e.sortedAddrs(h.Addrs) {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = appendJSONAddr(dst, a)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, '}')
	}
	if len(r.Servers) > 0 {
		dst = append(dst, `,"servers":[`...)
		for i := range r.Servers {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendServerJSON(dst, &r.Servers[i])
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"rounds":`...)
	dst = strconv.AppendInt(dst, int64(r.Rounds), 10)
	if r.Err != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, r.Err)
	}
	if r.ErrTransient {
		dst = append(dst, `,"error_transient":true`...)
	}
	if r.Faults != (FaultCounts{}) {
		dst = append(dst, `,"faults":{`...)
		sep := false
		r.Faults.Each(func(key string, n uint64) {
			if n == 0 {
				return
			}
			if sep {
				dst = append(dst, ',')
			}
			sep = true
			dst = append(dst, '"')
			dst = append(dst, key...)
			dst = append(dst, `":`...)
			dst = strconv.AppendUint(dst, n, 10)
		})
		dst = append(dst, '}')
	}
	return append(dst, "}\n"...)
}

func appendServerJSON(dst []byte, sr *ServerResponse) []byte {
	dst = append(dst, `{"host":`...)
	dst = appendJSONString(dst, string(sr.Host))
	dst = append(dst, `,"addr":`...)
	if sr.Addr.IsValid() {
		dst = appendJSONAddr(dst, sr.Addr)
	} else {
		dst = append(dst, `""`...)
	}
	dst = append(dst, `,"ok":`...)
	dst = strconv.AppendBool(dst, sr.OK)
	if sr.RCode != 0 {
		dst = append(dst, `,"rcode":`...)
		dst = strconv.AppendUint(dst, uint64(sr.RCode), 10)
	}
	if sr.Authoritative {
		dst = append(dst, `,"aa":true`...)
	}
	if len(sr.NS) > 0 {
		dst = append(dst, `,"ns":`...)
		dst = appendJSONNames(dst, sr.NS)
	}
	if sr.Err != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, sr.Err)
	}
	return append(dst, '}')
}

func appendJSONNames(dst []byte, ns []dnsname.Name) []byte {
	dst = append(dst, '[')
	for i, n := range ns {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, string(n))
	}
	return append(dst, ']')
}

// appendJSONAddr appends a's String form as a JSON string. An unzoned
// address is digits, dots and colons, written by AppendTo in place; an
// invalid or zoned one (a zone may hold any byte) takes the string path.
func appendJSONAddr(dst []byte, a netip.Addr) []byte {
	if !a.IsValid() || a.Zone() != "" {
		return appendJSONString(dst, a.String())
	}
	dst = append(dst, '"')
	dst = a.AppendTo(dst)
	return append(dst, '"')
}

// appendJSONString appends s as a JSON string, escaped exactly as
// encoding/json escapes it. Printable ASCII other than ", \ and the
// HTML-escaped <, > and & is written as it is, which covers every name
// and address the scanner produces and most errors (a walk failure
// quotes the names it was after); any other string is appended from
// json.Marshal, so the escaping is encoding/json's by construction.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// fromResultJSON rebuilds an in-memory result. Hosts are put in
// dnsname.Compare order, as a scan holds them; two spellings of one
// host are an error. Address lists are re-sorted into netip.Addr.Less
// order on the way in, so archives written before the order was
// canonicalized still load canonically.
func fromResultJSON(in *resultJSON) (*DomainResult, error) {
	out := &DomainResult{
		Domain:              in.Domain,
		ParentZone:          in.ParentZone,
		ParentResponded:     in.ParentResponded,
		ParentNS:            in.ParentNS,
		ParentAuthoritative: in.ParentAuthoritative,
		Addrs:               make([]HostAddrs, 0, len(in.Addrs)),
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
		out.Addrs = append(out.Addrs, HostAddrs{Host: name, Addrs: addrs})
	}
	slices.SortFunc(out.Addrs, func(a, b HostAddrs) int { return dnsname.Compare(a.Host, b.Host) })
	for i := 1; i < len(out.Addrs); i++ {
		if out.Addrs[i].Host == out.Addrs[i-1].Host {
			return nil, fmt.Errorf("host %q: listed twice", out.Addrs[i].Host)
		}
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
	var enc jsonlEncoder
	var line []byte
	for i, r := range results {
		if r == nil {
			continue
		}
		line = enc.appendResultJSON(line[:0], r)
		if _, err := bw.Write(line); err != nil {
			return fmt.Errorf("measure: writing result %d: %w", i, err)
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
