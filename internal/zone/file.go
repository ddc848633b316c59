package zone

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"govdns/internal/dnsname"
	"govdns/internal/dnswire"
)

// ErrParse indicates a master-file syntax error.
var ErrParse = errors.New("zone: parse error")

// ParseFile reads a zone in RFC 1035 master-file format. Supported
// features: $ORIGIN and $TTL directives, "@" for the origin, relative
// names, per-record TTLs, optional class, comments, and the record types
// the codec understands. Multi-line parentheses are supported for SOA.
func ParseFile(r io.Reader, defaultOrigin dnsname.Name) (*Zone, error) {
	p := &fileParser{
		origin:     defaultOrigin,
		defaultTTL: 3600,
	}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 64*1024), 1024*1024)

	lineNo := 0
	var pending strings.Builder
	depth := 0
	for scanner.Scan() {
		lineNo++
		line := stripComment(scanner.Text())
		depth += strings.Count(line, "(") - strings.Count(line, ")")
		if depth < 0 {
			return nil, fmt.Errorf("%w: line %d: unbalanced parentheses", ErrParse, lineNo)
		}
		pending.WriteString(line)
		pending.WriteByte(' ')
		if depth > 0 {
			continue
		}
		full := strings.NewReplacer("(", " ", ")", " ").Replace(pending.String())
		pending.Reset()
		if strings.TrimSpace(full) == "" {
			continue
		}
		if err := p.line(full); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrParse, lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("zone: reading input: %w", err)
	}
	if depth != 0 {
		return nil, fmt.Errorf("%w: unterminated parentheses", ErrParse)
	}
	if p.zone == nil {
		return nil, fmt.Errorf("%w: no records", ErrParse)
	}
	return p.zone.Freeze(), nil
}

func stripComment(line string) string {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inQuote = !inQuote
		case ';':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

type fileParser struct {
	origin     dnsname.Name
	defaultTTL uint32
	lastOwner  dnsname.Name
	zone       *Builder
}

func (p *fileParser) line(s string) error {
	ownerIsImplicit := len(s) > 0 && (s[0] == ' ' || s[0] == '\t')
	fields := splitFields(s)
	if len(fields) == 0 {
		return nil
	}

	switch fields[0] {
	case "$ORIGIN":
		if len(fields) != 2 {
			return errors.New("$ORIGIN needs one argument")
		}
		origin, err := dnsname.Parse(fields[1])
		if err != nil {
			return err
		}
		p.origin = origin
		return nil
	case "$TTL":
		if len(fields) != 2 {
			return errors.New("$TTL needs one argument")
		}
		ttl, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad $TTL: %v", err)
		}
		p.defaultTTL = uint32(ttl)
		return nil
	}

	var owner dnsname.Name
	var err error
	if ownerIsImplicit {
		if p.lastOwner == "" {
			return errors.New("record with implicit owner before any owner")
		}
		owner = p.lastOwner
	} else {
		owner, err = p.resolveName(fields[0])
		if err != nil {
			return err
		}
		fields = fields[1:]
	}
	p.lastOwner = owner

	ttl := p.defaultTTL
	// Optional TTL and class may appear in either order before the type.
	for len(fields) > 0 {
		if v, err := strconv.ParseUint(fields[0], 10, 32); err == nil {
			ttl = uint32(v)
			fields = fields[1:]
			continue
		}
		if fields[0] == "IN" || fields[0] == "CH" || fields[0] == "HS" {
			fields = fields[1:]
			continue
		}
		break
	}
	if len(fields) == 0 {
		return errors.New("record without type")
	}
	rtype, ok := dnswire.ParseType(fields[0])
	if !ok {
		return fmt.Errorf("unsupported record type %q", fields[0])
	}
	data, err := p.rdata(rtype, fields[1:])
	if err != nil {
		return err
	}
	if p.zone == nil {
		p.zone = NewBuilder(p.origin)
	}
	return p.zone.Add(dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: ttl, Data: data})
}

// arity is the RDATA field count of each record type but TXT, which
// takes one string or more.
var arity = map[dnswire.Type]int{
	dnswire.TypeNS: 1, dnswire.TypeCNAME: 1, dnswire.TypePTR: 1, dnswire.TypeA: 1,
	dnswire.TypeAAAA: 1, dnswire.TypeMX: 2, dnswire.TypeSOA: 7,
}

func (p *fileParser) rdata(rtype dnswire.Type, args []string) (dnswire.RData, error) {
	if n, ok := arity[rtype]; ok && len(args) != n {
		return nil, fmt.Errorf("%s needs %d fields, got %d", rtype, n, len(args))
	}
	switch rtype {
	case dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypePTR:
		target, err := p.resolveName(args[0])
		switch rtype {
		case dnswire.TypeNS:
			return dnswire.NSData{Host: target}, err
		case dnswire.TypeCNAME:
			return dnswire.CNAMEData{Target: target}, err
		}
		return dnswire.PTRData{Target: target}, err
	case dnswire.TypeA, dnswire.TypeAAAA:
		addr, err := netip.ParseAddr(args[0])
		if err != nil || addr.Is4() != (rtype == dnswire.TypeA) {
			return nil, fmt.Errorf("bad %s address %q", rtype, args[0])
		}
		if rtype == dnswire.TypeA {
			return dnswire.AData{Addr: addr}, nil
		}
		return dnswire.AAAAData{Addr: addr}, nil
	case dnswire.TypeMX:
		pref, err := strconv.ParseUint(args[0], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad MX preference %q", args[0])
		}
		exch, err := p.resolveName(args[1])
		return dnswire.MXData{Preference: uint16(pref), Exchange: exch}, err
	case dnswire.TypeTXT:
		if len(args) == 0 {
			return nil, errors.New("TXT needs at least one string")
		}
		strs := make([]string, len(args))
		for i, a := range args {
			// No escapes: a string is read verbatim, so one cannot hold
			// the quote that delimits it.
			if strs[i] = strings.Trim(a, `"`); strings.Contains(strs[i], `"`) {
				return nil, fmt.Errorf("TXT string %s has an inner quote", a)
			}
		}
		return dnswire.TXTData{Strings: strs}, nil
	case dnswire.TypeSOA:
		mname, err := p.resolveName(args[0])
		if err != nil {
			return nil, err
		}
		rname, err := p.resolveName(args[1])
		if err != nil {
			return nil, err
		}
		var vals [5]uint32
		for i := 0; i < 5; i++ {
			v, err := strconv.ParseUint(args[2+i], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad SOA field %q", args[2+i])
			}
			vals[i] = uint32(v)
		}
		return dnswire.SOAData{
			MName: mname, RName: rname,
			Serial: vals[0], Refresh: vals[1], Retry: vals[2],
			Expire: vals[3], Minimum: vals[4],
		}, nil
	default:
		return nil, fmt.Errorf("unsupported record type %s", rtype)
	}
}

// resolveName interprets a master-file name token: "@" is the origin,
// names ending in "." are absolute, others are relative to the origin.
func (p *fileParser) resolveName(token string) (dnsname.Name, error) {
	switch {
	case token == "@":
		return p.origin, nil
	case strings.HasSuffix(token, "."):
		return dnsname.Parse(token)
	case p.origin.IsRoot():
		return dnsname.Parse(token)
	default:
		return dnsname.Parse(token + "." + string(p.origin))
	}
}

// splitFields splits on whitespace but keeps quoted strings intact.
func splitFields(s string) []string {
	var fields []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			fields = append(fields, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case (c == ' ' || c == '\t') && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return fields
}

// WriteFile serialises z in master-file format, with $ORIGIN/$TTL
// directives and names relative to the origin where possible. The output
// round-trips through ParseFile.
func WriteFile(w io.Writer, z *Zone) error {
	records := z.Records()
	if _, err := fmt.Fprintf(w, "$ORIGIN %s\n$TTL 3600\n", z.Origin()); err != nil {
		return err
	}
	for _, rr := range records {
		owner, ok := dnsname.TrimOrigin(rr.Name, z.Origin())
		if !ok {
			owner = rr.Name.String()
		}
		if _, err := fmt.Fprintf(w, "%s\t%d\tIN\t%s\t%s\n",
			owner, rr.TTL, rr.Type(), presentRData(rr.Data)); err != nil {
			return err
		}
	}
	return nil
}

// presentRData renders RDATA with absolute names so the output is
// origin-independent. TXT strings go out verbatim between plain quotes,
// the form ParseFile reads back byte for byte; TXTData.String's Go
// quoting would add escapes it does not undo.
func presentRData(data dnswire.RData) string {
	if txt, ok := data.(dnswire.TXTData); ok {
		return `"` + strings.Join(txt.Strings, `" "`) + `"`
	}
	return data.String()
}
