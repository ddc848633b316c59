// Package dnswire implements the DNS message wire format of RFC 1035:
// header, question and resource-record encoding and decoding, including
// domain-name compression. It supports the record types the measurement
// study needs (A, NS, CNAME, SOA, PTR, MX, TXT, AAAA) and degrades
// gracefully on unknown types by carrying their RDATA opaquely.
package dnswire

import "fmt"

// Type is a DNS RR type code.
type Type uint16

// Resource record types used by the study.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	// TypeOPT is the EDNS0 OPT pseudo-record (RFC 6891). It never lives
	// in a zone; it rides the additional section to negotiate the UDP
	// payload size (see edns.go).
	TypeOPT Type = 41
	// TypeAXFR is the full-zone-transfer QTYPE (meta query type only;
	// answered over TCP, see internal/authserver xfr.go).
	TypeAXFR Type = 252
	// TypeANY is the QTYPE "*" (meta query type only).
	TypeANY Type = 255
)

// String returns the standard mnemonic for t.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeCSYNC:
		return "CSYNC"
	case TypeOPT:
		return "OPT"
	case TypeAXFR:
		return "AXFR"
	case TypeANY:
		return "ANY"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// ParseType maps a mnemonic back to a Type. It reports false for unknown
// mnemonics.
func ParseType(s string) (Type, bool) {
	switch s {
	case "A":
		return TypeA, true
	case "NS":
		return TypeNS, true
	case "CNAME":
		return TypeCNAME, true
	case "SOA":
		return TypeSOA, true
	case "PTR":
		return TypePTR, true
	case "MX":
		return TypeMX, true
	case "TXT":
		return TypeTXT, true
	case "AAAA":
		return TypeAAAA, true
	case "CSYNC":
		return TypeCSYNC, true
	case "OPT":
		return TypeOPT, true
	case "AXFR":
		return TypeAXFR, true
	case "ANY":
		return TypeANY, true
	default:
		return 0, false
	}
}

// Class is a DNS class code. Only IN is used in practice.
type Class uint16

// Classes.
const (
	ClassIN  Class = 1
	ClassANY Class = 255
)

// String returns the mnemonic for c.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassANY:
		return "ANY"
	default:
		return fmt.Sprintf("CLASS%d", uint16(c))
	}
}

// RCode is a DNS response code.
type RCode uint8

// Response codes (RFC 1035 §4.1.1).
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String returns the mnemonic for rc.
func (rc RCode) String() string {
	switch rc {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(rc))
	}
}

// Opcode is a DNS operation code.
type Opcode uint8

// OpcodeQuery is the standard query, the only opcode the study uses.
const OpcodeQuery Opcode = 0

// MaxUDPPayload is the classic DNS-over-UDP payload limit. The codec
// truncates answers beyond this and sets the TC bit, which the resolver
// surfaces as an error (the study's lookups all fit comfortably).
// EDNS0 raises the limit per-exchange (see edns.go); TC-bit fallback to
// TCP lifts it to MaxTCPPayload.
const MaxUDPPayload = 512

// MaxTCPPayload is the DNS message size limit over TCP, fixed by the
// two-byte length prefix of RFC 1035 §4.2.2 framing.
const MaxTCPPayload = 0xFFFF
