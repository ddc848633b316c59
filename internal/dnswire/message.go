package dnswire

import (
	"fmt"
	"strings"

	"govdns/internal/dnsname"
)

// Header is the fixed 12-byte DNS message header in decoded form.
type Header struct {
	ID                 uint16
	Response           bool
	Opcode             Opcode
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              RCode
}

// Question is the single entry of a DNS question section.
type Question struct {
	Name  dnsname.Name
	Type  Type
	Class Class
}

// String renders the question dig-style.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// Message is a decoded DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// NewQuery builds a standard query message for (name, type) with the given
// transaction ID. Queries to authoritative servers do not request
// recursion, matching the measurement client's behaviour.
func NewQuery(id uint16, name dnsname.Name, qtype Type) *Message {
	return &Message{
		Header: Header{
			ID:     id,
			Opcode: OpcodeQuery,
		},
		Questions: []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
}

// NewResponse builds a response skeleton for query q, copying the ID,
// question, and recursion-desired flag.
func NewResponse(q *Message) *Message {
	resp := &Message{
		Header: Header{
			ID:               q.Header.ID,
			Response:         true,
			Opcode:           q.Header.Opcode,
			RecursionDesired: q.Header.RecursionDesired,
		},
	}
	resp.Questions = append(resp.Questions, q.Questions...)
	return resp
}

// Question returns the first question, or a zero Question if none exists.
// Virtually all real DNS messages carry exactly one question.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// hasType reports whether any record in rrs has type t, without
// materialising the filtered slice.
func hasType(rrs []RR, t Type) bool {
	for _, rr := range rrs {
		if rr.Type() == t {
			return true
		}
	}
	return false
}

// IsReferral reports whether m is a delegation response: no answers, but NS
// records in the authority section for a zone below the queried server's
// apex, and the AA bit clear on the delegation point.
func (m *Message) IsReferral() bool {
	return m.Header.Response &&
		m.Header.RCode == RCodeNoError &&
		len(m.Answers) == 0 &&
		hasType(m.Authority, TypeNS)
}

// String renders a dig-like multi-line summary, useful in logs and
// test failures.
func (m *Message) String() string {
	var b strings.Builder
	kind := "query"
	if m.Header.Response {
		kind = "response"
	}
	fmt.Fprintf(&b, ";; %s id=%d opcode=%d rcode=%s aa=%v tc=%v rd=%v ra=%v\n",
		kind, m.Header.ID, m.Header.Opcode, m.Header.RCode,
		m.Header.Authoritative, m.Header.Truncated,
		m.Header.RecursionDesired, m.Header.RecursionAvailable)
	for _, q := range m.Questions {
		fmt.Fprintf(&b, ";; question: %s\n", q)
	}
	writeSection(&b, "answer", m.Answers)
	writeSection(&b, "authority", m.Authority)
	writeSection(&b, "additional", m.Additional)
	return b.String()
}

func writeSection(b *strings.Builder, label string, rrs []RR) {
	for _, rr := range rrs {
		fmt.Fprintf(b, ";; %s: %s\n", label, rr)
	}
}
