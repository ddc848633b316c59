package chaos

import (
	"bytes"

	"govdns/internal/dnswire"
)

// The exported wire mutators are functions over wire-format messages,
// exported separately from Transport so fuzz targets can seed their
// corpora with chaos-shaped packets. TruncateWire and
// MismatchQuestionWire return a fresh slice; the *InPlace ones patch
// the slice they are given, as the Transport owns the response buffer
// its inner transport returned. Each mutation is guaranteed
// *detectable*: a validating client can always reject the result by
// transaction ID, QR bit, question section, TC bit, or RCODE —
// corruption subtle enough to pass all of those is indistinguishable
// from a legitimate answer and no resolver can defend against it.

// wirePool supplies codec arenas for the mutators that re-encode
// (truncation, question rewriting) rather than patch bytes.
var wirePool = dnswire.NewPool()

// CorruptQIDWireInPlace flips bits in the message's transaction ID,
// modifying and returning wire. The XOR patterns are non-zero in both
// bytes, so the result never equals the original ID.
func CorruptQIDWireInPlace(wire []byte) []byte {
	if len(wire) >= 2 {
		wire[0] ^= 0xA5
		wire[1] ^= 0x5A
	}
	return wire
}

// FlipRCodeWireInPlace rewrites the header RCODE nibble, modifying and
// returning wire.
func FlipRCodeWireInPlace(wire []byte, rcode dnswire.RCode) []byte {
	if len(wire) >= 4 {
		wire[3] = wire[3]&0xF0 | byte(rcode)&0x0F
	}
	return wire
}

// TruncateWire models truncation at the 512-byte UDP boundary: the TC
// bit is set and every record section is dropped, leaving only the
// header and question (what a server sends when nothing else fits).
// Wire images that do not decode just get the TC bit set on a copy.
func TruncateWire(wire []byte) []byte {
	a := wirePool.Get()
	defer a.Finish()
	m, err := a.Decode(wire)
	if err != nil {
		return setTCOnCopy(wire)
	}
	m.Header.Truncated = true
	m.Answers, m.Authority, m.Additional = nil, nil, nil
	out, err := a.Encode(m)
	if err != nil {
		return setTCOnCopy(wire)
	}
	return append([]byte(nil), out...)
}

func setTCOnCopy(wire []byte) []byte {
	out := append([]byte(nil), wire...)
	if len(out) >= 3 {
		out[2] |= 0x02
	}
	return out
}

// MismatchQuestionWire rewrites the echoed question so it no longer
// matches the query: the question type is XOR-perturbed (staying
// well-formed and encodable for any name length, unlike label
// rewriting). Undecodable wire images fall back to CorruptQID.
func MismatchQuestionWire(wire []byte) []byte {
	a := wirePool.Get()
	defer a.Finish()
	m, err := a.Decode(wire)
	if err != nil || len(m.Questions) == 0 {
		return CorruptQIDWireInPlace(bytes.Clone(wire))
	}
	m.Questions[0].Type ^= 0x55
	out, err := a.Encode(m)
	if err != nil {
		return CorruptQIDWireInPlace(bytes.Clone(wire))
	}
	return append([]byte(nil), out...)
}

// MangleWireInPlace applies seeded byte-level corruption, modifying and
// returning wire: the QR bit is cleared (so the packet can never be
// mistaken for a valid response) and up to three bytes chosen from h are
// XOR-flipped anywhere in the image — lengths, names, counts, RDATA —
// to exercise decoder robustness.
func MangleWireInPlace(h uint64, wire []byte) []byte {
	if len(wire) >= 3 {
		wire[2] &^= 0x80 // clear QR
	}
	if len(wire) == 0 {
		return wire
	}
	flips := 1 + int(h%3)
	for i := 0; i < flips; i++ {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 29
		pos := int(h % uint64(len(wire)))
		pat := byte(h>>8) | 1 // never a zero XOR
		wire[pos] ^= pat
		if pos == 2 {
			wire[2] &^= 0x80 // keep QR clear even if the flip landed here
		}
	}
	return wire
}
