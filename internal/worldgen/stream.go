package worldgen

import (
	"sort"

	"govdns/internal/dnsname"
)

// QueryStream yields the scanner's input — every domain with passive
// activity reaching the final study year, plus ghost children — one
// name at a time in canonical dnsname.Compare order, without
// materializing a []dnsname.Name. The stream holds one int32 per
// emitted name (an index into the world's own tables) instead of a
// slice header plus string per entry, which is what keeps a 10M-domain
// world's query list from becoming a second copy of the corpus.
//
// buildQueryList drains a QueryStream to fill Active.QueryList, so the
// slice-based and streaming scan paths see identical input order by
// construction.
type QueryStream struct {
	w     *World
	order []int32 // >= 0: index into w.Domains; < 0: ^i into w.GhostNames
	pos   int
}

// NewQueryStream builds the emitter's order index over w. The index is
// int32 (4 bytes/name): enough for two billion names, far past the
// 10M-domain tier.
func NewQueryStream(w *World) *QueryStream {
	order := make([]int32, 0, len(w.Domains)+len(w.GhostNames))
	for i, d := range w.Domains {
		if d.Died == 0 || d.Died >= w.Cfg.EndYear-2 {
			order = append(order, int32(i))
		}
	}
	for i := range w.GhostNames {
		order = append(order, int32(^i))
	}
	qs := &QueryStream{w: w, order: order}
	sort.Slice(order, func(i, j int) bool {
		return dnsname.Compare(qs.name(order[i]), qs.name(order[j])) < 0
	})
	return qs
}

func (q *QueryStream) name(o int32) dnsname.Name {
	if o >= 0 {
		return q.w.Domains[o].Name
	}
	return q.w.GhostNames[^o]
}

// Len is the total number of names the stream yields.
func (q *QueryStream) Len() int { return len(q.order) }

// Next yields the next name in canonical order, ok=false at the end.
// The signature matches measure.DomainSource, so a stream feeds the
// scanner directly: scanner.ScanStream(ctx, qs.Next, sw).
func (q *QueryStream) Next() (dnsname.Name, bool) {
	if q.pos >= len(q.order) {
		return "", false
	}
	n := q.name(q.order[q.pos])
	q.pos++
	return n, true
}
