package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's own wrappers
// around a call into a layer. Times are nanoseconds since the log's
// start. Spans of one domain or query share Trace.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Trace  int32  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) now() int64 { return time.Since(l.t0).Nanoseconds() }

func (l *spanLog) start(trace, parent int32, name string) int32 {
	now := l.now()
	l.mu.Lock()
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now})
	l.mu.Unlock()
	return id
}

func (l *spanLog) end(id int32, attr string) {
	now := l.now()
	l.mu.Lock()
	l.spans[id].End = now
	l.spans[id].Attr = attr
	l.mu.Unlock()
}

// add records a span whose times were taken elsewhere.
func (l *spanLog) add(trace, parent int32, name string, start, end int64, attr string) int32 {
	l.mu.Lock()
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end, Attr: attr})
	l.mu.Unlock()
	return id
}

// maxSpansWritten bounds a span file (about 12 MB): the aggregates are
// computed over every span in memory, the file is for reading.
const maxSpansWritten = 100000

// writeJSONL writes the first maxSpansWritten spans and returns how
// many it wrote.
func (l *spanLog) writeJSONL(path string) (int, error) {
	n := min(len(l.spans), maxSpansWritten)
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans[:n] {
		if err := enc.Encode(&l.spans[i]); err != nil {
			_ = f.Close()
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return 0, err
	}
	return n, f.Close()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Overlapping children are
// counted once (interval union), and a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	children := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := children[s.ID]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := int64(0), s.Start
		for _, c := range ivs {
			a, b := max(c.a, reach), min(c.b, s.End)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		self[i] -= covered
	}
	return self
}

type spanCtxKey struct{}

// spanRef names the span (and its log) that calls made under a context
// belong to.
type spanRef struct {
	log   *spanLog
	trace int32
	id    int32
}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, ref)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanCtxKey{}).(spanRef)
	return ref, ok
}
