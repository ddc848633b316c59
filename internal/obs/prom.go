package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Prometheus text exposition (format version 0.0.4) for the registry,
// served next to the JSON snapshot. The JSON form is the repo's own
// format (diff-stable, because encoding/json sorts map keys); this one
// exists so a stock Prometheus/Grafana stack can scrape a running
// daemon without a translation shim.
//
// Mapping:
//
//   - Counter        -> `# TYPE name counter` + one sample
//   - Gauge          -> `# TYPE name gauge` + one sample
//   - CounterVec     -> counter samples `name{key="label"} v`, labels in
//     sorted order; key is the vec's label key (see CounterVecKeyed)
//   - Histogram      -> `name_seconds` histogram with cumulative
//     `_bucket{le="..."}` samples, `+Inf`, `_sum`, `_count`. Histograms
//     in this codebase observe time.Durations, so bounds and sums are
//     converted from nanoseconds to the seconds base unit Prometheus
//     expects. Bucket bounds are this registry's exclusive upper bounds
//     reused as Prometheus's inclusive `le`; an observation exactly on a
//     power-of-two boundary is attributed one bucket higher than a
//     native Prometheus histogram would place it, which is within the
//     factor-of-two resolution the buckets promise anyway.
//
// Output is deterministic for a given registry state: metrics in sorted
// name order, labels sorted, floats in Go's shortest-round-trip form —
// pinned byte-for-byte by TestWritePromGolden.

// WriteProm writes every instrument in Prometheus text exposition
// format. Nil-safe: a nil registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, name := range r.names() {
		switch inst := r.get(name).(type) {
		case *Counter:
			fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", name, name, inst.Load())
		case *Gauge:
			fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", name, name, inst.Load())
		case *CounterVec:
			writePromVec(bw, name, inst)
		case *Histogram:
			writePromHistogram(bw, name, inst.SnapshotHistogram())
		}
	}
	return bw.Flush()
}

func writePromVec(bw *bufio.Writer, name string, vec *CounterVec) {
	key := vec.labelKey()
	fmt.Fprintf(bw, "# TYPE %s counter\n", name)
	vec.mu.RLock()
	labels := make([]string, 0, len(vec.m))
	for label := range vec.m {
		labels = append(labels, label)
	}
	counts := make(map[string]uint64, len(vec.m))
	for label, c := range vec.m {
		counts[label] = c.Load()
	}
	vec.mu.RUnlock()
	sort.Strings(labels)
	for _, label := range labels {
		fmt.Fprintf(bw, "%s{%s=\"%s\"} %d\n", name, key, escapeLabelValue(label), counts[label])
	}
}

func writePromHistogram(bw *bufio.Writer, name string, s HistogramSnapshot) {
	hname := name + "_seconds"
	fmt.Fprintf(bw, "# TYPE %s histogram\n", hname)
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.N
		fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", hname, promFloat(b.Le.Seconds()), cum)
	}
	fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", hname, s.Count)
	fmt.Fprintf(bw, "%s_sum %s\n", hname, promFloat(time.Duration(s.SumNS).Seconds()))
	fmt.Fprintf(bw, "%s_count %d\n", hname, s.Count)
}

// promFloat renders a float in Go's shortest form that round-trips —
// the same value every run, so the golden test can pin exposition bytes.
func promFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and line feed.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
