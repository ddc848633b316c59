package obs

import (
	"encoding/json"
	"io"
	"time"
)

// RegistrySnapshot is the point-in-time JSON form of a registry: every
// counter (vec members flattened as name{label}), gauge, and histogram.
// Counters are sampled individually, not as a consistent cut — the same
// contract as resolver.Stats.
type RegistrySnapshot struct {
	// TakenAt stamps the snapshot (UTC).
	TakenAt time.Time `json:"taken_at"`
	// Counters maps counter names — and vec members as "name{label}" —
	// to their values. Zero-valued instruments are included so the
	// schema is stable across runs.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Gauges maps gauge names to their values.
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Histograms maps histogram names to their summarized state.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument in the registry. Nil-safe: a nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{TakenAt: time.Now().UTC()}
	if r == nil {
		return s
	}
	for _, name := range r.names() {
		switch inst := r.get(name).(type) {
		case *Counter:
			if s.Counters == nil {
				s.Counters = make(map[string]uint64)
			}
			s.Counters[name] = inst.Load()
		case *Gauge:
			if s.Gauges == nil {
				s.Gauges = make(map[string]int64)
			}
			s.Gauges[name] = inst.Load()
		case *Histogram:
			if s.Histograms == nil {
				s.Histograms = make(map[string]HistogramSnapshot)
			}
			s.Histograms[name] = inst.SnapshotHistogram()
		case *CounterVec:
			if s.Counters == nil {
				s.Counters = make(map[string]uint64)
			}
			inst.mu.RLock()
			for label, c := range inst.m {
				s.Counters[name+"{"+label+"}"] = c.Load()
			}
			inst.mu.RUnlock()
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. The /metrics JSON is
// diff-stable: encoding/json writes map keys in sorted order, so two
// snapshots of the same registry state are byte-identical apart from
// TakenAt.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
