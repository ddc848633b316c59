package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints, with exactly the keys
// the driver's contract names.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// The workloads are chosen so that no operation fails: nothing on the
// healthy lists can time out, a scan pass the host stalled in is set
// aside and run again (scanEnv.steady), and the load generator never
// has more in flight than the socket buffers hold. What is still
// counted as failed is transient by construction - a domain that
// differed from the reference in a seventh disturbed pass, a query lost
// or answered a second late - and a nonzero count means the host was
// not fit to measure on. A wrong answer that repeats is not a failed
// operation but a structural failure (report.broken).
const (
	// failedWatch is the failed share above which a run is worth a
	// second look (issue 11's regression line); it is printed.
	failedWatch = 5e-4
	// failedCeiling is the failed share above which the run was too
	// disturbed to be a measurement and counts as incorrect.
	failedCeiling = 1e-2
)

// report collects one workload run: the metrics by name, a sample
// count and note per metric for the printed table, and the checker's
// tallies.
type report struct {
	workload  string
	defs      []metricDef
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	// broken records structural failures (a wrong answer that repeats,
	// a wrong digest, short output): any makes the run incorrect.
	broken []string
	info   []string
}

func newReport(workload string, defs []metricDef) *report {
	return &report{workload: workload, defs: defs, values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *report) breakf(format string, args ...any) {
	r.broken = append(r.broken, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	return len(r.broken) == 0 && r.attempted > 0 &&
		float64(r.failed) <= failedCeiling*float64(r.attempted)
}

func (r *report) result() result {
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(r.defs))}
	for _, d := range r.defs {
		res.Metrics[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
	}
	return res
}

// print writes the human-readable table, then the result as the last
// line.
func (r *report) print(w io.Writer) error {
	for _, line := range r.info {
		fmt.Fprintf(w, "%s  %s\n", r.workload, line)
	}
	for _, d := range r.defs {
		note := r.notes[d.Name]
		if _, measured := r.values[d.Name]; !measured {
			note = "layer not on this workload's path"
		}
		fmt.Fprintf(w, "%s  %-34s %16.6g %-6s %s\n", r.workload, d.Name, r.values[d.Name], d.Unit, note)
	}
	fs := share(float64(r.failed), float64(r.attempted))
	watch := ""
	if fs > failedWatch {
		watch = fmt.Sprintf(", above the %.0e watch line", failedWatch)
	}
	fmt.Fprintf(w, "%s  failed_share %.3g (%d of %d transient failures; ceiling %.0e%s)\n",
		r.workload, fs, r.failed, r.attempted, failedCeiling, watch)
	sort.Strings(r.broken)
	for _, b := range r.broken {
		fmt.Fprintf(w, "%s  INCORRECT: %s\n", r.workload, b)
	}
	line, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
