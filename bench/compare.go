package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkJSON is the part of BENCHMARK.json the comparison reads:
// each end-to-end metric's direction and regression bound.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bj, nil
}

// side summarises one commit's runs of one workload and metric.
type side struct {
	values      []float64
	med, q1, q3 float64
	spread      float64 // (q3-q1)/median
}

func summarise(values []float64) side {
	s := side{values: values, med: median(values)}
	s.q1, s.q3 = quartiles(values)
	s.spread = share(s.q3-s.q1, s.med)
	if s.spread < 0 {
		s.spread = -s.spread
	}
	return s
}

// verdict judges new against old for a metric with the given
// direction and bound:
//
//	unresolved  either side's quartile spread is wider than the bound,
//	            unless every new run beats every old run
//	worse       the median moved the wrong way by more than the bound
//	better      the median moved the right way by more than old's own
//	            quartile spread
//	same        otherwise
func verdict(old, new side, better string, bound float64) string {
	sign := 1.0 // positive change = improvement
	if better == "lower" {
		sign = -1
	}
	if old.spread > bound || new.spread > bound {
		allBetter := len(old.values) > 0 && len(new.values) > 0
		for _, n := range new.values {
			for _, o := range old.values {
				if sign*(n-o) <= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	change := sign * share(new.med-old.med, old.med)
	if old.med < 0 {
		change = -change
	}
	switch {
	case change < -bound:
		return "worse"
	case change > 0 && sign*(new.med-old.med) > old.q3-old.q1:
		return "better"
	}
	return "same"
}

func valuesOf(f *resultsFile, workload, metric string) []float64 {
	var vs []float64
	for _, set := range f.Sets {
		if r, ok := set[workload]; ok {
			if v, ok := r.Metrics[metric]; ok {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// runCompare prints one row per workload and metric present in both
// files and returns the exit code: 1 if any end-to-end metric is worse.
func runCompare(w io.Writer, oldPath, newPath, benchmarkPath string) int {
	oldF, err1 := readResults(oldPath)
	newF, err2 := readResults(newPath)
	bj, err3 := readBenchmarkJSON(benchmarkPath)
	if err := errors.Join(err1, err2, err3); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compare(w, oldF, newF, bj)
}

func compare(w io.Writer, oldF, newF *resultsFile, bj *benchmarkJSON) int {
	bounds := map[string]boundedMetric{}
	for _, m := range bj.EndToEnd {
		bounds[m.Name] = m
	}
	fmt.Fprintf(w, "%-18s %-32s %12s %-23s %12s %-23s %8s  %s\n", "workload", "metric", "old median", "  q1..q3", "new median", "  q1..q3", "change", "verdict")
	worse := 0
	for _, wl := range workloads {
		names := map[string]bool{}
		for _, set := range append(append([]map[string]setResult{}, oldF.Sets...), newF.Sets...) {
			for name := range set[wl.Name].Metrics {
				names[name] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for name := range names {
			sorted = append(sorted, name)
		}
		sort.Strings(sorted)
		for _, name := range sorted {
			ov, nv := valuesOf(oldF, wl.Name, name), valuesOf(newF, wl.Name, name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			o, n := summarise(ov), summarise(nv)
			v := "-" // per-layer metrics have no bound
			if b, ok := bounds[name]; ok {
				v = verdict(o, n, b.Better, b.Bound)
				if v == "worse" {
					worse++
				}
			}
			fmt.Fprintf(w, "%-18s %-32s %12.6g %-23s %12.6g %-23s %+7.1f%%  %s\n",
				wl.Name, name, o.med, fmt.Sprintf("  %.5g..%.5g", o.q1, o.q3), n.med, fmt.Sprintf("  %.5g..%.5g", n.q1, n.q3),
				100*share(n.med-o.med, o.med), v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d end-to-end metric(s) worse by more than their bound\n", worse)
		return 1
	}
	return 0
}
