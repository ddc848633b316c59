package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 99, false}, {1000, 99, true}, {99, 90, false}, {100, 90, true},
		{9999, 99.9, false}, {10000, 99.9, true}, {19, 50, false}, {20, 50, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		name string
		want float64
	}{{1000, "p90", 900}, {100, "p90", 90}, {99, "max", 99}, {4, "max", 4}} {
		got, name := tail(ramp(c.n))
		if name != c.name || got != c.want {
			t.Errorf("tail of %d samples = %g (%s), want %g (%s)", c.n, got, name, c.want, c.name)
		}
	}
	if v, name := tail(nil); v != 0 || name != "none" {
		t.Errorf("tail of nothing = %g (%s)", v, name)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g, %g, want 0.75, 2.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// fakeClock advances only when slept on or pushed; every sleep
// overshoots, as a real timer does.
type fakeClock struct {
	now       time.Duration
	overshoot time.Duration
	sleeps    int
}

func (c *fakeClock) Now() time.Duration { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps++
	c.now += d + c.overshoot
}

func TestOpenLoopScheduleAndLateness(t *testing.T) {
	const rate = 1000.0 // one query per millisecond
	clk := &fakeClock{overshoot: 100 * time.Microsecond}
	var dues []time.Duration
	late := openLoop(clk, rate, 10*time.Millisecond, func(i int, due time.Duration) {
		dues = append(dues, due)
		if i == 2 {
			clk.now += 3500 * time.Microsecond // the send stalls
		}
	})
	if len(dues) != 10 || len(late) != 10 {
		t.Fatalf("sent %d queries with %d lateness samples, want 10", len(dues), len(late))
	}
	for i, due := range dues {
		if want := time.Duration(i) * time.Millisecond; due != want {
			t.Errorf("query %d due at %v, want %v: a stall must not move the schedule", i, due, want)
		}
	}
	// Queries 0..2 wait for their time and start one overshoot late
	// (0 is due at once). The stall ends at 2.1+3.5 = 5.6 ms, so 3, 4
	// and 5 are sent back to back, late by the backlog; 6 onwards are
	// on time again.
	us := time.Microsecond
	want := []time.Duration{0, 100 * us, 100 * us, 2600 * us, 1600 * us, 600 * us, 100 * us, 100 * us, 100 * us, 100 * us}
	if !reflect.DeepEqual(late, want) {
		t.Errorf("lateness = %v\nwant       %v", late, want)
	}
	if clk.sleeps != 6 {
		t.Errorf("slept %d times, want 6: no sleeping while behind schedule", clk.sleeps)
	}
}

func TestMixReproducibleFromSeed(t *testing.T) {
	const origins, n = 500, 20000
	draws := func(seed int64) []draw {
		m := newMix(seed, origins)
		ds := make([]draw, n)
		for i := range ds {
			ds[i] = m.next()
		}
		return ds
	}
	a, b := draws(7), draws(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different query sequences")
	}
	if reflect.DeepEqual(a, draws(8)) {
		t.Fatal("different seeds drew the same sequence")
	}
	var miss, tcp, edns int
	byRank := make([]int, origins)
	for _, d := range a {
		if d.rank < 0 || d.rank >= origins || d.qtype < 0 || d.qtype >= numQTypes {
			t.Fatalf("draw out of range: %+v", d)
		}
		byRank[d.rank]++
		if d.miss {
			miss++
		}
		if d.tcp {
			tcp++
		}
		if d.edns {
			edns++
		}
	}
	near := func(name string, got int, want float64) {
		if f := float64(got) / n; math.Abs(f-want) > 0.02 {
			t.Errorf("%s share = %.3f, want %.2f", name, f, want)
		}
	}
	near("miss", miss, missShare)
	near("tcp", tcp, tcpShare)
	near("edns", edns, ednsShare)
	// zipf with s = 1.1: rank 0 takes about twice rank 1's share and
	// every later rank less still.
	if byRank[0] <= byRank[1] || byRank[1] <= byRank[10] || byRank[10] <= byRank[200] {
		t.Errorf("popularity is not zipf-shaped: ranks 0,1,10,200 drew %d,%d,%d,%d", byRank[0], byRank[1], byRank[10], byRank[200])
	}
	if i := templateIndex(draw{rank: 3, qtype: 2, edns: true}); i != (3*numQTypes+2)*2+1 {
		t.Errorf("templateIndex = %d", i)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},    // overlaps 1: union 10..60
		{ID: 3, Parent: 0, Start: 50, End: 55},    // inside the union
		{ID: 4, Parent: 0, Start: 90, End: 120},   // clipped to the parent's end
		{ID: 5, Parent: 1, Start: 15, End: 20},    // grandchild: counts against 1 only
		{ID: 6, Parent: -1, Start: 200, End: 250}, // no children
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 5, 30, 5, 50}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestResultsFileSizeCap(t *testing.T) {
	full := func(defs []metricDef) setResult {
		r := setResult{Correct: true, Attempted: 1000000, Metrics: map[string]float64{}}
		for _, d := range defs {
			r.Metrics[d.Name] = 123456.789012345
		}
		return r
	}
	file := func(sets int, defs []metricDef) *resultsFile {
		f := &resultsFile{Meta: newMeta(runConfig{seed: 42, seconds: 10 * time.Second})}
		for s := 0; s < sets; s++ {
			set := map[string]setResult{}
			for _, w := range workloads {
				set[w.Name] = full(defs)
			}
			f.Sets = append(f.Sets, set)
		}
		return f
	}
	// What the acceptance runs write must fit: ten sets of end-to-end
	// results, or two traced sets.
	for _, c := range []struct {
		sets int
		defs []metricDef
	}{{10, endToEnd}, {2, perLayer}} {
		b, err := file(c.sets, c.defs).encode()
		if err != nil {
			t.Fatalf("%d sets of %d metrics: %v", c.sets, len(c.defs), err)
		}
		var back resultsFile
		if err := json.Unmarshal(b, &back); err != nil || len(back.Sets) != c.sets {
			t.Fatalf("round trip: %v, %d sets", err, len(back.Sets))
		}
		if back.Meta.NumCPU < 1 || back.Meta.GoVersion == "" || back.Meta.Seed != 42 {
			t.Errorf("meta not truthful: %+v", back.Meta)
		}
	}
	if _, err := file(40, perLayer).encode(); err == nil {
		t.Error("an oversized results file was accepted")
	}
}

func TestVerdict(t *testing.T) {
	s := summarise
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		want     string
	}{
		{"throughput fell past the bound", []float64{100, 101, 99}, []float64{90, 91, 89}, "higher", 0.05, "worse"},
		{"throughput fell within the bound", []float64{100, 101, 99}, []float64{97, 98, 96}, "higher", 0.05, "same"},
		{"latency fell by more than old's spread", []float64{100, 101, 99}, []float64{90, 91, 89}, "lower", 0.05, "better"},
		{"latency rose past the bound", []float64{100, 101, 99}, []float64{111, 112, 110}, "lower", 0.10, "worse"},
		{"moved the right way, inside old's spread", []float64{100, 104, 96}, []float64{99, 103, 95}, "lower", 0.10, "same"},
		{"spread wider than the bound", []float64{100, 140, 60}, []float64{90, 130, 50}, "lower", 0.10, "unresolved"},
		{"wide spread but every new run wins", []float64{100, 140, 60}, []float64{50, 40, 30}, "lower", 0.10, "better"},
		{"single runs", []float64{100}, []float64{100}, "higher", 0.05, "same"},
	} {
		if got := verdict(s(c.old), s(c.new), c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	bj := &benchmarkJSON{EndToEnd: []boundedMetric{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}}}
	file := func(v float64) *resultsFile {
		return &resultsFile{Sets: []map[string]setResult{{"serve_zipf": {Correct: true, Attempted: 1,
			Metrics: map[string]float64{"ops_per_s": v, "zone.lookup_ns": 500}}}}}
	}
	var out bytes.Buffer
	if code := compare(&out, file(100), file(80), bj); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 20%% throughput loss exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(&out, file(100), file(101), bj); code != 0 {
		t.Errorf("no change exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "zone.lookup_ns") {
		t.Errorf("per-layer metric missing from the table:\n%s", out.String())
	}
}

func TestReportLastLineIsTheContract(t *testing.T) {
	rep := newReport("serve_zipf", endToEnd)
	for _, d := range endToEnd {
		rep.set(d.Name, 1.5, "")
	}
	rep.attempted, rep.failed = 10000, 1
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(got) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", got)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 10000 || res.Failed != 1 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result = %+v", res)
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.Name]; m.Unit != d.Unit || m.Value != 1.5 {
			t.Errorf("%s = %+v", d.Name, m)
		}
	}
	// Transient failures up to the ceiling leave the run correct; more
	// do not, and a structural failure never does.
	rep.failed = 100
	if !rep.correct() {
		t.Error("failed share 1e-2 counted as incorrect")
	}
	rep.failed = 101
	if rep.correct() {
		t.Error("failed share above 1e-2 counted as correct")
	}
	rep.failed = 0
	rep.breakf("digest mismatch")
	if rep.correct() {
		t.Error("a structural failure counted as correct")
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkDefs := func(kind string, got []boundedMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, spec.go %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s: name %q or unit %q outside the contract, or used twice", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	checkDefs("end_to_end", bj.EndToEnd, endToEnd, true)
	checkDefs("per_layer", bj.PerLayer, perLayer, false)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if g := bj.Workloads[i]; g.Name != w.Name || g.Why != w.Why || len(g.Why) > 200 || strings.Contains(g.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go %+v", i, g, w)
		}
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q outside the contract, or used twice", w.Name)
		}
		seen[w.Name] = true
	}
	setup := bj.EndToEnd[len(bj.EndToEnd)-1]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s missing or misdeclared: %+v", setup)
	}
	for _, m := range bj.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) || !reflect.DeepEqual(bj.Command, []string{"go", "run", "-C", "bench", "."}) {
		t.Errorf("command %v, paths %v", bj.Command, bj.Paths)
	}
}
