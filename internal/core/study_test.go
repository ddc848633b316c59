package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testStudy runs the complete pipeline once per test binary at a small
// scale; the study is deterministic so read-only sharing is safe.
var _testStudy *Study

func fullStudy(t *testing.T) *Study {
	t.Helper()
	if _testStudy != nil {
		return _testStudy
	}
	s := NewStudy(Config{
		Seed:         11,
		Scale:        0.02,
		QueryTimeout: 10 * time.Millisecond,
		Concurrency:  128,
		SecondRound:  true,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	if err := s.RunActive(ctx); err != nil {
		t.Fatalf("RunActive: %v", err)
	}
	_testStudy = s
	return s
}

func TestActiveAnalysesRequireScan(t *testing.T) {
	s := NewStudy(Config{Seed: 1, Scale: 0.002})
	if _, err := s.Table1(); !errors.Is(err, ErrNotScanned) {
		t.Errorf("Table1 before scan: %v", err)
	}
	if _, err := s.Fig10(); !errors.Is(err, ErrNotScanned) {
		t.Errorf("Fig10 before scan: %v", err)
	}
}

func TestStudyFunnelShape(t *testing.T) {
	s := fullStudy(t)
	f, err := s.Funnel()
	if err != nil {
		t.Fatal(err)
	}
	if f.Queried == 0 {
		t.Fatal("nothing queried")
	}
	// Paper funnel: 147k -> 115k (78%) -> 96k (65%).
	if f.ParentResponded >= f.Queried {
		t.Errorf("funnel: parent %d !< queried %d (ghosts must fail)", f.ParentResponded, f.Queried)
	}
	if f.WithData >= f.ParentResponded {
		t.Errorf("funnel: data %d !< parent %d (recently-dead answer empty)", f.WithData, f.ParentResponded)
	}
	if f.Responsive >= f.WithData {
		t.Errorf("funnel: responsive %d !< data %d (stale delegations)", f.Responsive, f.WithData)
	}
}

func TestStudyFig9Shape(t *testing.T) {
	s := fullStudy(t)
	ar, err := s.Fig8And9()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 98.4% >= 2 NS. Shape: clearly above 90%.
	if ar.AtLeastTwoPct < 90 {
		t.Errorf("AtLeastTwoPct = %.1f, want > 90", ar.AtLeastTwoPct)
	}
	// Paper: 60.1% of singles stale. Shape: a majority.
	if ar.SingleStalePct < 40 || ar.SingleStalePct > 85 {
		t.Errorf("SingleStalePct = %.1f, want near 60", ar.SingleStalePct)
	}
	// Paper: over half the countries have no d_1NS.
	if ar.CountriesNoSingle < 50 {
		t.Errorf("CountriesNoSingle = %d", ar.CountriesNoSingle)
	}
}

func TestStudyTable1Shape(t *testing.T) {
	s := fullStudy(t)
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d, want Total + 10 countries", len(rows))
	}
	total := rows[0]
	// Paper: 89.8 / 71.5 / 32.9. Shape bands:
	if total.MultiIPPct < 80 || total.MultiIPPct > 97 {
		t.Errorf("MultiIPPct = %.1f, want near 89.8", total.MultiIPPct)
	}
	if total.Multi24Pct < 60 || total.Multi24Pct > 85 {
		t.Errorf("Multi24Pct = %.1f, want near 71.5", total.Multi24Pct)
	}
	if total.MultiASNPct < 20 || total.MultiASNPct > 48 {
		t.Errorf("MultiASNPct = %.1f, want near 32.9", total.MultiASNPct)
	}
	// Ordering invariant everywhere.
	for _, r := range rows {
		if r.Domains == 0 {
			continue
		}
		if r.MultiIPPct < r.Multi24Pct || r.Multi24Pct < r.MultiASNPct {
			t.Errorf("%s: diversity not monotone: %+v", r.Scope, r)
		}
	}
	// Country shapes: Thailand lowest multi-IP; Australia/India lowest
	// multi-ASN among the top-10 (paper Table I).
	byScope := map[string]int{}
	for i, r := range rows {
		byScope[r.Scope] = i
	}
	thailand := rows[byScope["Thailand"]]
	if thailand.MultiIPPct > 50 {
		t.Errorf("Thailand MultiIPPct = %.1f, want near 36", thailand.MultiIPPct)
	}
	china := rows[byScope["China"]]
	if china.MultiASNPct < thailand.MultiASNPct {
		t.Errorf("China multi-ASN (%.1f) should exceed Thailand's (%.1f)", china.MultiASNPct, thailand.MultiASNPct)
	}
}

func TestStudyFig10Shape(t *testing.T) {
	s := fullStudy(t)
	ds, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 29.5% any defect, 25.4% partial. Shape band:
	if pct := ds.AnyDefectPct(); pct < 15 || pct > 45 {
		t.Errorf("AnyDefectPct = %.1f, want near 29.5", pct)
	}
	if ds.Partial <= ds.Full {
		t.Errorf("partial (%d) should dominate full (%d)", ds.Partial, ds.Full)
	}
}

func TestStudyFig13Shape(t *testing.T) {
	s := fullStudy(t)
	cs, err := s.Fig13And14()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: P=C for 76.8% of responsive domains.
	if cs.EqualPct < 60 || cs.EqualPct > 92 {
		t.Errorf("EqualPct = %.1f, want near 76.8", cs.EqualPct)
	}
	// Level 2 (the d_gov apexes) must be more consistent than level 3.
	if l2, ok := cs.ByLevel[2]; ok {
		if l3, ok3 := cs.ByLevel[3]; ok3 && l2 < l3 {
			t.Errorf("level-2 consistency (%.1f) below level-3 (%.1f)", l2, l3)
		}
	}
}

func TestStudyHijackShape(t *testing.T) {
	s := fullStudy(t)
	hr, err := s.Fig11And12()
	if err != nil {
		t.Fatal(err)
	}
	if len(hr.AvailableNSDomains) == 0 {
		t.Fatal("no available NS domains found")
	}
	if hr.AffectedDomains < len(hr.AvailableNSDomains) {
		t.Errorf("affected domains (%d) < available NS domains (%d)",
			hr.AffectedDomains, len(hr.AvailableNSDomains))
	}
	if hr.Countries == 0 {
		t.Error("no countries affected")
	}
	if hr.MedianPrice <= 0 {
		t.Errorf("median price = %v", hr.MedianPrice)
	}
}

func TestStudyTable2CloudGrowth(t *testing.T) {
	s := fullStudy(t)
	first := map[string]int{}
	for _, r := range s.Table2(s.StartYear()) {
		first[r.Label] = r.Domains
	}
	last := map[string]int{}
	for _, r := range s.Table2(s.EndYear()) {
		last[r.Label] = r.Domains
	}
	for _, cloud := range []string{"AWS DNS", "cloudflare.com", "Azure DNS"} {
		if last[cloud] <= first[cloud] {
			t.Errorf("%s did not grow: %d -> %d", cloud, first[cloud], last[cloud])
		}
	}
	if last["AWS DNS"] < 5*max(first["AWS DNS"], 1) {
		t.Errorf("AWS growth not multiple-fold: %d -> %d", first["AWS DNS"], last["AWS DNS"])
	}
}

func TestStudyTable3ReachGrowth(t *testing.T) {
	s := fullStudy(t)
	top2011 := s.Table3(s.StartYear(), 1)
	top2020 := s.Table3(s.EndYear(), 1)
	if len(top2011) == 0 || len(top2020) == 0 {
		t.Fatal("empty Table III")
	}
	// Paper: max reach grows 60% (52 -> 85 countries).
	if top2020[0].Countries <= top2011[0].Countries {
		t.Errorf("top provider reach did not grow: %d -> %d",
			top2011[0].Countries, top2020[0].Countries)
	}
}

func TestStudyWriteReport(t *testing.T) {
	s := fullStudy(t)
	var buf bytes.Buffer
	if err := s.WriteReport(&buf); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Fig. 2 & 3", "Fig. 4", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9",
		"Table I", "Table II", "Table III", "Fig. 10", "Fig. 11", "Fig. 12",
		"Fig. 13", "Fig. 14",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestWriteExperimentIsAReportSection pins the one-rendering contract:
// every experiment id prints, byte for byte, a section of the full
// report, the sections in order make up the whole report, and an
// unknown id is an error.
func TestWriteExperimentIsAReportSection(t *testing.T) {
	s := fullStudy(t)
	var full, joined bytes.Buffer
	if err := s.WriteReport(&full); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	for _, sec := range reportSections {
		for i, id := range sec.ids {
			var one bytes.Buffer
			if err := s.WriteExperiment(&one, strings.ToUpper(id)); err != nil {
				t.Fatalf("WriteExperiment(%s): %v", id, err)
			}
			if one.Len() == 0 || !bytes.Contains(full.Bytes(), one.Bytes()) {
				t.Errorf("experiment %s is not a section of the full report", id)
			}
			if i == 0 {
				joined.Write(one.Bytes())
			}
		}
	}
	if !bytes.Equal(joined.Bytes(), full.Bytes()) {
		t.Errorf("the sections in order are not the full report")
	}
	if err := s.WriteExperiment(&joined, "fig99"); err == nil {
		t.Errorf("unknown experiment id accepted")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestWriteCSVs(t *testing.T) {
	s := fullStudy(t)
	dir := t.TempDir()
	if err := s.WriteCSVs(dir); err != nil {
		t.Fatalf("WriteCSVs: %v", err)
	}
	for _, want := range []string{
		"fig2_3_7_pdns_yearly.csv", "fig4_domains_per_country.csv",
		"fig6_single_ns_churn.csv", "fig8_stale_singles.csv",
		"fig9_replication_cdf.csv", "table1_diversity.csv",
		"table2_major_providers_2011.csv", "table2_major_providers_2020.csv",
		"table3_top_providers_2020.csv", "fig10_defective_delegations.csv",
		"fig11_hijackable.csv", "fig12_registration_costs.csv",
		"fig13_consistency.csv", "fig14_disagreement.csv",
	} {
		info, err := os.Stat(filepath.Join(dir, want))
		if err != nil {
			t.Errorf("missing %s: %v", want, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", want)
		}
	}
}

// studyPassiveDigest is the sha256 of studyPassiveSurface's output at
// seed 7, scale 0.01 with 5 hijack events. It was frozen when the
// view-based reference implementations still stood beside the corpus
// and both produced exactly these bytes; a change to any passive
// figure on a generated world moves it.
const studyPassiveDigest = "4e4efd29a788ef21426b9abcc46c7cb676592fda6e2625632b05d06b918ac8bf"

// studyPassiveSurface writes every corpus-backed Study output as one
// JSON line each: Figs. 2/3/7, Fig. 3's nameserver series, Fig. 4 and
// Fig. 6, Tables II and III for the first and last study year, the top
// country's provider share, the migration flows across the span and
// the hijack forensics.
func studyPassiveSurface(t *testing.T, s *Study) []byte {
	t.Helper()
	start, end := s.StartYear(), s.EndYear()
	found, _ := s.HijackForensics()
	outputs := []any{s.Fig2And3(), s.NameserversPerYear(), s.Fig4(), s.Fig6()}
	for _, year := range []int{start, end} {
		outputs = append(outputs, s.Table2(year), s.Table3(year, 11))
	}
	outputs = append(outputs,
		s.GovProviderShare(end, s.Top10()[0]), s.ProviderFlows(start, end), found)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, out := range outputs {
		if err := enc.Encode(out); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestStudyCorpusMatchesReference is the study-level check: on a
// generated world (not just the random stores the analysis package's
// fixture covers), every corpus-backed Study output must hash to the
// frozen reference digest.
func TestStudyCorpusMatchesReference(t *testing.T) {
	s := NewStudy(Config{Seed: 7, Scale: 0.01, HijackEvents: 5})
	sum := sha256.Sum256(studyPassiveSurface(t, s))
	if got := hex.EncodeToString(sum[:]); got != studyPassiveDigest {
		t.Errorf("passive surface digest = %s, want %s", got, studyPassiveDigest)
	}
}

// TestStudyMemoInvalidatedByRunActive: every active accessor hands out
// one computed value until the next RunActive, and a freshly computed,
// equal one after it.
func TestStudyMemoInvalidatedByRunActive(t *testing.T) {
	s := NewStudy(Config{Seed: 5, Scale: 0.002, QueryTimeout: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.RunActive(ctx); err != nil {
		t.Fatal(err)
	}
	// Each accessor as a reference-typed value: identity is its pointer.
	accessors := map[string]func() (any, error){
		"Fig8And9":             func() (any, error) { return s.Fig8And9() },
		"Table1":               func() (any, error) { return s.Table1() },
		"DiversityByLevel":     func() (any, error) { return s.DiversityByLevel() },
		"LevelDistribution":    func() (any, error) { return s.LevelDistribution() },
		"Fig10":                func() (any, error) { return s.Fig10() },
		"Fig11And12":           func() (any, error) { return s.Fig11And12() },
		"Fig13And14":           func() (any, error) { return s.Fig13And14() },
		"InconsistencyHijacks": func() (any, error) { return s.InconsistencyHijacks() },
	}
	get := func(name string) any {
		v, err := accessors[name]()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	before := make(map[string]any)
	for name := range accessors {
		before[name] = get(name)
		if again := get(name); reflect.ValueOf(again).Pointer() != reflect.ValueOf(before[name]).Pointer() {
			t.Errorf("%s computed twice between scans", name)
		}
	}
	if err := s.RunActive(ctx); err != nil {
		t.Fatal(err)
	}
	for name := range accessors {
		after := get(name)
		if reflect.ValueOf(after).Pointer() == reflect.ValueOf(before[name]).Pointer() {
			t.Errorf("%s still returns the value computed before RunActive", name)
		}
		if !reflect.DeepEqual(after, before[name]) {
			t.Errorf("%s differs across two scans of the same world", name)
		}
	}
}

// studyActiveDigests are the sha256s of studyActiveSurface's output
// on two generated worlds: the passive digest's, and a larger one. They
// were frozen before the eight active figures were split into parallel
// chunks; a change to any active figure on a generated world moves
// them.
var studyActiveDigests = []struct {
	seed   int64
	scale  float64
	digest string
}{
	{7, 0.01, "57af5a301e9c4f6cd987c131d8a8b8f9441dcdb38344d1c1e5f8321e97861c2a"},
	{42, 0.02, "3b7aaec6708bb032f60ff4b481701a040f007109e1ba1db7b9d022cc40c41e15"},
}

// studyActiveSurface writes the eight active accessors' outputs as one
// JSON line each: Figs. 8/9, Table I, diversity by level, the level
// distribution, Fig. 10, Figs. 11/12, Figs. 13/14 and the
// inconsistency hijacks.
func studyActiveSurface(t *testing.T, s *Study) []byte {
	t.Helper()
	getters := []func() (any, error){
		func() (any, error) { return s.Fig8And9() },
		func() (any, error) { return s.Table1() },
		func() (any, error) { return s.DiversityByLevel() },
		func() (any, error) { return s.LevelDistribution() },
		func() (any, error) { return s.Fig10() },
		func() (any, error) { return s.Fig11And12() },
		func() (any, error) { return s.Fig13And14() },
		func() (any, error) { return s.InconsistencyHijacks() },
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, get := range getters {
		out, err := get()
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(out); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestStudyActiveMatchesReference pins every active figure on two
// generated worlds to the frozen digests.
func TestStudyActiveMatchesReference(t *testing.T) {
	for _, w := range studyActiveDigests {
		s := NewStudy(Config{Seed: w.seed, Scale: w.scale, QueryTimeout: 10 * time.Millisecond})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		err := s.RunActive(ctx)
		cancel()
		if err != nil {
			t.Fatalf("seed %d scale %g: RunActive: %v", w.seed, w.scale, err)
		}
		sum := sha256.Sum256(studyActiveSurface(t, s))
		if got := hex.EncodeToString(sum[:]); got != w.digest {
			t.Errorf("seed %d scale %g: active surface digest = %s, want %s", w.seed, w.scale, got, w.digest)
		}
	}
}
