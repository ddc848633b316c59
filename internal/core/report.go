package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"govdns/internal/analysis"
	"govdns/internal/report"
	"govdns/internal/stats"
)

// PaperExpectations carries the paper's published numbers so reports can
// print measured-vs-paper side by side. Only shape comparisons are
// meaningful: the substrate is a calibrated simulator.
var PaperExpectations = map[string]string{
	"fig2.growth":         "113.5k (2011) -> 192.6k (2020), dip 2019->2020",
	"fig6.base-overlap":   "21% of 2011 d_1NS still active in 2020; 14-23% new/yr; 16-26% gone/yr",
	"fig7.private":        ">71% of d_1NS private; <34% of all domains private",
	"fig8.stale-singles":  "60.1% of d_1NS with no authoritative response",
	"fig9.replication":    "98.4% of domains with >=2 NS; 109 countries with no d_1NS; 15 countries >=10%",
	"table1.diversity":    "Total: 89.8% multi-IP, 71.5% multi-/24, 32.9% multi-ASN",
	"table2.cloud-growth": "Amazon 5 -> 5193 (2.7%), Cloudflare 12 -> 4136 (2.1%), Azure 0 -> 1574",
	"sect4a.gov-cn":       "hichina 38%, xincache 19%, dns-diy 10.8% of gov.cn domains",
	"table3.reach":        "max country reach 52 (websitewelcome 2011) -> 85 (cloudflare 2020): +60%",
	"fig10.defective":     "29.5% any defect; 25.4% partial",
	"fig11.hijack":        "805 available NS domains; 1,121 domains; 49 countries; 625 fully unresponsive; 2 multi-country",
	"fig12.prices":        "0.01 - 20,000 USD, median 11.99",
	"fig13.consistency":   "P=C for 76.8%; level 2: 93.5% vs <=77% deeper; 40.9% of P!=C partially defective",
	"fig13.inc-hijack":    "13 available NS domains; 26 domains; 7 countries; min 300 USD",
	"sect3.levels":        "<1% level 2, 85.4% level 3, 10.9% level 4",
}

// reportSections is the report in print order, each section with the
// experiment ids that select it alone.
var reportSections = []struct {
	ids   []string
	write func(*Study, io.Writer) error
}{
	{[]string{"funnel"}, (*Study).writeFunnel},
	{[]string{"fig2", "fig3"}, (*Study).writeFig2And3},
	{[]string{"fig4"}, (*Study).writeFig4},
	{[]string{"fig6"}, (*Study).writeFig6},
	{[]string{"fig7"}, (*Study).writeFig7},
	{[]string{"fig8"}, (*Study).writeFig8},
	{[]string{"fig9"}, (*Study).writeFig9},
	{[]string{"table1"}, (*Study).writeTable1},
	{[]string{"table2"}, (*Study).writeTable2},
	{[]string{"table3"}, (*Study).writeTable3},
	{[]string{"fig10"}, (*Study).writeFig10},
	{[]string{"fig11", "fig12"}, (*Study).writeFig11And12},
	{[]string{"fig13", "fig14"}, (*Study).writeFig13And14},
}

// WriteReport renders every table and figure of the study to w. The
// active experiments require RunActive to have completed.
func (s *Study) WriteReport(w io.Writer) error {
	for _, sec := range reportSections {
		if err := sec.write(s, w); err != nil {
			return err
		}
	}
	return nil
}

// WriteExperiment renders the one section of WriteReport that id names
// (funnel, fig2 ... fig14, table1 ... table3; case-insensitive).
func (s *Study) WriteExperiment(w io.Writer, id string) error {
	write, err := experiment(id)
	if err != nil {
		return err
	}
	return write(s, w)
}

// CheckExperiment reports whether WriteExperiment knows id, so a caller
// can refuse an unknown one before building a study.
func CheckExperiment(id string) error {
	_, err := experiment(id)
	return err
}

func experiment(id string) (func(*Study, io.Writer) error, error) {
	var known []string
	for _, sec := range reportSections {
		for _, have := range sec.ids {
			if strings.EqualFold(id, have) {
				return sec.write, nil
			}
		}
		known = append(known, sec.ids...)
	}
	return nil, fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(known, " "))
}

func (s *Study) writeFunnel(w io.Writer) error {
	f, err := s.Funnel()
	if err != nil {
		return err
	}
	t := report.NewTable("Data-collection funnel (paper § III-B: 147k queried, 115k parent response, 96k with data)",
		"stage", "domains", "pct of queried")
	t.AddRow("queried", f.Queried, 100.0)
	t.AddRow("parent responded", f.ParentResponded, stats.Pct(f.ParentResponded, f.Queried))
	t.AddRow("non-empty NS data", f.WithData, stats.Pct(f.WithData, f.Queried))
	t.AddRow("responsive", f.Responsive, stats.Pct(f.Responsive, f.Queried))
	return t.Write(w)
}

func (s *Study) writeFig2And3(w io.Writer) error {
	years := s.Fig2And3()
	t := report.NewTable(fmt.Sprintf("Fig. 2 & 3 — PDNS growth (paper: %s)", PaperExpectations["fig2.growth"]),
		"year", "domains", "countries", "nameservers")
	for _, y := range years {
		t.AddRow(y.Year, y.Domains, y.Countries, y.Nameservers)
	}
	return t.Write(w)
}

// topKeys returns the keys of m by descending value, ties by key, at
// most n of them: the ranking behind every per-country bar chart.
func topKeys[V int | float64](m map[string]V, n int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

func (s *Study) writeFig4(w io.Writer) error {
	counts := s.Fig4()
	c := report.NewBarChart(fmt.Sprintf("Fig. 4 — domains per country, %d (top 20 of %d countries with data)",
		s.EndYear(), len(counts)))
	for _, code := range topKeys(counts, 20) {
		c.Add(code, float64(counts[code]))
	}
	return c.Write(w)
}

func (s *Study) writeFig6(w io.Writer) error {
	churn := s.Fig6()
	t := report.NewTable(fmt.Sprintf("Fig. 6 — d_1NS churn vs %d (paper: %s)", s.StartYear(), PaperExpectations["fig6.base-overlap"]),
		"year", "d_1NS", "new %", "from-base %", "base-gone %")
	for _, c := range churn {
		t.AddRow(c.Year, c.Total, c.NewPct(), c.FromBasePct(), c.BaseGonePct())
	}
	return t.Write(w)
}

func (s *Study) writeFig7(w io.Writer) error {
	years := s.Fig2And3()
	t := report.NewTable(fmt.Sprintf("Fig. 7 — private ADNS deployments (paper: %s)", PaperExpectations["fig7.private"]),
		"year", "d_1NS private %", "all domains private %")
	for _, y := range years {
		t.AddRow(y.Year, y.PrivateSinglePct(), y.PrivateAllPct())
	}
	return t.Write(w)
}

func (s *Study) writeFig8(w io.Writer) error {
	ar, err := s.Fig8And9()
	if err != nil {
		return err
	}
	c := report.NewBarChart(fmt.Sprintf(
		"Fig. 8 — %% of d_1NS with no authoritative response (overall %.1f%%; paper: %s)",
		ar.SingleStalePct, PaperExpectations["fig8.stale-singles"]))
	for _, code := range topKeys(ar.SingleStaleByCountry, 15) {
		c.Add(code, ar.SingleStaleByCountry[code])
	}
	return c.Write(w)
}

func (s *Study) writeFig9(w io.Writer) error {
	ar, err := s.Fig8And9()
	if err != nil {
		return err
	}
	if err := report.WriteCDF(w, fmt.Sprintf(
		"Fig. 9 — CDF of ADNS per domain (>=2 NS: %.1f%%; paper: %s)",
		ar.AtLeastTwoPct, PaperExpectations["fig9.replication"]), ar.NSCountCDF); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "countries with no d_1NS: %d; countries with >=10%% d_1NS: %d (%v)\n\n",
		ar.CountriesNoSingle, len(ar.CountriesOver10PctSingle), ar.CountriesOver10PctSingle)
	return err
}

func (s *Study) writeTable1(w io.Writer) error {
	rows, err := s.Table1()
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Table I — nameserver diversity (paper: %s)", PaperExpectations["table1.diversity"]),
		"scope", "domains", "|IP|>1 %", "|/24|>1 %", "|ASN|>1 %")
	for _, r := range rows {
		t.AddRow(r.Scope, r.Domains, r.MultiIPPct, r.Multi24Pct, r.MultiASNPct)
	}
	if err := t.Write(w); err != nil {
		return err
	}
	byLevel, err := s.DiversityByLevel()
	if err != nil {
		return err
	}
	dist, err := s.LevelDistribution()
	if err != nil {
		return err
	}
	lt := report.NewTable(fmt.Sprintf("By DNS level (paper: %s; multi-/24 87.1%% at level 2 vs <80%% deeper)",
		PaperExpectations["sect3.levels"]),
		"level", "% of domains", "|/24|>1 %")
	var levels []int
	for level := range dist {
		levels = append(levels, level)
	}
	sort.Ints(levels)
	for _, level := range levels {
		lt.AddRow(level, dist[level], byLevel[level].Multi24Pct)
	}
	return lt.Write(w)
}

func (s *Study) writeTable2(w io.Writer) error {
	for _, year := range []int{s.StartYear(), s.EndYear()} {
		rows := s.Table2(year)
		t := report.NewTable(fmt.Sprintf("Table II — major providers, %d (paper: %s)", year, PaperExpectations["table2.cloud-growth"]),
			"provider", "domains", "%", "d_1P", "d_1P %", "groups", "groups %")
		for _, r := range rows {
			t.AddRow(r.Label, r.Domains, r.DomainsPct, r.SingleProvider, r.SingleProviderPct, r.SubRegions, r.SubRegionsPct)
		}
		if err := t.Write(w); err != nil {
			return err
		}
	}
	// § IV-A's per-country concentration: the country-local providers
	// behind gov.cn.
	shares := s.GovProviderShare(s.EndYear(), "cn")
	t := report.NewTable(fmt.Sprintf("§ IV-A — gov.cn provider shares, %d (paper: %s)", s.EndYear(), PaperExpectations["sect4a.gov-cn"]),
		"provider", "% of gov.cn")
	for _, label := range []string{"hichina.com", "xincache.com", "dns-diy.com"} {
		t.AddRow(label, shares[label])
	}
	return t.Write(w)
}

func (s *Study) writeTable3(w io.Writer) error {
	for _, year := range []int{s.StartYear(), s.EndYear()} {
		rows := s.Table3(year, 11)
		t := report.NewTable(fmt.Sprintf("Table III — top providers by country reach, %d (paper: %s)", year, PaperExpectations["table3.reach"]),
			"provider", "domains", "%", "groups", "countries")
		for _, r := range rows {
			t.AddRow(r.Label, r.Domains, r.DomainsPct, r.SubRegions, r.Countries)
		}
		if err := t.Write(w); err != nil {
			return err
		}
	}
	return nil
}

func (s *Study) writeFig10(w io.Writer) error {
	ds, err := s.Fig10()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"Fig. 10 — defective delegations: any %.1f%%, partial %.1f%%, full %.1f%% of %d domains (paper: %s)\n",
		ds.AnyDefectPct(), ds.PartialPct(), ds.FullPct(), ds.WithData, PaperExpectations["fig10.defective"]); err != nil {
		return err
	}
	defective := make(map[string]int)
	for code, entry := range ds.PerCountry {
		if entry.AnyDefect > 0 {
			defective[code] = entry.AnyDefect
		}
	}
	c := report.NewBarChart("top 20 countries by defective delegations (% of country's domains)")
	for _, code := range topKeys(defective, 20) {
		c.Add(fmt.Sprintf("%s (n=%d)", code, defective[code]), ds.PerCountry[code].AnyDefectPct())
	}
	return c.Write(w)
}

func (s *Study) writeFig11And12(w io.Writer) error {
	hr, err := s.Fig11And12()
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"Fig. 11 — hijackable: %d available NS domains; %d affected domains in %d countries; %d fully unresponsive; %d multi-country (paper: %s)\n",
		len(hr.AvailableNSDomains), hr.AffectedDomains, hr.Countries,
		hr.FullyUnresponsiveAffected, hr.MultiCountryNSDomains, PaperExpectations["fig11.hijack"]); err != nil {
		return err
	}
	if len(hr.Prices) == 0 {
		_, err := fmt.Fprintln(w, "Fig. 12 — no available NS domains to price")
		return err
	}
	prices := make([]float64, len(hr.Prices))
	for i, p := range hr.Prices {
		prices[i] = p.Dollars()
	}
	minP, maxP := prices[0], prices[len(prices)-1]
	_, err = fmt.Fprintf(w,
		"Fig. 12 — registration cost: min %.2f, median %s, max %.2f USD over %d domains (paper: %s)\n\n",
		minP, hr.MedianPrice, maxP, len(prices), PaperExpectations["fig12.prices"])
	return err
}

func (s *Study) writeFig13And14(w io.Writer) error {
	cs, err := s.Fig13And14()
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Fig. 13 — parent/child consistency over %d responsive domains (paper: %s)",
		cs.Responsive, PaperExpectations["fig13.consistency"]),
		"class", "domains", "%")
	for _, cls := range []analysis.ConsistencyClass{
		analysis.ClassEqual, analysis.ClassParentSuperset, analysis.ClassChildSuperset,
		analysis.ClassIntersect, analysis.ClassDisjointIPOverlap, analysis.ClassDisjoint,
	} {
		if n, ok := cs.Counts[cls]; ok {
			t.AddRow(cls.String(), n, stats.Pct(n, cs.Responsive))
		}
	}
	if err := t.Write(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "P!=C domains with a partial defect: %.1f%% (paper: 40.9%%)\n", cs.InconsistentWithDefectPct); err != nil {
		return err
	}
	var levels []int
	for level := range cs.ByLevel {
		levels = append(levels, level)
	}
	sort.Ints(levels)
	for _, level := range levels {
		if _, err := fmt.Fprintf(w, "  level %d consistency: %.1f%%\n", level, cs.ByLevel[level]); err != nil {
			return err
		}
	}

	// Fig. 14: distribution of per-country disagreement.
	var rates []float64
	for _, pct := range cs.DisagreementPerCountry {
		rates = append(rates, pct)
	}
	sort.Float64s(rates)
	med, _ := stats.Percentile(rates, 50)
	p90, _ := stats.Percentile(rates, 90)
	if _, err := fmt.Fprintf(w, "Fig. 14 — disagreement per country: median %.1f%%, p90 %.1f%% over %d countries\n",
		med, p90, len(rates)); err != nil {
		return err
	}

	ih, err := s.InconsistencyHijacks()
	if err != nil {
		return err
	}
	minPrice := "n/a"
	if len(ih.Prices) > 0 {
		minPrice = ih.MinPrice.String()
	}
	_, err = fmt.Fprintf(w,
		"Inconsistency-only dangling: %d available NS domains; %d domains in %d countries; min price %s (paper: %s)\n\n",
		len(ih.AvailableNSDomains), ih.AffectedDomains, ih.Countries, minPrice, PaperExpectations["fig13.inc-hijack"])
	return err
}
