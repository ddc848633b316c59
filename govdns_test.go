package govdns

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"govdns/internal/core"
)

func TestRunEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	s, err := Run(ctx, Options{Seed: 3, Scale: 0.005, QueryTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	funnel, err := s.Funnel()
	if err != nil {
		t.Fatal(err)
	}
	if funnel.Queried == 0 || funnel.WithData == 0 {
		t.Errorf("funnel = %+v", funnel)
	}
}

func TestNewIsPassiveOnly(t *testing.T) {
	s := New(Options{Seed: 3, Scale: 0.005})
	if got := s.Fig2And3(); len(got) != 10 {
		t.Errorf("Fig2And3 years = %d", len(got))
	}
	if _, err := s.Fig10(); !errors.Is(err, core.ErrNotScanned) {
		t.Errorf("Fig10 before scan: %v", err)
	}
}

func TestOptionsPlumbing(t *testing.T) {
	s := New(Options{Seed: 9, Scale: 0.004, Concurrency: 3,
		QueryTimeout: 7 * time.Millisecond, DisableSecondRound: true, StabilityDays: -1})
	if s.Cfg.Seed != 9 || s.Cfg.Concurrency != 3 {
		t.Errorf("cfg = %+v", s.Cfg)
	}
	if s.Cfg.SecondRound {
		t.Error("second round not disabled")
	}
	// StabilityDays < 0 disables filtering: the stable corpus is the
	// raw one, where the default filter gives a different series.
	raw := s.RawCorpus().Yearly()
	if !slices.Equal(s.Corpus().Yearly(), raw) {
		t.Error("negative StabilityDays still filtered")
	}
	filtered := New(Options{Seed: 9, Scale: 0.004})
	if slices.Equal(filtered.Corpus().Yearly(), raw) {
		t.Error("default StabilityDays filtered nothing")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := New(Options{Seed: 5, Scale: 0.004})
	b := New(Options{Seed: 5, Scale: 0.004})
	ya, yb := a.Fig2And3(), b.Fig2And3()
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatalf("year %d differs: %+v vs %+v", ya[i].Year, ya[i], yb[i])
		}
	}
}

func TestHijackForensicsViaFacade(t *testing.T) {
	s := New(Options{Seed: 5, Scale: 0.01, HijackEvents: 6})
	found, truth := s.HijackForensics()
	if len(truth) != 6 {
		t.Fatalf("injected %d events, want 6", len(truth))
	}
	flagged := make(map[string]bool)
	for _, tr := range found {
		flagged[string(tr.Domain)+"|"+string(tr.NSDomain)] = true
	}
	for _, ev := range truth {
		if !flagged[string(ev.Domain)+"|"+string(ev.AttackerDomain)] {
			t.Errorf("missed injected hijack %+v", ev)
		}
	}
}

func TestProviderFlowsViaFacade(t *testing.T) {
	s := New(Options{Seed: 5, Scale: 0.01})
	flows := s.ProviderFlows(s.StartYear(), s.EndYear())
	if len(flows) == 0 {
		t.Fatal("no flows over the decade")
	}
	for i := 1; i < len(flows); i++ {
		if flows[i].Domains > flows[i-1].Domains {
			t.Fatal("flows not sorted by volume")
		}
	}
}
