package main

import (
	"strings"
	"sync"
	"testing"
)

var (
	fixtureOnce sync.Once
	fixtureProg *program
	fixtureErr  error
)

// check runs reachcheck over testdata/fixture, loaded once, with allow
// as the allowlist.
func check(t *testing.T, allow string) []string {
	t.Helper()
	fixtureOnce.Do(func() { fixtureProg, fixtureErr = load([]string{"testdata/fixture"}) })
	if fixtureErr != nil {
		t.Fatalf("load fixture: %v", fixtureErr)
	}
	findings, err := fixtureProg.check(allow)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return findings
}

// reported reports whether a finding names decl as reached by no binary.
func reported(findings []string, decl string) bool {
	for _, f := range findings {
		if strings.HasSuffix(f, " "+decl+" is reached by no binary") {
			return true
		}
	}
	return false
}

func TestReportsUnusedExportedFunc(t *testing.T) {
	if f := check(t, ""); !reported(f, "func lib.Unused") {
		t.Errorf("lib.Unused not reported:\n%s", strings.Join(f, "\n"))
	}
}

func TestReportsHelperReachedOnlyFromDeadCode(t *testing.T) {
	if f := check(t, ""); !reported(f, "func lib.helper") {
		t.Errorf("lib.helper not reported at the fixpoint:\n%s", strings.Join(f, "\n"))
	}
}

func TestGenericMethodUsedThroughInstanceIsReached(t *testing.T) {
	f := check(t, "")
	for _, decl := range []string{"method lib.Table.Get", "type lib.Table", "func lib.NewTable"} {
		if reported(f, decl) {
			t.Errorf("%s reported though the binary calls it through an instance", decl)
		}
	}
}

func TestInterfaceMethodIsReached(t *testing.T) {
	if reported(check(t, ""), "method lib.Impl.Do") {
		t.Error("lib.Impl.Do reported though it satisfies the Iface Run calls")
	}
}

func TestUseFromTestFileDoesNotCount(t *testing.T) {
	if f := check(t, ""); !reported(f, "func lib.TestOnly") {
		t.Errorf("lib.TestOnly not reported though only lib_test.go calls it:\n%s", strings.Join(f, "\n"))
	}
}

func TestAllowlistedNameIsNotReported(t *testing.T) {
	if !reported(check(t, ""), "func lib.Allowed") {
		t.Fatal("lib.Allowed not reported without an allowlist")
	}
	f := check(t, "fixture fixture/internal/lib.Allowed the tests keep it\n")
	if reported(f, "func lib.Allowed") {
		t.Error("allowlisted lib.Allowed reported")
	}
	for _, line := range f {
		if strings.HasPrefix(line, "allowlist.txt") {
			t.Errorf("valid entry flagged: %s", line)
		}
	}
}

func TestAllowlistEntryWithoutReasonFails(t *testing.T) {
	for _, allow := range []string{
		"fixture fixture/internal/lib.Allowed\n",
		"keep fixture/internal/lib.Allowed an unknown kind\n",
	} {
		if _, err := parseAllowlist(allow); err == nil {
			t.Errorf("allowlist %q accepted", allow)
		}
	}
}

// TestOracleKindFails: a reference implementation lives in a _test.go
// file, so an oracle entry is an unknown kind.
func TestOracleKindFails(t *testing.T) {
	_, err := parseAllowlist("fixture fixture/internal/lib.Used a fixture\noracle fixture/internal/lib.Allowed a reference the tests compare against\n")
	if err == nil || !strings.Contains(err.Error(), `allowlist.txt:2: kind "oracle" is not fixture or hook`) {
		t.Errorf("oracle entry: err = %v, want an unknown-kind error on line 2", err)
	}
}

func TestStaleAllowlistEntryFails(t *testing.T) {
	f := check(t, "hook fixture/internal/lib.Used the binary calls it now\n"+
		"hook fixture/internal/lib.Gone deleted since\n")
	want := []string{
		"allowlist.txt:1: fixture/internal/lib.Used is reached: delete the entry",
		"allowlist.txt:2: fixture/internal/lib.Gone is not declared",
	}
	for _, w := range want {
		found := false
		for _, line := range f {
			found = found || line == w
		}
		if !found {
			t.Errorf("missing finding %q in:\n%s", w, strings.Join(f, "\n"))
		}
	}
}
