package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// check parses src as a file and returns tracecheck's findings.
func check(t *testing.T, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return checkFile(fset, file)
}

// The accepted shapes are the repo's actual idioms, lifted from
// resolver/client.go, resolver/iterate.go, and measure/scanner.go; the
// rejected shapes are the regressions the lint exists to catch.
func TestAcceptsRepoIdioms(t *testing.T) {
	cases := map[string]string{
		"deferred stage End": `
func f(ctx context.Context) (err error) {
	ctx, st := trace.Begin(ctx, kind, "x", nil)
	defer func() { st.End(err) }()
	if bad() {
		return errBad
	}
	return work(ctx)
}`,
		"End before every return": `
func f(ctx context.Context) error {
	fctx, st := trace.Begin(ctx, kind, "x", nil)
	v, err := work(fctx)
	if st.Traced() {
		st.Annotate(v)
	}
	st.End(err)
	if err != nil {
		return err
	}
	return nil
}`,
		"stage End inside the loop body that began it": `
func f(ctx context.Context) error {
	for i := 0; i < 3; i++ {
		actx, st := trace.Begin(ctx, kind, "x", nil)
		err := work(actx)
		st.End(err)
		if err != nil {
			return err
		}
	}
	return nil
}`,
		"loop stage ended on both arms": `
func f(ctx context.Context) error {
	for i := 0; i < 3; i++ {
		_, st := trace.Begin(ctx, kind, "x", nil)
		err := work()
		if err != nil {
			st.End(err)
			if fatal(err) {
				return err
			}
			continue
		}
		st.End(nil)
	}
	return nil
}`,
		"early-exit arm ends, then fallthrough ends": `
func f(ctx context.Context) error {
	_, st := trace.Begin(ctx, kind, "x", nil)
	if bad() {
		st.End(errBad)
		return errBad
	}
	st.End(nil)
	return nil
}`,
		"stage inside closure region": `
func f(ctx context.Context, parent trace.Stage) {
	fanEach(3, func(i int) {
		_, st := parent.Begin(ctx, kind, "x", nil)
		work()
		st.End(nil)
	})
}`,
		"stage End in an if-statement initializer": `
func f(ctx context.Context, traced bool) {
	_, st := rec.Begin(ctx, kind, "x", hist)
	if d := st.End(nil); traced {
		use(d)
	}
}`,
		"EndAfter on one arm, End on the other": `
func f(ctx context.Context, a attempt) {
	_, st := a.stage.Begin(ctx, kind, "x", hist)
	err := exchange()
	var rtt time.Duration
	if err != nil && a.Expired() {
		rtt = st.EndAfter(err, a.timeout)
	} else {
		rtt = st.End(err)
	}
	use(rtt)
}`,
		"blank and unrelated assignments ignored": `
func f(ctx context.Context) error {
	_, _ = trace.Begin(ctx, kind, "x", nil)
	v := other.Thing()
	return use(v)
}`,
	}
	for name, src := range cases {
		if got := check(t, src); len(got) != 0 {
			t.Errorf("%s: false positives: %v", name, got)
		}
	}
}

func TestCatchesLeaks(t *testing.T) {
	cases := map[string]struct {
		src  string
		want string // substring of the expected finding
	}{
		"early return between Begin and End": {`
func f(ctx context.Context) error {
	ctx, st := trace.Begin(ctx, kind, "x", nil)
	if bad() {
		return errBad
	}
	st.End(nil)
	return nil
}`, "return"},
		"loop continue skips the End": {`
func f(ctx context.Context) {
	for i := 0; i < 3; i++ {
		_, st := trace.Begin(ctx, kind, "x", nil)
		if skip() {
			continue
		}
		st.End(nil)
	}
}`, "continue"},
		"loop break skips the End": {`
func f(ctx context.Context) {
	for {
		_, st := trace.Begin(ctx, kind, "x", nil)
		if done() {
			break
		}
		st.End(nil)
	}
}`, "break"},
		"only one if-arm ends before return": {`
func f(ctx context.Context) error {
	_, st := trace.Begin(ctx, kind, "x", nil)
	if ok() {
		st.End(nil)
	} else {
		log()
	}
	return nil
}`, "return"},
		"End only inside nested loop that may not run": {`
func f(ctx context.Context, items []int) error {
	_, st := trace.Begin(ctx, kind, "x", nil)
	for range items {
		st.End(nil)
	}
	return nil
}`, "return"},
		"Begin in a loop, End after the loop": {`
func f(ctx context.Context, items []int) {
	var st trace.Stage
	for range items {
		_, st = trace.Begin(ctx, kind, "x", nil)
		work()
	}
	st.End(nil)
}`, "end of its region"},
		"stage never ended before the function ends": {`
func f(ctx context.Context) {
	ctx, st := trace.Begin(ctx, kind, "x", nil)
	work(ctx, st)
}`, "end of its region"},
		"stage ended through another variable": {`
func f(ctx context.Context) {
	_, st := trace.Begin(ctx, kind, "x", nil)
	other.End(nil)
}`, "end of its region"},
		"deferred closure ends a different stage": {`
func f(ctx context.Context) error {
	_, st := trace.Begin(ctx, kind, "x", nil)
	defer func() { other.End(nil) }()
	return nil
}`, "return"},
	}
	for name, tc := range cases {
		got := check(t, tc.src)
		if len(got) == 0 {
			t.Errorf("%s: leak not reported", name)
			continue
		}
		if !strings.Contains(got[0], tc.want) {
			t.Errorf("%s: finding %q does not mention %q", name, got[0], tc.want)
		}
	}
}

// A return inside a closure defined after Begin exits the closure, not
// the function holding the stage — it must not be flagged, and the
// stage ended after the closure is fine.
func TestClosureReturnIsNotAnExit(t *testing.T) {
	src := `
func f(ctx context.Context) {
	_, st := trace.Begin(ctx, kind, "x", nil)
	visit(func(n int) bool {
		if n > 3 {
			return false
		}
		return true
	})
	st.End(nil)
}`
	if got := check(t, src); len(got) != 0 {
		t.Errorf("closure return flagged: %v", got)
	}
}
