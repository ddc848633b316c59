// Command tracecheck is the repo's custom vet pass for resolution
// tracing: every stage opened with a trace Begin in the packages it is
// pointed at must be ended on every path out of the region that opened
// it — otherwise the flight recorder exports trees with spans stuck
// "open", the stage's histogram misses its observation, and every
// duration downstream of them is a lie. `make lint` runs it over every
// package directory of the module, so a new stage site is checked
// wherever it lands.
//
//	go run ./internal/tools/tracecheck $(go list -f '{{.Dir}}' ./...)
//
// The analysis is deliberately small. For each assignment
// `ctx, x := trace.Begin(...)` (or `ctx, x = ...`: any `.Begin` call
// assigned to two values), closed by `x.End(...)` or by
// `x.EndAfter(...)`, it finds the enclosing region — the body of the innermost function or loop
// containing the assignment, since a stage begun inside a loop
// iteration must be ended within that iteration — and walks the
// region's statements structurally:
//
//   - a statement containing `x.End(...)` or `x.EndAfter(...)` marks
//     the stage ended from that point on;
//   - a `defer` whose call — directly or inside a deferred func
//     literal — ends x covers every subsequent exit;
//   - a return, or a break/continue when the region is a loop body,
//     reached while the stage may still be open is reported, and so is
//     the end of the region;
//   - an if-arm that ends the stage and falls through propagates the
//     ended state; an arm that exits (returns on all its paths) does
//     not leak its state into the fallthrough path.
//
// The walker is optimistic about guard conditions and does not follow
// data flow through calls; it exists to catch the real-world leak — a
// new early return slipped between Begin and End — not to be a theorem
// prover. Test files are skipped: tests open stages to assert on
// half-open states.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <package-dir>...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	fset := token.NewFileSet()
	var findings []string
	for _, dir := range flag.Args() {
		fs, err := checkDir(fset, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	sort.Strings(findings)
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func checkDir(fset *token.FileSet, dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		findings = append(findings, checkFile(fset, file)...)
	}
	return findings, nil
}

// checkFile reports every Begin assignment in file whose stage can
// escape its region unended.
func checkFile(fset *token.FileSet, file *ast.File) []string {
	var findings []string
	// Ancestor stack maintained by hand: ast.Inspect signals a pop with
	// a nil node.
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		ident := opened(assign)
		if ident == nil {
			return true
		}
		region, isLoop := enclosingRegion(stack)
		if region == nil {
			return true
		}
		c := &checker{varName: ident.Name, assignPos: assign.Pos()}
		if ended, term := c.walk(region.List, false, isLoop); !ended && !term {
			c.leaks = append(c.leaks, leak{region.Rbrace, "end of its region"})
		}
		for _, leak := range c.leaks {
			findings = append(findings, fmt.Sprintf(
				"%s: stage %q begun at %s may reach this %s unended",
				fset.Position(leak.pos), ident.Name, fset.Position(assign.Pos()), leak.kind))
		}
		return true
	})
	return findings
}

// opened returns the stage variable assign opens — the second value of
// a two-valued `.Begin(...)` — or nil.
func opened(assign *ast.AssignStmt) *ast.Ident {
	if len(assign.Rhs) != 1 || len(assign.Lhs) != 2 {
		return nil
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || !isMethodCall(call, "Begin") {
		return nil
	}
	if ident, ok := assign.Lhs[1].(*ast.Ident); ok && ident.Name != "_" {
		return ident
	}
	return nil
}

// enclosingRegion walks the ancestor stack (innermost last, ending at
// the AssignStmt) to the body of the nearest function or loop: the
// block a stage begun inside it must not escape. isLoop reports a
// loop body, where break/continue are exits too.
func enclosingRegion(stack []ast.Node) (*ast.BlockStmt, bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl:
			return n.Body, false
		case *ast.FuncLit:
			return n.Body, false
		case *ast.ForStmt:
			return n.Body, true
		case *ast.RangeStmt:
			return n.Body, true
		}
	}
	return nil, false
}

type leak struct {
	pos  token.Pos
	kind string // "return", "break", "continue"
}

// checker walks one region for one stage variable. Statements entirely
// before the assignment are skipped; the walk tracks whether the stage
// is certainly ended on the current path.
type checker struct {
	varName   string
	assignPos token.Pos
	leaks     []leak
}

// walk processes a statement list. ended is the state at entry;
// branchExits marks a loop-body region where break/continue leave the
// region. Returns (ended at exit, all paths exited the region).
func (c *checker) walk(stmts []ast.Stmt, ended, branchExits bool) (bool, bool) {
	for _, s := range stmts {
		var term bool
		ended, term = c.walkStmt(s, ended, branchExits)
		if term {
			return ended, true
		}
	}
	return ended, false
}

func (c *checker) walkStmt(s ast.Stmt, ended, branchExits bool) (bool, bool) {
	if s.End() < c.assignPos {
		return ended, false // entirely before the stage begins
	}
	switch st := s.(type) {
	case *ast.BlockStmt:
		return c.walk(st.List, ended, branchExits)
	case *ast.LabeledStmt:
		return c.walkStmt(st.Stmt, ended, branchExits)
	case *ast.DeferStmt:
		// A deferred end covers every later exit from the function; a
		// deferred func literal is scanned for the same call.
		if c.ends(st.Call) {
			return true, false
		}
		return ended, false
	case *ast.ReturnStmt:
		if !ended && st.Pos() > c.assignPos {
			c.leaks = append(c.leaks, leak{st.Pos(), "return"})
		}
		return ended, true
	case *ast.BranchStmt:
		if branchExits && (st.Tok == token.BREAK || st.Tok == token.CONTINUE) {
			if !ended && st.Pos() > c.assignPos {
				c.leaks = append(c.leaks, leak{st.Pos(), strings.ToLower(st.Tok.String())})
			}
			return ended, true
		}
		return ended, false
	case *ast.IfStmt:
		return c.walkIf(st, ended, branchExits)
	case *ast.ForStmt:
		// Nested loop: stages begun outside are not exited by its
		// break/continue, and the body may run zero times.
		c.walk(st.Body.List, ended || contains(st, c.assignPos), false)
		return ended, false
	case *ast.RangeStmt:
		c.walk(st.Body.List, ended || contains(st, c.assignPos), false)
		return ended, false
	case *ast.SwitchStmt:
		return c.walkCases(st.Body, ended, branchExits)
	case *ast.TypeSwitchStmt:
		return c.walkCases(st.Body, ended, branchExits)
	case *ast.SelectStmt:
		return c.walkCases(st.Body, ended, branchExits)
	case *ast.GoStmt:
		return ended, false
	default:
		// Simple statements: an End call anywhere inside counts.
		if c.ends(s) {
			return true, false
		}
		return ended, false
	}
}

// walkIf handles the two if idioms. When the assignment is inside one
// arm, only that arm's paths matter (the other arm never began the
// stage). Otherwise both arms are walked; an arm that ends the stage and
// falls through propagates ended (the walker is optimistic about the
// guard), while an arm that exits keeps its state off the fallthrough
// path.
func (c *checker) walkIf(st *ast.IfStmt, ended, branchExits bool) (bool, bool) {
	if contains(st.Body, c.assignPos) {
		return c.walk(st.Body.List, ended, branchExits)
	}
	if st.Else != nil && contains(st.Else, c.assignPos) {
		return c.walkStmt(st.Else, ended, branchExits)
	}
	// The init statement and condition run on both arms' paths.
	if (st.Init != nil && c.ends(st.Init)) || c.ends(st.Cond) {
		ended = true
	}
	thenEnded, thenTerm := c.walk(st.Body.List, ended, branchExits)
	if st.Else == nil {
		if !thenTerm && thenEnded {
			return true, false
		}
		return ended, false
	}
	elseEnded, elseTerm := c.walkStmt(st.Else, ended, branchExits)
	switch {
	case thenTerm && elseTerm:
		return ended, true
	case thenTerm:
		return elseEnded, false
	case elseTerm:
		return thenEnded, false
	default:
		return thenEnded && elseEnded, false
	}
}

// walkCases walks each case/comm clause independently; falling out of
// the switch keeps the entry state unless every clause ends the stage.
func (c *checker) walkCases(body *ast.BlockStmt, ended, branchExits bool) (bool, bool) {
	if len(body.List) == 0 {
		return ended, false
	}
	allEnd, hasDefault := true, false
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch clause := cl.(type) {
		case *ast.CaseClause:
			stmts = clause.Body
			hasDefault = hasDefault || clause.List == nil
		case *ast.CommClause:
			stmts = clause.Body
			hasDefault = hasDefault || clause.Comm == nil
		}
		if contains(cl, c.assignPos) {
			return c.walk(stmts, ended, branchExits)
		}
		// break inside a switch leaves the switch, not the loop region.
		clEnded, clTerm := c.walk(stmts, ended, false)
		if !clTerm && !clEnded {
			allEnd = false
		}
		_ = clTerm
	}
	if hasDefault && allEnd {
		return true, false
	}
	return ended, false
}

// ends reports whether node contains a call `x.End(...)` or
// `x.EndAfter(...)` for the tracked variable, including inside deferred
// func literals.
func (c *checker) ends(node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isMethodCall(call, "End") && !isMethodCall(call, "EndAfter") {
			return true
		}
		if ident, ok := call.Fun.(*ast.SelectorExpr).X.(*ast.Ident); ok && ident.Name == c.varName {
			found = true
			return false
		}
		return true
	})
	return found
}

func isMethodCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

func contains(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}
