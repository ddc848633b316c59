// Command reachcheck is the repo's dead-code pass: it reports every
// package-level func, method, type, var and const under the module's
// internal/ tree that no binary reaches (DESIGN.md § 15). `make lint`
// runs it over the main and the benchmark module:
//
//	go run ./internal/tools/reachcheck . bench
//
// `go list -deps -export` names each package's non-test files and the
// standard library's export data, so the modules are type-checked from
// source with nothing downloaded. The roots are every declaration
// outside internal/ and every main and init func. A declaration reaches
// what its signature, body, definition, type or initializer names, a use
// in a generic instance counting for its origin and a blank var's
// initializer (an assertion) for nothing; a reached type reaches its
// methods that have the name and signature of an interface method the
// program sees. Test files are not loaded. allowlist.txt names, with a
// kind (fixture or hook) and a reason, what stays though no binary
// reaches it; an entry is a root, and a stale one fails the check. A
// reference implementation that tests compare the product against has
// no kind: it lives in a _test.go file.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed allowlist.txt
var allowlist string

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: reachcheck <module-dir>...")
		os.Exit(2)
	}
	prog, err := load(os.Args[1:])
	var findings []string
	if err == nil {
		findings, err = prog.check(allowlist)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "reachcheck: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// listed is the part of `go list -json` output load reads.
type listed struct {
	ImportPath, Name, Dir, Export string
	GoFiles                       []string
	Standard                      bool
	Module                        *struct{ Path string }
	Error                         *struct{ Err string }
}

// node is one package-level declaration of a module package.
type node struct {
	name     string // import path, then .Name or .Type.Method
	kind     string
	pos      token.Position
	lines    [2]int // first and last line, doc comment included
	internal bool
	uses     []types.Object
	methods  []*types.Func // for a type: the methods an interface may call
}

// program is the modules' declarations as a graph.
type program struct {
	nodes map[types.Object]*node
	roots []types.Object
}

// load type-checks every package of the modules in dirs, the first of
// which decides what internal/ means, and builds the graph.
func load(dirs []string) (*program, error) {
	var pkgs []*listed
	seen := map[string]bool{}
	internal := ""
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			p := new(listed)
			if err := dec.Decode(p); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("go list in %s: %v", dir, err)
			}
			if p.Error != nil {
				return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			if internal == "" && p.Module != nil {
				internal = p.Module.Path + "/internal"
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	fset := token.NewFileSet()
	export := map[string]string{}
	src := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(export[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := src[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})}
	prog := &program{nodes: map[types.Object]*node{}}
	ifaces := interfaces{}
	ifaces.add(types.Universe.Lookup("error").Type())
	scopes := map[*types.Package]bool{}
	// go list prints a package after its dependencies, so each source
	// package is checked before its importers ask for it.
	for _, p := range pkgs {
		if p.Standard {
			export[p.ImportPath] = p.Export
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		src[p.ImportPath] = tp
		isInternal := p.ImportPath == internal || strings.HasPrefix(p.ImportPath, internal+"/")
		for _, f := range files {
			prog.addFile(fset, info, f, isInternal, p.Name == "main")
		}
		for _, tv := range info.Types {
			ifaces.add(tv.Type)
		}
		ifaces.addScopes(tp, scopes)
	}
	for obj, n := range prog.nodes {
		if tn, ok := obj.(*types.TypeName); ok {
			n.methods = ifaces.satisfying(tn)
		}
	}
	return prog, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addFile adds the file's declarations to the graph.
func (prog *program) addFile(fset *token.FileSet, info *types.Info, f *ast.File, internal, isMain bool) {
	add := func(obj types.Object, doc *ast.CommentGroup, decl ast.Node, uses []types.Object) {
		n := prog.nodes[obj]
		if n == nil {
			start := decl.Pos()
			if doc != nil {
				start = doc.Pos()
			}
			n = &node{name: qualified(obj), kind: kindOf(obj), pos: fset.Position(obj.Pos()), internal: internal,
				lines: [2]int{fset.Position(start).Line, fset.Position(decl.End()).Line}}
			prog.nodes[obj] = n
			if !internal {
				prog.roots = append(prog.roots, obj)
			}
		}
		n.uses = append(n.uses, uses...)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && (d.Name.Name == "init" || isMain && d.Name.Name == "main") {
				prog.roots = append(prog.roots, usesIn(info, d)...)
			} else {
				add(info.Defs[d.Name], d.Doc, d, usesIn(info, d))
			}
		case *ast.GenDecl:
			var inherited []ast.Expr // a const spec without values repeats the last one's
			for _, spec := range d.Specs {
				// A parenthesized spec spans itself; a lone one, its decl.
				var decl ast.Node = d
				doc := d.Doc
				if d.Lparen.IsValid() {
					decl, doc = spec, nil
				}
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Doc != nil {
						doc = s.Doc
					}
					add(info.Defs[s.Name], doc, decl, usesIn(info, s))
				case *ast.ValueSpec:
					if s.Doc != nil {
						doc = s.Doc
					}
					values := s.Values
					if len(values) == 0 && d.Tok == token.CONST {
						values = inherited
					}
					inherited = values
					for i, name := range s.Names {
						if name.Name == "_" {
							continue
						}
						obj := info.Defs[name]
						uses := usesIn(info, s.Type)
						if len(values) == len(s.Names) {
							uses = append(uses, usesIn(info, values[i])...)
						} else {
							for _, v := range values {
								uses = append(uses, usesIn(info, v)...)
							}
						}
						if named, ok := obj.Type().(*types.Named); ok {
							uses = append(uses, named.Origin().Obj())
						}
						add(obj, doc, decl, uses)
					}
				}
			}
		}
	}
}

// usesIn returns the objects the identifiers under n refer to, each a
// generic instance's origin.
func usesIn(info *types.Info, n ast.Node) []types.Object {
	if n == nil {
		return nil
	}
	var objs []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				objs = append(objs, obj.Origin())
			case *types.Var:
				objs = append(objs, obj.Origin())
			case nil:
			default:
				objs = append(objs, obj)
			}
		}
		return true
	})
	return objs
}

// qualified is obj's allowlist name: import path, then .Name or
// .Type.Method.
func qualified(obj types.Object) string {
	name := obj.Pkg().Path() + "."
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name += t.(*types.Named).Obj().Name() + "."
	}
	return name + obj.Name()
}

func kindOf(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		if obj.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// interfaces indexes the method signatures of every interface the
// program sees by method name.
type interfaces map[string][]*types.Signature

func (ifs interfaces) add(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			ifs[m.Name()] = append(ifs[m.Name()], m.Type().(*types.Signature))
		}
	}
}

// addScopes adds the package-level interfaces of pkg and of every
// package it imports.
func (ifs interfaces) addScopes(pkg *types.Package, done map[*types.Package]bool) {
	if done[pkg] {
		return
	}
	done[pkg] = true
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			ifs.add(tn.Type())
		}
	}
	for _, imported := range pkg.Imports() {
		ifs.addScopes(imported, done)
	}
}

// satisfying returns the methods of tn an interface call may reach.
// Where a type parameter is involved, or for the errors package's
// anonymous interfaces, the name alone decides.
func (ifs interfaces) satisfying(tn *types.TypeName) []*types.Func {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	var out []*types.Func
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		match := m.Name() == "Unwrap" || m.Name() == "Is" || m.Name() == "As"
		for _, want := range ifs[m.Name()] {
			match = match || named.TypeParams().Len() > 0 || hasTypeParam(want) || types.Identical(m.Type(), want)
		}
		if match {
			out = append(out, m)
		}
	}
	return out
}

func hasTypeParam(sig *types.Signature) bool {
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tup.Len(); i++ {
			if _, ok := tup.At(i).Type().(*types.TypeParam); ok {
				return true
			}
		}
	}
	return false
}

// entry is one allowlist line.
type entry struct {
	name string
	line int
}

// parseAllowlist returns the entries of an allowlist, or an error
// naming every line without a known kind or a reason.
func parseAllowlist(text string) ([]entry, error) {
	var entries []entry
	var errs []error
	for i, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case fields[0] != "fixture" && fields[0] != "hook":
			errs = append(errs, fmt.Errorf("allowlist.txt:%d: kind %q is not fixture or hook", i+1, fields[0]))
		case len(fields) < 3:
			errs = append(errs, fmt.Errorf("allowlist.txt:%d: entry has no reason", i+1))
		default:
			entries = append(entries, entry{fields[1], i + 1})
		}
	}
	return entries, errors.Join(errs...)
}

// check returns one finding per stale allowlist entry, then one per
// unreached declaration under internal/ in source order and a summary,
// and an error for a malformed allowlist.
func (prog *program) check(allow string) ([]string, error) {
	entries, err := parseAllowlist(allow)
	if err != nil {
		return nil, err
	}
	byName := map[string]types.Object{}
	for obj, n := range prog.nodes {
		byName[n.name] = obj
	}
	reached := prog.reach(prog.roots, map[*node]bool{})
	var findings []string
	var allowed []types.Object
	for _, e := range entries {
		obj, ok := byName[e.name]
		switch {
		case !ok:
			findings = append(findings, fmt.Sprintf("allowlist.txt:%d: %s is not declared", e.line, e.name))
		case reached[prog.nodes[obj]]:
			findings = append(findings, fmt.Sprintf("allowlist.txt:%d: %s is reached: delete the entry", e.line, e.name))
		default:
			allowed = append(allowed, obj)
		}
	}
	reached = prog.reach(allowed, reached)
	var dead []*node
	for _, n := range prog.nodes {
		if n.internal && !reached[n] {
			dead = append(dead, n)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	wd, _ := os.Getwd()
	lines := map[string]bool{}
	for _, n := range dead {
		pos := n.pos
		pos.Filename = strings.TrimPrefix(pos.Filename, wd+string(filepath.Separator))
		findings = append(findings, fmt.Sprintf("%s: %s %s is reached by no binary", pos, n.kind, n.name[strings.LastIndex(n.name, "/")+1:]))
		for l := n.lines[0]; l <= n.lines[1]; l++ {
			lines[fmt.Sprint(n.pos.Filename, ":", l)] = true
		}
	}
	if len(dead) > 0 {
		findings = append(findings, fmt.Sprintf("reachcheck: %d declarations (%d lines) under internal/ are reached by no binary", len(dead), len(lines)))
	}
	return findings, nil
}

// reach marks everything reached from roots into reached and returns it.
func (prog *program) reach(roots []types.Object, reached map[*node]bool) map[*node]bool {
	queue := append([]types.Object(nil), roots...)
	for len(queue) > 0 {
		n := prog.nodes[queue[len(queue)-1]]
		queue = queue[:len(queue)-1]
		if n == nil || reached[n] {
			continue
		}
		reached[n] = true
		queue = append(queue, n.uses...)
		for _, m := range n.methods {
			queue = append(queue, m)
		}
	}
	return reached
}
