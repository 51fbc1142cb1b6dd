// Command deadcode is the repository's dead-code gate: it fails when a
// package under internal/ holds a function that no main package (cmd/*,
// bench, scripts/*) can reach — one kept alive by tests only, which is
// how the duplicate Foo/FooCtx/FooWorkers ladders accreted. The
// test-support packages (internal/faultinject, internal/testutil) are
// exempt by rule: tests are their only callers by design. It needs nothing
// but the Go toolchain, so it runs the same offline and in CI:
//
//	go run ./scripts/deadcode [module root]
//
// Method: type-check every non-test package of the module (go list for the
// file sets, go/types with the source importer for the standard library),
// then walk the reference graph. Roots are main and init of every main
// package plus every function named in a package-level initialiser. An
// edge is any identifier in a reachable body that resolves to a function
// (a generic instantiation counts for its origin). A reference to an
// interface method reaches every method of that name, and the method
// names the standard library invokes through its own interfaces are
// always reached. This over-approximates reachability, so what it reports
// is dead; it can miss code a precise call graph would also call dead.
//
// allow.txt lists the library API kept on purpose although only tests
// call it, one reason each. An allowlisted function is a root of its own:
// what only it calls needs no entry. An entry that is reachable without
// the allowlist, or names no function, is an error.
//
//	go run ./scripts/deadcode -bench-only [module root]
//
// prints instead the functions under internal/ that only the benchmark
// (bench/: its main, init and package-level initialisers) reaches — what
// would turn dead if bench/ stopped calling it. It gates nothing.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// gated selects the packages in which an unreachable function fails the
// gate; the rest of the module (the main packages themselves) is reported
// for information only.
var gated = regexp.MustCompile(`/internal/`)

// benchPkg selects the benchmark's main package, whose roots -bench-only
// sets apart.
var benchPkg = regexp.MustCompile(`/bench$`)

// testSupport selects the packages that exist to be called from tests.
var testSupport = regexp.MustCompile(`/internal/(faultinject|testutil)$`)

// stdInvoked are method names the standard library calls through its own
// interfaces (error, fmt.Stringer, io.*, http.Handler, sort.Interface,
// errors.Unwrap, net.Error, types.Importer): no reference to them appears
// in the module.
var stdInvoked = []string{"Error", "String", "Read", "Write", "Close", "ServeHTTP",
	"Len", "Less", "Swap", "Unwrap", "Temporary", "Timeout", "Import"}

//go:embed allow.txt
var allowText string

// listed is the part of `go list -json` output the tool reads.
type listed struct {
	ImportPath, Dir, Name string
	Standard              bool
	GoFiles               []string
}

// moduleImporter serves the module's own packages from the ones already
// checked (go list -deps orders dependencies first) and everything else
// from source.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

func main() {
	benchOnly := flag.Bool("bench-only", false, "print the internal/ functions only bench/ reaches, and gate nothing")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	os.Exit(run(root, allowText, *benchOnly, os.Stdout, os.Stderr))
}

// run applies the gate to the module at root, or with benchOnly lists
// what only bench/ reaches, and returns the exit code.
func run(root, allowText string, benchOnly bool, stdout, stderr io.Writer) int {
	var allow []string
	for _, line := range strings.Split(allowText, "\n") {
		if name, _, _ := strings.Cut(line, "#"); strings.TrimSpace(name) != "" {
			allow = append(allow, strings.TrimSpace(name))
		}
	}
	res, err := analyze(root, allow, benchOnly)
	if err != nil {
		fmt.Fprintln(stderr, "deadcode:", err)
		return 2
	}
	if benchOnly {
		fmt.Fprintf(stdout, "deadcode: %d functions under internal/ only bench/ reaches\n", len(res.benchOnly))
		for _, name := range res.benchOnly {
			fmt.Fprintf(stdout, "  %s\n", name)
		}
		return 0
	}
	fmt.Fprintf(stdout, "deadcode: %d functions kept by allow.txt, %d unreachable in gated packages, %d elsewhere\n",
		len(allow)-len(res.stale), len(res.gated), len(res.info))
	if len(res.info) > 0 {
		fmt.Fprintf(stdout, "not gated (for information):\n  %s\n", strings.Join(res.info, "\n  "))
	}
	failed := res.gated
	for _, name := range res.stale {
		failed = append(failed, name+"  (allow.txt entry that is not dead: remove it)")
	}
	if len(failed) > 0 {
		sort.Strings(failed)
		fmt.Fprintf(stderr, "functions reachable only from tests (delete them, call them from non-test code, or allowlist them with a reason):\n  %s\n",
			strings.Join(failed, "\n  "))
		return 1
	}
	return 0
}

// result is what analyze found: unreachable functions by class, each
// sorted, named "import/path.Func" or "import/path.Type.Method".
type result struct {
	gated     []string // unreachable in a gated package: fails the gate
	info      []string // unreachable elsewhere (a main package): reported only
	stale     []string // allow entries reachable without the allowlist, or naming nothing
	benchOnly []string // with benchOnly: gated functions only bench/'s roots reach
}

// analyze type-checks the module at root and walks its reference graph,
// first from the main packages alone (which finds the stale allow entries)
// and then from the allowlisted functions too. With benchOnly, bench/'s
// roots are held back from both walks and walked last, and what that
// last walk reaches is the benchOnly list.
func analyze(root string, allow []string, benchOnly bool) (*result, error) {
	cmd := exec.Command("go", "list", "-pgo=off", "-json", "-deps", "./...")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}

	build.Default.CgoEnabled = false // the source importer must not need a C compiler
	fset := token.NewFileSet()
	imp := moduleImporter{checked: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil)}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	var (
		bodies = map[*types.Func]*ast.BlockStmt{} // every declared function; nil body for assembly stubs
		names  = map[*types.Func]string{}
		pkgOf  = map[*types.Func]string{}
		reach  = map[*types.Func]bool{}
		work   []*types.Func
		res    result
	)
	mark := func(f *types.Func) {
		if f = f.Origin(); !reach[f] {
			reach[f] = true
			work = append(work, f)
		}
	}
	// refs marks every function an AST subtree names.
	byName := map[string][]*types.Func{} // concrete methods, for interface dispatch
	called := map[string]bool{}
	refs := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if f, ok := info.Uses[id].(*types.Func); ok {
				mark(f)
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !called[f.Name()] {
					called[f.Name()] = true
					for _, m := range byName[f.Name()] {
						mark(m)
					}
				}
			}
			return true
		})
	}
	drain := func() {
		for len(work) > 0 {
			f := work[len(work)-1]
			work = work[:len(work)-1]
			if body := bodies[f]; body != nil {
				refs(body)
			}
		}
	}

	var (
		inits, benchInits []ast.Node
		benchRoots        []*types.Func
	)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		imp.checked[p.ImportPath] = pkg
		held := benchOnly && p.Name == "main" && benchPkg.MatchString(p.ImportPath)
		for _, file := range files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						break
					}
					if held {
						benchInits = append(benchInits, d)
					} else {
						inits = append(inits, d)
					}
				case *ast.FuncDecl:
					f := info.Defs[d.Name].(*types.Func)
					bodies[f] = d.Body
					pkgOf[f] = p.ImportPath
					names[f] = p.ImportPath + "." + d.Name.Name
					if d.Recv != nil {
						recv := types.ExprString(d.Recv.List[0].Type)
						recv, _, _ = strings.Cut(strings.TrimPrefix(recv, "*"), "[")
						names[f] = p.ImportPath + "." + recv + "." + d.Name.Name
						byName[d.Name.Name] = append(byName[d.Name.Name], f)
					} else if p.Name == "main" && (d.Name.Name == "main" || d.Name.Name == "init") {
						if held {
							benchRoots = append(benchRoots, f)
						} else {
							mark(f)
						}
					}
				}
			}
		}
	}
	for _, name := range stdInvoked {
		called[name] = true
		for _, m := range byName[name] {
			mark(m)
		}
	}
	for _, d := range inits {
		refs(d)
	}
	drain()

	byFullName := map[string]*types.Func{}
	for f, name := range names {
		byFullName[name] = f
	}
	for _, name := range allow {
		if f := byFullName[name]; f == nil || reach[f] {
			res.stale = append(res.stale, name)
		}
	}
	for _, name := range allow {
		if f := byFullName[name]; f != nil {
			mark(f)
		}
	}
	drain()
	if benchOnly {
		before := make(map[*types.Func]bool, len(reach))
		for f := range reach {
			before[f] = true
		}
		for _, f := range benchRoots {
			mark(f)
		}
		for _, d := range benchInits {
			refs(d)
		}
		drain()
		for f, name := range names {
			if reach[f] && !before[f] && gated.MatchString(pkgOf[f]) && !testSupport.MatchString(pkgOf[f]) {
				res.benchOnly = append(res.benchOnly, name)
			}
		}
		sort.Strings(res.benchOnly)
	}

	for f, name := range names {
		switch {
		case reach[f] || testSupport.MatchString(pkgOf[f]):
		case gated.MatchString(pkgOf[f]):
			res.gated = append(res.gated, name)
		default:
			res.info = append(res.info, name)
		}
	}
	sort.Strings(res.gated)
	sort.Strings(res.info)
	sort.Strings(res.stale)
	return &res, nil
}
