// Command deadcode is the repository's dead-code gate: it fails when a
// gated package holds a function that no main package (cmd/*, bench,
// examples/*, scripts/*) can reach — one kept alive by tests only, which
// is how the duplicate Foo/FooCtx/FooWorkers ladders accreted. It needs
// nothing but the Go toolchain, so it runs the same offline and in CI:
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
// call it, one reason each; an entry that is no longer dead is an error.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// gated selects the packages in which an unreachable function fails the
// gate; the rest of the module is reported for information only.
var gated = regexp.MustCompile(`/internal/(trace|pipeline|core|cluster|nmf|window|serve)\.`)

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
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	dead, err := analyze(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
	allow := map[string]bool{}
	for _, line := range strings.Split(allowText, "\n") {
		if name, _, _ := strings.Cut(line, "#"); strings.TrimSpace(name) != "" {
			allow[strings.TrimSpace(name)] = true
		}
	}
	var failed, info []string
	for _, name := range dead {
		switch {
		case allow[name]:
			delete(allow, name)
		case gated.MatchString(name):
			failed = append(failed, name)
		default:
			info = append(info, name)
		}
	}
	fmt.Printf("deadcode: %d functions no main package reaches: %d allowlisted, %d in gated packages, %d elsewhere\n",
		len(dead), len(dead)-len(failed)-len(info), len(failed), len(info))
	if len(info) > 0 {
		fmt.Printf("not gated (for information):\n  %s\n", strings.Join(info, "\n  "))
	}
	for name := range allow {
		failed = append(failed, name+"  (allow.txt entry that is not dead: remove it)")
	}
	if len(failed) > 0 {
		sort.Strings(failed)
		fmt.Fprintf(os.Stderr, "functions reachable only from tests (delete them, call them from non-test code, or allowlist them with a reason):\n  %s\n",
			strings.Join(failed, "\n  "))
		os.Exit(1)
	}
}

// analyze returns the sorted names ("import/path.Func" or
// "import/path.Type.Method") of the module's unreachable functions.
func analyze(root string) ([]string, error) {
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
		reach  = map[*types.Func]bool{}
		work   []*types.Func
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

	var inits []ast.Node
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
		for _, file := range files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						inits = append(inits, d)
					}
				case *ast.FuncDecl:
					f := info.Defs[d.Name].(*types.Func)
					bodies[f] = d.Body
					names[f] = p.ImportPath + "." + d.Name.Name
					if d.Recv != nil {
						recv := types.ExprString(d.Recv.List[0].Type)
						recv, _, _ = strings.Cut(strings.TrimPrefix(recv, "*"), "[")
						names[f] = p.ImportPath + "." + recv + "." + d.Name.Name
						byName[d.Name.Name] = append(byName[d.Name.Name], f)
					} else if p.Name == "main" && (d.Name.Name == "main" || d.Name.Name == "init") {
						mark(f)
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
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if body := bodies[f]; body != nil {
			refs(body)
		}
	}

	var dead []string
	for f, name := range names {
		if !reach[f] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}
