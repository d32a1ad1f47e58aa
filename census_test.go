package past_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusStructs are the configuration structs: every exported field of
// each must be set by someone other than its own package — a test, or
// product code elsewhere. False marks the two the census deleted, which
// may be absent and are held to the same rule if they come back.
var censusStructs = map[string]bool{
	"past.PeerConfig": true, "past.NetworkConfig": true, "past/internal/past.Config": true,
	"past/internal/pastry.Config": true, "past/internal/cluster.Options": true,
	"past/internal/simnet.Config": true, "past/internal/telemetry.Config": true,
	"past/internal/transport.TCPOptions": true, "past/internal/transport.BreakerOptions": true,
	"past/internal/topology.Config": false, "past/internal/chaos.Options": false,
}

// censusAllowed names the fields with no setter the census can see, and
// why each stays.
var censusAllowed = map[string]string{
	"past.PeerConfig.Seed":                 "set by bench/, a nested module this test does not load",
	"past/internal/cluster.Options.NodeID": "BuildPAST, same package",
	"past/internal/past.Config.HopBudget":  "SetResilience, E18",
}

// censusLoader type-checks the module from source. A package is its
// non-test files plus its in-package tests, imported as one unit (no
// in-package test here imports upward, so that adds no cycle); external
// test packages are checked on top under the key "<path>/_test". The
// standard library comes from the source importer, which works offline.
type censusLoader struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (l *censusLoader) Import(path string) (*types.Package, error) {
	if path != "past" && !strings.HasPrefix(path, "past/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, l.files[path], l.info)
	l.pkgs[path] = p
	return p, err
}

// censusKey names t (or *t) as "import/path.Type".
func censusKey(t types.Type) string {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path() + "." + n.Obj().Name()
	}
	return ""
}

// TestSurfaceCensus keeps the configuration surface at what someone
// uses: a config field nobody sets, a Peer or Network method nobody
// calls, or a past.Stats counter nobody reads fails it by name.
func TestSurfaceCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	fset := token.NewFileSet()
	l := &censusLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), files: map[string][]*ast.File{}, pkgs: map[string]*types.Package{},
		info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is a nested module with its own go.mod: not loaded.
			if _, e := os.Stat(filepath.Join(path, "go.mod")); path != "." && (e == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Join("past", filepath.Dir(path)))
		if strings.HasSuffix(f.Name.Name, "_test") {
			pkg += "/_test"
		}
		l.files[pkg] = append(l.files[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range l.files {
		if _, err := l.Import(pkg); err != nil {
			t.Fatalf("type-check %s: %v", pkg, err)
		}
	}

	set := map[string]bool{}    // "path.Struct.Field": written from a test or from another package
	read := map[string]bool{}   // past.Stats field: read anywhere
	called := map[string]bool{} // "Peer.Method": selected outside the file that declares Peer's methods
	for pkg, files := range l.files {
		for _, f := range files {
			file := fset.Position(f.Pos()).Filename
			write := func(owner, field string) {
				if strings.HasSuffix(file, "_test.go") || !strings.HasPrefix(owner, pkg+".") {
					set[owner+"."+field] = true
				}
			}
			lhs := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs[e] = true
					}
				case *ast.IncDecStmt:
					lhs[n.X] = true
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if k, ok := kv.Key.(*ast.Ident); ok {
								write(censusKey(l.info.Types[n].Type), k.Name)
							}
						}
					}
				case *ast.SelectorExpr:
					sel := l.info.Selections[n]
					if sel == nil {
						return true
					}
					switch owner := censusKey(sel.Recv()); {
					case sel.Kind() != types.FieldVal:
						if (owner == "past.Peer" && file != "peer.go") || (owner == "past.Network" && file != "network.go") {
							called[owner+"."+n.Sel.Name] = true
						}
					case lhs[n]:
						write(owner, n.Sel.Name)
					case owner == "past/internal/past.Stats":
						read[n.Sel.Name] = true
					}
				}
				return true
			})
		}
	}

	var bad []string
	lookup := func(key string) types.Object {
		i := strings.LastIndex(key, ".")
		if p := l.pkgs[key[:i]]; p != nil {
			return p.Scope().Lookup(key[i+1:])
		}
		return nil
	}
	for key, mustExist := range censusStructs {
		obj := lookup(key)
		if obj == nil {
			if mustExist {
				bad = append(bad, key+": the census names a struct that does not exist")
			}
			continue
		}
		st := obj.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := key + "." + st.Field(i).Name(); st.Field(i).Exported() && !set[f] && censusAllowed[f] == "" {
				bad = append(bad, f+": no test and no other package sets it")
			}
		}
	}
	for f := range censusAllowed {
		if set[f] {
			bad = append(bad, f+": allow-listed, but it has a setter now")
		}
	}
	for _, key := range []string{"past.Peer", "past.Network"} {
		ms := types.NewMethodSet(types.NewPointer(lookup(key).Type()))
		for i := 0; i < ms.Len(); i++ {
			if m := key + "." + ms.At(i).Obj().Name(); ms.At(i).Obj().Exported() && !called[m] {
				bad = append(bad, m+": no caller outside the file that declares it")
			}
		}
	}
	stats := lookup("past/internal/past.Stats").Type().Underlying().(*types.Struct)
	for i := 0; i < stats.NumFields(); i++ {
		if !read[stats.Field(i).Name()] {
			bad = append(bad, "past/internal/past.Stats."+stats.Field(i).Name()+": counted and never read")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}
