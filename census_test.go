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
	"strconv"
	"strings"
	"testing"
	"unicode"
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
	"past/internal/cluster.Options.Shards": "set by bench/layers.go, a nested module this test does not load; read by nothing",
	"past/internal/past.Config.HopBudget":  "SetResilience, E18",
}

// censusUnseen names the functions in internal/ whose only callers the
// census cannot see — bench/, a nested module it does not load, or files
// another build configuration compiles — and where each caller is.
var censusUnseen = map[string]string{
	"past/internal/edwards25519/field.feMulGeneric":        "fe_*_noasm.go: purego builds and other architectures",
	"past/internal/edwards25519/field.feSquareGeneric":     "fe_*_noasm.go: purego builds and other architectures",
	"past/internal/seccrypt.Deferred.DeferFileCertificate": "bench/layers.go flushInsert (seccrypt.flush_cert_k3_us) and the bench/trace.go seccrypt.Deferred.Flush ladder step",
	"past/internal/seccrypt.Deferred.DeferStoreReceipt":    "bench/layers.go flushInsert (seccrypt.flush_cert_k3_us) and the bench/trace.go seccrypt.Deferred.Flush ladder step",
}

// censusCounters are the structs of counters the code keeps: each field
// must be read inside the read function of a telemetry Counts series
// whose field list names it in snake_case (aim 4: anything the code
// counts is exported or deleted).
var censusCounters = []string{"past/internal/past.Stats", "past/internal/transport.TCPStats", "past/internal/storage.DiskStats"}

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

// snake spells a Go field name as its series field: DialFailures is
// dial_failures.
func snake(name string) string {
	var b strings.Builder
	for i, r := range name {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

// TestSurfaceCensus keeps the surface at what someone uses: a config
// field nobody sets, a Peer or Network method nobody calls, a function in
// internal/ nobody calls, or a counter no telemetry series exports fails
// it by name.
func TestSurfaceCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	fset := token.NewFileSet()
	l := &censusLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), files: map[string][]*ast.File{}, pkgs: map[string]*types.Package{},
		info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
			Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
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

	set := map[string]bool{}      // "path.Struct.Field": written from a test or from another package
	called := map[string]bool{}   // "Peer.Method": selected outside the file that declares Peer's methods
	exported := map[string]bool{} // "path.Counters.Field": read by a Counts series that names it
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
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Counts" && l.info.Selections[sel] != nil &&
						censusKey(l.info.Selections[sel].Recv()) == "past/internal/telemetry.Recorder" && !strings.HasSuffix(file, "_test.go") {
						censusExports(l.info, n, exported)
					}
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
	for _, key := range censusCounters {
		st := lookup(key).Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := key + "." + st.Field(i).Name(); !exported[f] {
				bad = append(bad, f+": counted and not exported")
			}
		}
	}
	bad = append(bad, censusUncalled(l)...)
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// censusExports marks the counter fields one rec.Counts(name, fields,
// read) call exports: those read inside read whose snake_case name is in
// the literal field list.
func censusExports(info *types.Info, call *ast.CallExpr, exported map[string]bool) {
	lit, ok := call.Args[1].(*ast.CompositeLit)
	if !ok {
		return
	}
	fields := map[string]bool{}
	for _, e := range lit.Elts {
		if b, ok := e.(*ast.BasicLit); ok {
			s, _ := strconv.Unquote(b.Value)
			fields[s] = true
		}
	}
	ast.Inspect(call.Args[2], func(n ast.Node) bool {
		if se, ok := n.(*ast.SelectorExpr); ok && info.Selections[se] != nil && fields[snake(se.Sel.Name)] {
			exported[censusKey(info.Selections[se].Recv())+"."+se.Sel.Name] = true
		}
		return true
	})
}

// censusUncalled names every function and method declared in the
// non-test files of internal/ that nothing uses outside its own body —
// product code and tests both count — except methods that implement an
// interface (they are called through it) and those censusUnseen lists.
func censusUncalled(l *censusLoader) []string {
	decls := map[*types.Func]*ast.FuncDecl{}
	for pkg, files := range l.files {
		for _, f := range files {
			if !strings.HasPrefix(pkg, "past/internal/") || strings.HasSuffix(l.fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
					decls[l.info.Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}
	used := map[*types.Func]bool{}
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			if fd := decls[fn]; fd == nil || id.Pos() < fd.Pos() || id.Pos() >= fd.End() {
				used[fn] = true
			}
		}
	}
	// The interfaces a method could be called through: every one the
	// module's expressions and the parameters of the functions they call
	// mention, plus fmt.Stringer, which fmt finds by reflection.
	ifaces := map[*types.Interface]bool{}
	note := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, tv := range l.info.Types {
		note(tv.Type)
		if sig, ok := tv.Type.(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				note(sig.Params().At(i).Type())
			}
		}
	}
	if fmtPkg, err := l.std.Import("fmt"); err == nil {
		note(fmtPkg.Scope().Lookup("Stringer").Type())
	}
	implements := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && types.Implements(types.NewPointer(t), it) {
					return true
				}
			}
		}
		return false
	}
	var bad []string
	for fn := range decls {
		key := fn.Pkg().Path() + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			key = censusKey(recv.Type()) + "." + fn.Name()
		}
		switch reason := censusUnseen[key]; {
		case used[fn] && reason != "":
			bad = append(bad, key+": allow-listed as called out of sight, but it has a caller here now")
		case !used[fn] && reason == "" && fn.Name() != "main" && !implements(fn):
			bad = append(bad, key+": no caller")
		}
	}
	return bad
}
