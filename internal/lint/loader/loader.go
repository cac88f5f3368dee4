// Package loader type-checks the module's packages using only the standard
// library, so the questvet analyzers (internal/lint/...) can run without a
// golang.org/x/tools dependency. It is a deliberately small subset of what
// go/packages provides: non-test files only, those go/build matches for the
// default build context (file-name suffixes and //go:build lines), no cgo —
// enough for whole-module static analysis with full type information.
//
// Packages inside the module are resolved straight from the source tree and
// type-checked on demand (imports recurse through Load, which doubles as the
// topological ordering); everything else — the standard library — goes
// through go/importer's source importer so no compiled export data is
// required.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module (or an extra directory
// loaded by LoadDir, e.g. an analysistest testdata tree).
type Package struct {
	// Path is the import path ("quest/internal/mc"), or the synthetic path
	// given to LoadDir.
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files are the parsed non-test Go files, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// Program owns a shared FileSet and the set of loaded packages. It
// implements types.ImporterFrom: module-internal import paths resolve to
// packages loaded from Root, all others fall through to the stdlib source
// importer.
type Program struct {
	Fset   *token.FileSet
	Module string // module path from go.mod
	Root   string // absolute module root directory

	pkgs    map[string]*Package
	loading map[string]bool // cycle guard for Load
	std     types.ImporterFrom
}

// NewProgram reads go.mod under root and prepares an empty program.
func NewProgram(root string) (*Program, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("loader: source importer does not implement types.ImporterFrom")
	}
	return &Program{
		Fset:    fset,
		Module:  mod,
		Root:    abs,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		std:     std,
	}, nil
}

// FindRoot walks up from dir to the nearest directory containing go.mod.
func FindRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("loader: no go.mod found above %s", dir)
		}
		d = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("loader: no module directive in %s", gomod)
}

// LoadModule loads and type-checks every package under the module root,
// returning them sorted by import path. Directories named "testdata" and
// hidden/underscore directories are skipped, matching the go tool.
func (pr *Program) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(pr.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != pr.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if fs, err := goFiles(path); err == nil && len(fs) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		p, err := pr.Load(pr.pathForDir(dir))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func (pr *Program) pathForDir(dir string) string {
	rel, err := filepath.Rel(pr.Root, dir)
	if err != nil || rel == "." {
		return pr.Module
	}
	return pr.Module + "/" + filepath.ToSlash(rel)
}

func (pr *Program) dirForPath(path string) string {
	if path == pr.Module {
		return pr.Root
	}
	return filepath.Join(pr.Root, filepath.FromSlash(strings.TrimPrefix(path, pr.Module+"/")))
}

// Load type-checks the module package with the given import path (loading
// its module-internal dependencies first) and caches the result.
func (pr *Program) Load(path string) (*Package, error) {
	if p, ok := pr.pkgs[path]; ok {
		return p, nil
	}
	if pr.loading[path] {
		return nil, fmt.Errorf("loader: import cycle through %s", path)
	}
	pr.loading[path] = true
	defer delete(pr.loading, path)

	p, err := pr.loadDir(path, pr.dirForPath(path))
	if err != nil {
		return nil, err
	}
	pr.pkgs[path] = p
	return p, nil
}

// LoadDir loads the .go files of an arbitrary directory (outside the module
// walk, e.g. an analysistest testdata tree) as a package with the given
// synthetic import path. Imports of module packages resolve against the
// program's root.
func (pr *Program) LoadDir(dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return pr.loadDir(asPath, abs)
}

func (pr *Program) loadDir(path, dir string) (*Package, error) {
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(pr.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: pr}
	tpkg, err := conf.Check(path, pr.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// goFiles lists the buildable non-test Go file names of dir, sorted: those
// go/build's default context matches, so a file for another architecture
// or excluded by its //go:build line is left out, as the go tool leaves it.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// MatchFile also rejects names starting with "." or "_".
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Import implements types.Importer.
func (pr *Program) Import(path string) (*types.Package, error) {
	return pr.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module paths load from source,
// the rest (stdlib) goes through the source importer.
func (pr *Program) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == pr.Module || strings.HasPrefix(path, pr.Module+"/") {
		p, err := pr.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return pr.std.ImportFrom(path, dir, mode)
}
