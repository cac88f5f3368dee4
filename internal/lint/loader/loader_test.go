package loader

import (
	"go/build"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFindRoot(t *testing.T) {
	got, err := FindRoot("testdata/mod/a")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := filepath.Abs("testdata/mod")
	if got != want {
		t.Errorf("FindRoot(testdata/mod/a) = %s, want %s", got, want)
	}
	// From the package directory itself the nearest go.mod is the real
	// module's.
	got, err = FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(got, "go.mod")); err != nil {
		t.Errorf("FindRoot(.) = %s, which has no go.mod", got)
	}
	if _, err := FindRoot(t.TempDir()); err == nil {
		t.Error("FindRoot above a bare temp dir should fail")
	}
}

func TestLoadModuleRecursiveImports(t *testing.T) {
	prog, err := NewProgram("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Module != "demo" {
		t.Fatalf("module = %q", prog.Module)
	}
	pkgs, err := prog.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	// Sorted by import path; _skip is excluded (it would not type-check).
	if got := strings.Join(paths, " "); got != "demo demo/a demo/b demo/c" {
		t.Fatalf("paths = %q", got)
	}
	// demo/a type-checked against demo/b, which loaded demo/c and stdlib
	// strconv recursively: the exported function's signature is complete.
	a := pkgs[1]
	twice := a.Types.Scope().Lookup("Twice")
	if twice == nil {
		t.Fatal("demo/a has no Twice")
	}
	if got := twice.Type().String(); got != "func(x int) int" {
		t.Errorf("Twice type = %s", got)
	}
	// Loading again returns the cached package, not a re-check.
	again, err := prog.Load("demo/a")
	if err != nil {
		t.Fatal(err)
	}
	if again != a {
		t.Error("Load(demo/a) did not return the cached package")
	}
}

func TestLoadDirSyntheticPath(t *testing.T) {
	prog, err := NewProgram("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := prog.LoadDir("testdata/mod/a", "x/a")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Path != "x/a" || len(pkg.Files) != 1 {
		t.Fatalf("pkg = %+v", pkg)
	}
	if pkg.Types.Scope().Lookup("Twice") == nil {
		t.Error("synthetic package lost its declarations")
	}
}

func TestLoadModuleImportCycle(t *testing.T) {
	prog, err := NewProgram("testdata/cycle")
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.LoadModule()
	if err == nil || !strings.Contains(err.Error(), "import cycle") {
		t.Fatalf("LoadModule = %v, want import-cycle error", err)
	}
}

// TestLoadModuleHonoursBuildConstraints loads a package whose two files
// declare the same constant, one for amd64 by its file name and one for
// every other architecture by its //go:build line: the loader keeps only the
// file this build matches, as the go tool does, instead of failing on a
// redeclaration.
func TestLoadModuleHonoursBuildConstraints(t *testing.T) {
	prog, err := NewProgram("testdata/tags")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := prog.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "tags/word" || len(pkgs[0].Files) != 1 {
		t.Fatalf("LoadModule = %+v, want tags/word with one file", pkgs)
	}
	want := "other"
	if build.Default.GOARCH == "amd64" {
		want = "amd64"
	}
	arch, ok := pkgs[0].Types.Scope().Lookup("Arch").(*types.Const)
	if !ok || constant.StringVal(arch.Val()) != want {
		t.Fatalf("Arch = %v, want %q", arch, want)
	}
}

func TestBrokenFileFails(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module broken\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "bad.go"), "package p\n\nfunc {\n")
	prog, err := NewProgram(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.LoadModule()
	if err == nil || !strings.Contains(err.Error(), "bad.go") {
		t.Fatalf("LoadModule = %v, want a parse error naming bad.go", err)
	}
}

func TestTypeErrorFails(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module broken\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "bad.go"), "package p\n\nvar X int = \"not an int\"\n")
	prog, err := NewProgram(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = prog.LoadModule()
	if err == nil || !strings.Contains(err.Error(), "type-checking") {
		t.Fatalf("LoadModule = %v, want a type-checking error", err)
	}
}

func TestNewProgramRequiresGoMod(t *testing.T) {
	if _, err := NewProgram(t.TempDir()); err == nil {
		t.Error("NewProgram on a dir without go.mod should fail")
	}
}

func TestLoadDirNoGoFiles(t *testing.T) {
	prog, err := NewProgram("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.LoadDir(t.TempDir(), "empty"); err == nil ||
		!strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("LoadDir(empty) = %v, want no-Go-files error", err)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
