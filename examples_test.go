package quest_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesPrintGolden pins every example's stdout byte for byte to
// testdata/examples/NAME.txt. The examples take no input and draw only from
// fixed seeds, so each prints the same bytes on every run, and a change that
// moves an example's answer shows as a diff of its file. A change that
// moves one on purpose regenerates them with
//
//	for d in examples/*/; do go run ./$d > testdata/examples/$(basename $d).txt; done
func TestExamplesPrintGolden(t *testing.T) {
	gocmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	dirs, err := filepath.Glob("examples/*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	bin := t.TempDir()
	build := exec.Command(gocmd, "build", "-buildvcs=false", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, dir := range dirs {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if string(got) != string(want) {
				t.Errorf("stdout drifted from testdata/examples/%s.txt:\n got:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}
