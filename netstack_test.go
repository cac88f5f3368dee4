// Guard for the CLIs' start-up cost. questbench and questsim open no socket,
// yet a single import of net or net/http links and initialises Go's network,
// TLS and crypto stack in every run: about 6 MB of each binary, and 1.5-2 ms
// of process start on a 2-vCPU Linux VM, where a threshold sweep takes
// 10 ms. CPU profiles go to a file (-cpuprofile).
package quest_test

import (
	"os/exec"
	"strings"
	"testing"
)

func TestCLIsLinkNoNetworkStack(t *testing.T) {
	gocmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(gocmd, "list", "-deps", "./cmd/questbench", "./cmd/questsim").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch pkg {
		case "net", "net/http", "crypto/tls":
			t.Errorf("questbench or questsim depends on %s; find the importer with: go list -deps -f '{{.ImportPath}}: {{.Imports}}' ./cmd/...", pkg)
		}
	}
}
