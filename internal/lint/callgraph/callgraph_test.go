package callgraph

import (
	"strings"
	"testing"

	"quest/internal/lint/loader"
)

// fixtureConfig mirrors the production GraphConfig shape against the
// testdata/prog module (specs are suffix-matched, so "internal/mc.RunWith"
// resolves inside module fix too).
func fixtureConfig() Config {
	return Config{
		Roots:        []string{"app.Drive", "app.Marked", "app.GateDemo", "internal/nope.Missing"},
		ClosureRoots: []string{"internal/mc.RunWith"},
		ObserverPkgs: []string{"internal/tracing"},
		TrackedTypes: map[string][]string{"internal/tracing": {"Tracer"}},
	}
}

func buildFixture(t *testing.T) *Graph {
	t.Helper()
	prog, err := loader.NewProgram("testdata/prog")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := prog.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	return Build(prog, pkgs, fixtureConfig())
}

// node finds a fixture function by display name, failing the test when it
// does not exist.
func node(t *testing.T, g *Graph, display string) *Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if g.DisplayName(n) == display {
			return n
		}
	}
	t.Fatalf("no node %q in fixture graph", display)
	return nil
}

func TestBuildRootsAndUnresolved(t *testing.T) {
	g := buildFixture(t)

	if got := g.UnresolvedRoots(); len(got) != 1 || got[0] != "internal/nope.Missing" {
		t.Errorf("UnresolvedRoots = %v, want [internal/nope.Missing]", got)
	}

	wantRoots := map[string]string{
		"app.Drive":       "app.Drive", // from Config.Roots
		"app.Marked":      "app.Marked",
		"app.GateDemo":    "app.GateDemo",
		"app.Drive.func1": "trial closure", // literal handed to RunWith
		"app.trialFn":     "trial closure", // named function handed to RunWith
	}
	got := map[string]string{}
	for _, r := range g.Roots() {
		got[g.DisplayName(r)] = g.RootReason(r)
	}
	for name, why := range wantRoots {
		if got[name] != why {
			t.Errorf("root %s reason = %q, want %q", name, got[name], why)
		}
	}
	if len(got) != len(wantRoots) {
		t.Errorf("roots = %v, want exactly %v", got, wantRoots)
	}
}

func TestHotReachability(t *testing.T) {
	g := buildFixture(t)
	hot := []string{
		"app.Drive", "app.Drive.func1", "app.Marked", "app.GateDemo", "app.trialFn",
		"internal/mc.RunWith", "internal/mc.Helper", "internal/mc.Dispatch",
		// Interface dispatch bounds s.Put(1) to both in-module impls.
		"internal/mc.Fast.Put", "internal/mc.(*Slow).Put",
		// Emit is hot through Helper's *ungated* second call.
		"internal/tracing.(*Tracer).Emit",
	}
	for _, name := range hot {
		if !g.Hot(node(t, g, name)) {
			t.Errorf("%s should be hot", name)
		}
	}
	cold := []string{
		"internal/mc.Cold",
		// onlyGated is called only inside `if tr != nil`: gated edges do not
		// extend hot reachability.
		"app.onlyGated",
		"app.driveNamed", "app.earlyReturn", "app.wrongGuard",
	}
	for _, name := range cold {
		if g.Hot(node(t, g, name)) {
			t.Errorf("%s should not be hot", name)
		}
	}
}

func TestHotPathAndPathString(t *testing.T) {
	g := buildFixture(t)
	helper := node(t, g, "internal/mc.Helper")
	path := g.HotPath(helper)
	if len(path) == 0 || path[len(path)-1] != helper {
		t.Fatalf("HotPath(Helper) = %v", path)
	}
	if g.RootReason(path[0]) == "" {
		t.Errorf("path start %s is not a root", g.DisplayName(path[0]))
	}
	ps := g.PathString(path)
	if !strings.Contains(ps, " → internal/mc.Helper") {
		t.Errorf("PathString = %q", ps)
	}
	if g.HotPath(node(t, g, "internal/mc.Cold")) != nil {
		t.Error("HotPath of a cold node should be nil")
	}
}

func TestLookupSpecs(t *testing.T) {
	g := buildFixture(t)
	cases := []struct {
		spec string
		want int
	}{
		{"internal/mc.RunWith", 1},
		{"mc.RunWith", 1}, // shorter suffix still matches
		{"fix/internal/mc.RunWith", 1},
		{"internal/mc.(*Slow).Put", 1},
		{"internal/mc.Slow.Put", 1}, // receiver pointerness ignored
		{"internal/mc.(*Fast).Put", 1},
		{"internal/tracing.(*Tracer).Emit", 1},
		{"app.Missing", 0},
		{"other/mc.RunWith", 0}, // suffix must match whole path elements
		{"", 0},
	}
	for _, c := range cases {
		if got := len(g.Lookup(c.spec)); got != c.want {
			t.Errorf("Lookup(%q) found %d nodes, want %d", c.spec, got, c.want)
		}
	}
}

func TestTrackedCallGating(t *testing.T) {
	g := buildFixture(t)
	cases := []struct {
		node  string
		want  []TrackedCall // Pos ignored
		paths []string
	}{
		{node: "internal/mc.Helper", want: []TrackedCall{
			{PkgSuffix: "internal/tracing", TypeName: "Tracer", Method: "Emit", Recv: "tr", Gated: true, GatedOnRecv: true},
			{PkgSuffix: "internal/tracing", TypeName: "Tracer", Method: "Emit", Recv: "tr"},
		}},
		// `if tr == nil { return }` gates the remainder of the block.
		{node: "app.earlyReturn", want: []TrackedCall{
			{PkgSuffix: "internal/tracing", TypeName: "Tracer", Method: "Emit", Recv: "tr", Gated: true, GatedOnRecv: true},
		}},
		// The guard in force where a literal is defined proves its receiver
		// non-nil, but leaves the literal's own region ungated.
		{node: "app.litGuard.func1", want: []TrackedCall{
			{PkgSuffix: "internal/tracing", TypeName: "Tracer", Method: "Emit", Recv: "tr", Gated: false, GatedOnRecv: true},
		}},
		// A guard on a different tracer gates the region but not the receiver.
		{node: "app.wrongGuard", want: []TrackedCall{
			{PkgSuffix: "internal/tracing", TypeName: "Tracer", Method: "Emit", Recv: "b", Gated: true, GatedOnRecv: false},
		}},
	}
	for _, c := range cases {
		n := node(t, g, c.node)
		if len(n.Tracked) != len(c.want) {
			t.Errorf("%s has %d tracked calls, want %d", c.node, len(n.Tracked), len(c.want))
			continue
		}
		for i, w := range c.want {
			got := n.Tracked[i]
			got.Pos = 0
			if got != w {
				t.Errorf("%s tracked[%d] = %+v, want %+v", c.node, i, got, w)
			}
		}
	}
}

// TestReachableFromSubgraph pins the subgraph bfs reaches from one root:
// Marked's interface call bounds to both in-module Sink implementations.
func TestReachableFromSubgraph(t *testing.T) {
	g := buildFixture(t)
	pred := bfs([]*Node{node(t, g, "app.Marked")})
	var names []string
	for _, n := range g.Nodes() { // node order, not map order
		if _, ok := pred[n]; ok {
			names = append(names, g.DisplayName(n))
		}
	}
	want := "app.Marked internal/mc.Fast.Put internal/mc.(*Slow).Put internal/mc.Dispatch"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("bfs(Marked) reaches %q, want %q", got, want)
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec, pkg, recv, name string
		ok                    bool
	}{
		{"internal/mc.RunWith", "internal/mc", "", "RunWith", true},
		{"quest/internal/mce.(*MCE).StepCycle", "quest/internal/mce", "MCE", "StepCycle", true},
		{"internal/decoder.Lattice.Index", "internal/decoder", "Lattice", "Index", true},
		{"mc.F", "mc", "", "F", true},
		{"nodot", "", "", "", false},
		{"internal/mc.(*Broken.F", "", "", "", false},
	}
	for _, c := range cases {
		pkg, recv, name, ok := parseSpec(c.spec)
		if ok != c.ok || pkg != c.pkg || recv != c.recv || name != c.name {
			t.Errorf("parseSpec(%q) = (%q, %q, %q, %v), want (%q, %q, %q, %v)",
				c.spec, pkg, recv, name, ok, c.pkg, c.recv, c.name, c.ok)
		}
	}
}
