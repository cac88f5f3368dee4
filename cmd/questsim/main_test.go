package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags pins which numeric flag values questsim refuses before it
// builds a machine: each bad value fails with an error naming its flag, and
// the defaults and the smallest valid values pass.
func TestCheckFlags(t *testing.T) {
	type args struct {
		tiles, patches, d, cycles, replays int
		noise                              float64
	}
	def := args{tiles: 1, patches: 2, d: 3, cycles: 50, replays: 20}
	with := func(f func(*args)) args {
		a := def
		f(&a)
		return a
	}
	for _, tc := range []struct {
		name string
		args args
		flag string // "" = accepted
	}{
		{"defaults", def, ""},
		{"smallest", args{tiles: 1, patches: 1, d: 2, cycles: 0, replays: 1}, ""},
		{"noise-one", with(func(a *args) { a.noise = 1 }), ""},
		{"noise-1e-3", with(func(a *args) { a.noise = 1e-3 }), ""},
		{"tiles-zero", with(func(a *args) { a.tiles = 0 }), "-tiles"},
		{"patches-zero", with(func(a *args) { a.patches = 0 }), "-patches"},
		{"d-zero", with(func(a *args) { a.d = 0 }), "-d"},
		{"d-one", with(func(a *args) { a.d = 1 }), "-d"},
		{"noise-negative", with(func(a *args) { a.noise = -0.5 }), "-noise"},
		{"noise-NaN", with(func(a *args) { a.noise = math.NaN() }), "-noise"},
		{"noise-two", with(func(a *args) { a.noise = 2 }), "-noise"},
		{"noise-inf", with(func(a *args) { a.noise = math.Inf(1) }), "-noise"},
		{"cycles-negative", with(func(a *args) { a.cycles = -5 }), "-cycles"},
		{"replays-zero", with(func(a *args) { a.replays = 0 }), "-replays"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.args
			err := checkFlags(a.tiles, a.patches, a.d, a.cycles, a.replays, a.noise)
			switch {
			case tc.flag == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.flag != "" && err == nil:
				t.Errorf("accepted; want an error naming %s", tc.flag)
			case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+" "):
				t.Errorf("error %q does not lead with %s", err, tc.flag)
			}
		})
	}
}
