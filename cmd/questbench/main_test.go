package main

import (
	"strings"
	"testing"
)

// TestCheckFlags pins which -trials and -workers values questbench refuses:
// negative counts fail with an error naming the flag; zero (the default)
// and positive counts pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		trials, workers int
		flag            string // "" = accepted
	}{
		{0, 0, ""},
		{1, 1, ""},
		{3000, 8, ""},
		{-3, 0, "-trials"},
		{-1, 2, "-trials"},
		{100, -1, "-workers"},
	} {
		err := checkFlags(tc.trials, tc.workers)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("trials=%d workers=%d rejected: %v", tc.trials, tc.workers, err)
		case tc.flag != "" && err == nil:
			t.Errorf("trials=%d workers=%d accepted; want an error naming %s", tc.trials, tc.workers, tc.flag)
		case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+" "):
			t.Errorf("trials=%d workers=%d: error %q does not lead with %s", tc.trials, tc.workers, err, tc.flag)
		}
	}
}
