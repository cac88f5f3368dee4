package errsink_test

import (
	"testing"

	"quest/internal/lint/analysistest"
	"quest/internal/lint/errsink"
)

func TestErrsink(t *testing.T) {
	analysistest.RunTree(t, "testdata/sink", errsink.Analyzer)
}
