package bandwidth

import (
	"sync"
	"testing"
)

func TestRateFormatting(t *testing.T) {
	cases := []struct {
		in   BytesPerSec
		want string
	}{
		{100 * TBs, "100 TB/s"},
		{3.2 * GBs, "3.2 GB/s"},
		{1.5 * MBs, "1.5 MB/s"},
		{2 * KBs, "2 KB/s"},
		{512, "512 B/s"},
		{2.5 * PBs, "2.5 PB/s"},
		{0, "0 B/s"},
		{-512, "-512 B/s"},
		{KBs, "1 KB/s"}, // exactly at each unit threshold
		{MBs, "1 MB/s"},
		{GBs, "1 GB/s"},
		{0.999 * KBs, "999 B/s"}, // just under a threshold stays down a unit
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%v String = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(10, 20)
	c.Add(5, 10)
	if c.Instructions() != 15 || c.Bytes() != 30 {
		t.Errorf("counter = (%d,%d)", c.Instructions(), c.Bytes())
	}
	c.Reset()
	if c.Instructions() != 0 || c.Bytes() != 0 {
		t.Error("reset failed")
	}
}

func TestCounterConcurrency(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1, 2)
			}
		}()
	}
	wg.Wait()
	if c.Instructions() != 8000 || c.Bytes() != 16000 {
		t.Errorf("concurrent counter = (%d,%d), want (8000,16000)", c.Instructions(), c.Bytes())
	}
}

// TestRateFormattingUnitBoundary is the regression test for the SI boundary
// bug: values whose %.3g mantissa rounds to 1000 must promote to the next
// unit instead of printing "1e+03 KB/s".
func TestRateFormattingUnitBoundary(t *testing.T) {
	cases := []struct {
		in   BytesPerSec
		want string
	}{
		{999600, "1 MB/s"},          // the reported bug
		{999.6, "1 KB/s"},           // B/s -> KB/s boundary
		{999.6 * GBs, "1 TB/s"},     // GB/s -> TB/s boundary
		{999.6 * TBs, "1 PB/s"},     // TB/s -> PB/s boundary
		{-999600, "-1 MB/s"},        // sign preserved through promotion
		{999.4 * KBs, "999 KB/s"},   // just below the rounding cliff
		{1001 * KBs, "1 MB/s"},      // normal promotion unaffected
		{999.6 * PBs, "1e+03 PB/s"}, // no unit above PB/s to promote into
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%v String = %q, want %q", float64(c.in), got, c.want)
		}
	}
}
