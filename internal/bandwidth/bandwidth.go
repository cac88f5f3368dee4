// Package bandwidth provides the units, counters and formatting used across
// the instruction-bandwidth experiments: byte rates spanning the paper's
// eight orders of magnitude and instruction counters for the machine
// simulations.
package bandwidth

import (
	"fmt"
	"math"
	"sync/atomic"

	"quest/internal/metrics"
)

// BytesPerSec is an instruction bandwidth.
type BytesPerSec float64

// Rate units.
const (
	KBs BytesPerSec = 1e3
	MBs BytesPerSec = 1e6
	GBs BytesPerSec = 1e9
	TBs BytesPerSec = 1e12
	PBs BytesPerSec = 1e15
)

// String renders the rate with an SI prefix, e.g. "3.2 TB/s". A value is
// promoted to a unit not only when it reaches the unit's threshold but also
// when %.3g would round its mantissa in the next unit down to 1000 —
// otherwise 999,600 B/s prints as "1e+03 KB/s" instead of "1 MB/s" (the
// threshold check and the 3-significant-digit rounding disagree in
// [999.5, 1000) at every unit boundary).
func (b BytesPerSec) String() string {
	abs := math.Abs(float64(b))
	units := []struct {
		scale float64
		name  string
	}{
		{float64(PBs), "PB/s"}, {float64(TBs), "TB/s"}, {float64(GBs), "GB/s"},
		{float64(MBs), "MB/s"}, {float64(KBs), "KB/s"}, {1, "B/s"},
	}
	for i, u := range units {
		promoted := i < len(units)-1 && abs >= units[i+1].scale*999.5
		if abs >= u.scale || promoted {
			return fmt.Sprintf("%.3g %s", float64(b)/u.scale, u.name)
		}
	}
	return fmt.Sprintf("%.3g B/s", float64(b))
}

// Counter is a thread-safe instruction/byte counter used by the machine
// simulations to meter traffic on each bus. Bridge mirrors its traffic into
// the metrics registry so bus meters show up in the observability layer
// without a second accounting path.
type Counter struct {
	instructions atomic.Uint64
	bytes        atomic.Uint64

	mirrorInstr atomic.Pointer[metrics.Counter]
	mirrorBytes atomic.Pointer[metrics.Counter]
}

// Bridge mirrors every future Add into the two registry counters. The mirror
// is cumulative across the Counter's lifetime: Reset zeroes the local meter
// (per-run accounting) but never the registry totals, so the registry
// aggregates traffic across every machine built in the process.
func (c *Counter) Bridge(instr, bytes *metrics.Counter) {
	c.mirrorInstr.Store(instr)
	c.mirrorBytes.Store(bytes)
}

// Add records n instructions totalling b bytes.
func (c *Counter) Add(n, b uint64) {
	c.instructions.Add(n)
	c.bytes.Add(b)
	if m := c.mirrorInstr.Load(); m != nil {
		m.Add(n)
	}
	if m := c.mirrorBytes.Load(); m != nil {
		m.Add(b)
	}
}

// Instructions returns the instruction count.
func (c *Counter) Instructions() uint64 { return c.instructions.Load() }

// Bytes returns the byte count.
func (c *Counter) Bytes() uint64 { return c.bytes.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() {
	c.instructions.Store(0)
	c.bytes.Store(0)
}
