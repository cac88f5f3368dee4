package mce

import (
	"math/rand"
	"reflect"
	"testing"

	"quest/internal/awg"
	"quest/internal/isa"
	"quest/internal/microcode"
	"quest/internal/noise"
)

// TestCompiledCycleFollowsMask pins the MCE's compiled cycle to the store's
// expansion for every design. Between cycles the test masks a site and
// unmasks it again (within one gap and across two), masks a patch region
// and restores it, swaps in a clone of the mask and issues overlay cycles,
// each followed by two quiet cycles that should reuse the compile.
// After every cycle the cached words must equal a fresh compile of the
// store's expansion under the mask the cycle replayed under: the current
// mask, with the patch region an overlay masked for its cycle added back.
func TestCompiledCycleFollowsMask(t *testing.T) {
	for _, d := range microcode.Designs() {
		nm := noise.Uniform(1e-2)
		m := newMCE(t, 2, func(c *Config) { c.Design = d; c.Noise = &nm })
		lay := m.Layout()
		ref := microcode.NewStore(d, m.cfg.Schedule, lay.Lat)
		fresh := make([]*awg.Word, m.cfg.Schedule.Depth)
		for s := range fresh {
			fresh[s] = awg.NewWord(lay.Lat.NumQubits())
		}
		rng := rand.New(rand.NewSource(int64(d) + 3))
		site := func() int {
			qs := m.patches[rng.Intn(len(m.patches))].qubits
			return qs[rng.Intn(len(qs))]
		}
		var held, region int // a site and a patch masked across a cycle gap
		compiles, reuses := 0, 0
		for c := 0; c < 105; c++ {
			overlay := -1
			// Every third cycle changes something; the two after it are quiet.
			switch act := c / 3 % 7; {
			case c%3 != 0:
			case act == 0:
				q := site()
				m.mask.SetDisabled(q, true)
				m.mask.SetDisabled(q, false)
			case act == 1:
				held = site()
				m.mask.SetDisabled(held, true)
			case act == 2:
				m.mask.SetDisabled(held, false)
			case act == 3:
				region = rng.Intn(lay.NumPatches())
				r0, c0, r1, c1 := lay.PatchRegion(region)
				m.mask.SetRegion(r0, c0, r1, c1, true)
			case act == 4:
				r0, c0, r1, c1 := lay.PatchRegion(region)
				m.mask.SetRegion(r0, c0, r1, c1, false)
			case act == 5:
				m.mask = m.mask.Clone()
			case act == 6:
				overlay = rng.Intn(lay.NumPatches())
				if err := m.Enqueue(isa.LogicalInstr{Op: isa.LH, Target: uint8(overlay)}); err != nil {
					t.Fatal(err)
				}
			}
			before := m.compiledFrom
			rep := m.StepCycle()
			if overlay >= 0 && rep.LogicalRetired != 1 {
				t.Fatalf("%s cycle %d: the overlay did not issue", d, c)
			}
			if len(before) > 0 && &before[0] == &m.compiledFrom[0] {
				reuses++
			} else {
				compiles++
			}
			mask := m.mask
			if overlay >= 0 {
				mask = m.mask.Clone()
				r0, c0, r1, c1 := lay.PatchRegion(overlay)
				mask.SetRegion(r0, c0, r1, c1, true)
			}
			for s, w := range ref.ReplayCycle(mask) {
				fresh[s].Compile(w)
			}
			if !reflect.DeepEqual(m.compiled, fresh) {
				t.Fatalf("%s cycle %d: the compiled cycle differs from a fresh compile of the store's expansion", d, c)
			}
		}
		if compiles < 35 || reuses < 30 {
			t.Errorf("%s: %d compiles and %d reuses; the test should exercise both", d, compiles, reuses)
		}
	}
}

// TestFaultLogHoldsOneCycle pins the injector's fault log to the cycle in
// flight: nothing reads it across cycles, so it must not grow with the
// engine's life.
func TestFaultLogHoldsOneCycle(t *testing.T) {
	nm := noise.Uniform(1e-2)
	m := newMCE(t, 2, func(c *Config) { c.Noise = &nm })
	total := 0
	for c := 0; c < 2000; c++ {
		m.StepCycle()
		log := m.inj.Log()
		for _, f := range log {
			if f.Cycle != c {
				t.Fatalf("cycle %d: the log holds a fault of cycle %d", c, f.Cycle)
			}
		}
		total += len(log)
	}
	if total == 0 {
		t.Fatal("no faults at p=1e-2 over 2,000 cycles; the test exercises nothing")
	}
}
