package dram

import (
	"math"
	"testing"

	"quest/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	if err := Default77K().Validate(); err != nil {
		t.Errorf("default rejected: %v", err)
	}
	for _, c := range []Config{{}, {CapacityBytes: 1}, {BandwidthBytesPerSec: 1}} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestLoadCapacity(t *testing.T) {
	s, err := New(Config{CapacityBytes: 100, BandwidthBytesPerSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load(60); err != nil {
		t.Fatal(err)
	}
	if err := s.Load(60); err == nil {
		t.Error("over-capacity load accepted")
	}
	if s.Resident() != 60 {
		t.Errorf("resident = %d", s.Resident())
	}
}

func TestFeedChannelsNeeded(t *testing.T) {
	s, _ := New(Config{CapacityBytes: 1 << 30, BandwidthBytesPerSec: 1e9})
	r := s.Feed(2.5e9)
	if r.ChannelsNeeded != 3 || math.Abs(r.Utilization-2.5) > 1e-12 {
		t.Errorf("feed = %+v", r)
	}
	r = s.Feed(1e6)
	if r.ChannelsNeeded != 1 || r.Utilization > 1 {
		t.Errorf("light feed = %+v", r)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative demand accepted")
		}
	}()
	s.Feed(-1)
}

// TestBaselineOverwhelmsDRAMQuESTDoesNot is the §2.2 argument in numbers:
// the software-managed baseline's instruction stream cannot be fed from a
// realistic cryo-DRAM channel at workload scale, while QuEST's logical
// stream fits with orders of magnitude to spare.
func TestBaselineOverwhelmsDRAMQuESTDoesNot(t *testing.T) {
	s, _ := New(Default77K())
	est := workload.NewEstimator()
	for _, w := range []workload.Profile{workload.GSE, workload.Shor1024} {
		e := est.Estimate(w)
		base := s.Feed(e.BaselineBandwidth())
		quest := s.Feed(e.QuESTCacheBandwidth())
		if base.ChannelsNeeded < 1000 {
			t.Errorf("%s: baseline needs only %d channels — model inconsistent with 100s of TB/s",
				w.Name, base.ChannelsNeeded)
		}
		if quest.ChannelsNeeded != 1 || quest.Utilization > 0.01 {
			t.Errorf("%s: QuEST should idle one channel, got %+v", w.Name, quest)
		}
	}
}

// TestWorkingSetFitsAfterQuEST: the paper cites 10s-of-GB instruction
// footprints for the *logical* executable; those fit the 16 GiB module only
// because QECC never materializes as instructions. The baseline's physical
// stream for even one second does not fit.
func TestWorkingSetFitsAfterQuEST(t *testing.T) {
	s, _ := New(Default77K())
	est := workload.NewEstimator()
	e := est.Estimate(workload.QLS)
	oneSecondBaseline := uint64(e.BaselineBandwidth())
	if err := s.Load(oneSecondBaseline); err == nil {
		t.Errorf("one second of baseline stream (%d bytes) fit in DRAM", oneSecondBaseline)
	}
	oneSecondQuEST := uint64(e.QuESTCacheBandwidth())
	if err := s.Load(oneSecondQuEST); err != nil {
		t.Errorf("one second of QuEST stream rejected: %v", err)
	}
}
