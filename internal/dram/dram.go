// Package dram models the cryogenic DRAM of the paper's 77K thermal domain
// (§2.2): the memory that holds a quantum application's instruction working
// set. Quantum executables are large — the paper cites instruction footprints
// of tens of gigabytes — and in the software-managed baseline the *entire
// physical* instruction stream must be generated into and streamed out of
// this memory, so DRAM bandwidth becomes a second wall on top of the
// control-processor bus. Under QuEST, DRAM holds only the logical executable
// (qexe format) and the stream rate drops by the same orders of magnitude as
// the bus traffic.
//
// The model is intentionally simple and calibrated: a capacity, a sustained
// bandwidth (cold DRAM is ordinary DRAM — the paper cites Henkels et al.'s
// 12ns low-temperature DRAM; we default to a DDR-class channel), and a feed
// analysis of a demand stream against that bandwidth.
package dram

import "fmt"

// Config describes one cryo-DRAM channel.
type Config struct {
	// CapacityBytes is the module capacity.
	CapacityBytes uint64
	// BandwidthBytesPerSec is the sustained stream rate.
	BandwidthBytesPerSec float64
}

// Default77K returns a single DDR-class channel: 16 GiB at 12.8 GB/s.
func Default77K() Config {
	return Config{CapacityBytes: 16 << 30, BandwidthBytesPerSec: 12.8e9}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CapacityBytes == 0 {
		return fmt.Errorf("dram: zero capacity")
	}
	if c.BandwidthBytesPerSec <= 0 {
		return fmt.Errorf("dram: non-positive bandwidth %v", c.BandwidthBytesPerSec)
	}
	return nil
}

// Store is a loaded instruction working set on one channel.
type Store struct {
	cfg      Config
	resident uint64
}

// New returns an empty store.
func New(cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Store{cfg: cfg}, nil
}

// Load places an executable image of the given size, failing if it exceeds
// capacity.
func (s *Store) Load(bytes uint64) error {
	if s.resident+bytes > s.cfg.CapacityBytes {
		return fmt.Errorf("dram: working set %d + %d bytes exceeds capacity %d",
			s.resident, bytes, s.cfg.CapacityBytes)
	}
	s.resident += bytes
	return nil
}

// Resident returns the loaded working-set size.
func (s *Store) Resident() uint64 { return s.resident }

// FeedReport compares a demand stream against the channel.
type FeedReport struct {
	// DemandBytesPerSec is what the consumer needs.
	DemandBytesPerSec float64
	// Utilization is demand over channel bandwidth (>1 = underrun: the
	// baseline design misses QECC deadlines).
	Utilization float64
	// ChannelsNeeded is the number of parallel channels to sustain demand.
	ChannelsNeeded int
}

// Feed evaluates whether the channel sustains a demand of demandBps.
func (s *Store) Feed(demandBps float64) FeedReport {
	if demandBps < 0 {
		panic(fmt.Sprintf("dram: negative demand %v", demandBps))
	}
	u := demandBps / s.cfg.BandwidthBytesPerSec
	ch := int(u)
	if float64(ch) < u {
		ch++
	}
	if ch == 0 {
		ch = 1
	}
	return FeedReport{DemandBytesPerSec: demandBps, Utilization: u, ChannelsNeeded: ch}
}
