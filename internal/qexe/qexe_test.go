package qexe

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"quest/internal/compiler"
	"quest/internal/distill"
	"quest/internal/isa"
)

func sampleExe(t *testing.T) *Executable {
	t.Helper()
	p := compiler.NewProgram(4)
	p.Prep0(0).H(0).CNOT(0, 1).T(2).MeasZ(0).MeasX(3)
	e := FromProgram(p)
	e.AddCache(0, distill.RoundCircuit())
	e.AddCache(3, []isa.LogicalInstr{{Op: isa.LX, Target: 1}, {Op: isa.LZ, Target: 0}})
	return e
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := sampleExe(t)
	var buf bytes.Buffer
	if err := e.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != e.EncodedSize() {
		t.Errorf("EncodedSize = %d, wrote %d", e.EncodedSize(), buf.Len())
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLogical != e.NumLogical || len(got.Program) != len(e.Program) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range e.Program {
		if got.Program[i] != e.Program[i] {
			t.Fatalf("program instr %d differs", i)
		}
	}
	if len(got.Caches) != 2 || got.Caches[0].Slot != 0 || got.Caches[1].Slot != 3 {
		t.Fatalf("caches: %+v", got.Caches)
	}
	for i := range e.Caches[0].Body {
		if got.Caches[0].Body[i] != e.Caches[0].Body[i] {
			t.Fatalf("cache body instr %d differs", i)
		}
	}
	// Back to IR.
	p2, err := got.ToProgram()
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Instrs) != len(e.Program) {
		t.Error("ToProgram lost instructions")
	}
}

// TestToProgramCacheRunSlot pins that an executable whose program runs a
// cache slot numbered past its register converts back to the IR.
func TestToProgramCacheRunSlot(t *testing.T) {
	p := compiler.NewProgram(2).Prep0(0)
	p.Instrs = append(p.Instrs, isa.LogicalInstr{Op: isa.LCacheRun, Target: 2})
	e := FromProgram(p)
	e.AddCache(2, []isa.LogicalInstr{{Op: isa.LX, Target: 1}})
	if _, err := e.ToProgram(); err != nil {
		t.Fatalf("ToProgram: %v", err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	e := sampleExe(t)
	var buf bytes.Buffer
	if err := e.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	// Flip every byte position in turn: decode must never succeed with a
	// wrong payload and must never panic (the CRC or validators catch it).
	for i := 0; i < len(pristine); i++ {
		mut := append([]byte(nil), pristine...)
		mut[i] ^= 0x41
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			// A flip in the CRC itself that collides is impossible with a
			// single-byte XOR; any success is a bug.
			t.Fatalf("byte %d: corrupted executable accepted", i)
		}
	}
	// Truncations at every length.
	for n := 0; n < len(pristine); n += 7 {
		if _, err := Decode(bytes.NewReader(pristine[:n])); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		junk := make([]byte, n)
		rng.Read(junk)
		if _, err := Decode(bytes.NewReader(junk)); err == nil {
			t.Fatalf("trial %d: random %d bytes decoded", trial, n)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []*Executable{
		{NumLogical: 0},
		{NumLogical: 100},
		{NumLogical: 2, Caches: []CacheBody{{Slot: -1, Body: []isa.LogicalInstr{{}}}}},
		{NumLogical: 2, Caches: []CacheBody{{Slot: 0}}}, // empty body
	}
	for i, e := range cases {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
		var buf bytes.Buffer
		if err := e.Encode(&buf); err == nil {
			t.Errorf("case %d encoded", i)
		}
	}
}

func TestVersionAndMagicChecks(t *testing.T) {
	e := sampleExe(t)
	var buf bytes.Buffer
	if err := e.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	bad := append([]byte(nil), raw...)
	copy(bad[:4], "NOPE")
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestPropertyProgramsRoundTrip(t *testing.T) {
	f := func(ops []uint8, nRaw uint8) bool {
		n := 1 + int(nRaw)%64
		p := compiler.NewProgram(n)
		for _, b := range ops {
			q := int(b) % n
			switch b % 5 {
			case 0:
				p.Prep0(q)
			case 1:
				p.H(q)
			case 2:
				p.T(q)
			case 3:
				p.MeasZ(q)
			default:
				if n > 1 {
					p.CNOT(q, (q+1)%n)
				} else {
					p.X(q)
				}
			}
		}
		var buf bytes.Buffer
		if err := FromProgram(p).Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || got.NumLogical != n || len(got.Program) != len(p.Instrs) {
			return false
		}
		for i := range p.Instrs {
			if got.Program[i] != p.Instrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	e := sampleExe(t)
	s := e.Summary()
	for _, frag := range []string{
		"4 qubits", "6 instructions", "T gates:          1",
		"slot 0, 106 instructions", "slot 3, 2 instructions",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary missing %q:\n%s", frag, s)
		}
	}
}
