package decoder_test

import (
	"fmt"

	"quest/internal/decoder"
	"quest/internal/surface"
)

// ExampleLocalDecoder resolves the common case in the MCE: a single-qubit
// error's adjacent defect pair maps straight to its correction through the
// lookup table.
func ExampleLocalDecoder() {
	lat := surface.NewPlanar(5)
	ld := decoder.NewLocalDecoder(lat)
	// An X error on data qubit (4,4) flips its north and south Z-checks.
	mk := func(r, c int) decoder.Defect {
		return decoder.Defect{Round: 1, Qubit: lat.Index(r, c), R: r, C: c}
	}
	corr, residual := ld.Decode([]decoder.Defect{mk(3, 4), mk(5, 4)}, nil, nil)
	fmt.Println("resolved locally:", len(corr), "correction(s)")
	fmt.Println("escalated:", len(residual))
	fmt.Println("corrects the right qubit:", corr[0].Qubit == lat.Index(4, 4))
	// Output:
	// resolved locally: 1 correction(s)
	// escalated: 0
	// corrects the right qubit: true
}

// ExampleWindowDecoder pairs a measurement error's time-like defects with
// zero data corrections — the case per-round decoding gets wrong.
func ExampleWindowDecoder() {
	lat := surface.NewPlanar(5)
	w := decoder.NewWindowDecoder(decoder.NewGlobalDecoder(lat), 3)
	frame := decoder.NewPauliFrame()
	a := lat.Index(5, 4)
	mk := func(round int) []decoder.Defect {
		return []decoder.Defect{{Round: round, Qubit: a, R: 5, C: 4}}
	}
	w.Absorb(mk(1), frame) // flipped measurement, round 1
	w.Absorb(mk(2), frame) // re-flips back, round 2
	decodes := w.Absorb(nil, frame)
	fmt.Println("global decodes:", decodes)
	fmt.Println("frame untouched:", len(frame.XFlips())+len(frame.ZFlips()) == 0)
	// Output:
	// global decodes: 1
	// frame untouched: true
}
