package bwprofile

type (
	Bus   int
	Class int
)

const (
	BusLogical Bus   = 0
	ClassPauli Class = 0
)

type Recorder struct{ bytes uint64 }

func (r *Recorder) Observe(cycle int, bus Bus, class Class, instrs, bytes uint64) { r.bytes += bytes }
