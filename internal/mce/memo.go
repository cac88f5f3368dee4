package mce

import (
	"quest/internal/awg"
	"quest/internal/clifford"
)

// memoStates bounds the X/Z states one memo interns. Once an expansion's
// first cycle has projected the stabilizers, its cycles' X/Z planes repeat
// with period 2 in every machine run measured; past the bound a cycle fires
// directly.
const memoStates = 4

// memo replays the compiled expansion's plain cycles as sign updates (see
// package clifford). It interns the X/Z planes such cycles start from and
// keeps, for each interned state, a recording of the cycle fired from it:
// every word's sign updates, compiled for the packed signs, and the state
// the cycle ended on. A later cycle that starts from a recorded state
// replays the recording in one call (awg.ReplayCycle), its outcomes handed
// over as words. A replay leaves the tableau's planes where they were; the
// memo copies the planes of the state it names back only before something
// reads them: a cycle that records, fires directly or carries an overlay.
// The recordings are only valid for the expansion they fired, so a
// recompile clears the memo. Its storage is sized once, in New, and grows
// only while the first recordings fill it.
type memo struct {
	planes [memoStates]clifford.Planes
	// recs[s] is the cycle recorded from state s, and next[s] the state it
	// ended on (-1 while none is recorded).
	recs [memoStates]awg.Recording
	next [memoStates]int
	n    int // states interned
	// cur is the interned state the tableau's planes equal, or -1 when that
	// is unknown: after a cycle fired directly, or a clear. stale reports
	// that the planes still hold an earlier state, since a replay left
	// them: they equal planes[cur] only once sync has run.
	cur   int
	stale bool
	// cycle is the expansion laid out for replay, once loaded says it is:
	// at its first recording.
	cycle  awg.Cycle
	loaded bool
}

func newMemo(t *clifford.Tableau) memo {
	var mm memo
	for s := range mm.planes {
		mm.planes[s] = t.NewPlanes()
	}
	mm.clear()
	return mm
}

// clear forgets every state and recording. The tableau's planes must not be
// stale, or must be about to be rewritten (Reset).
func (mm *memo) clear() { mm.n, mm.cur, mm.stale, mm.loaded = 0, -1, false, false }

// sync makes t's X/Z planes those of the state the memo names, before
// something reads them.
func (mm *memo) sync(t *clifford.Tableau) {
	if mm.stale {
		t.RestorePlanes(mm.planes[mm.cur])
		mm.stale = false
	}
}

// intern returns the interned state t's planes equal, interning them when
// they are new and there is room, and -1 when there is none.
func (mm *memo) intern(t *clifford.Tableau) int {
	for s := 0; s < mm.n; s++ {
		if t.EqualPlanes(mm.planes[s]) {
			return s
		}
	}
	if mm.n == memoStates {
		return -1
	}
	s := mm.n
	t.SavePlanes(mm.planes[s])
	mm.next[s] = -1
	mm.n++
	return s
}

// firePlain fires the compiled expansion as a cycle without overlay. From a
// recorded state it replays the recording and fills the cycle's rounds from
// its outcome words. From a state with none it records the cycle, keeping
// the recording unless an outcome was drawn at random, which depends on the
// draw. A state the memo has no room for fires directly.
func (m *MCE) firePlain() {
	mm := &m.memo
	if s := mm.cur; s >= 0 && mm.next[s] >= 0 {
		m.unit.ReplayCycle(&mm.cycle, &mm.recs[s])
		mm.cur, mm.stale = mm.next[s], true
		m.deliver(&mm.cycle)
		return
	}
	mm.sync(m.tableau)
	s := mm.cur
	if s < 0 {
		s = mm.intern(m.tableau)
	}
	if s < 0 {
		for _, cw := range m.compiled {
			m.unit.FireWord(cw)
		}
		return
	}
	if !mm.loaded {
		m.unit.LoadCycle(m.compiled, &mm.cycle)
		mm.loaded = true
	}
	mm.cur = -1
	if m.unit.RecordCycle(&mm.cycle, &mm.recs[s]) {
		mm.next[s] = mm.intern(m.tableau)
		mm.cur = mm.next[s]
	}
}

// deliver fills the cycle's rounds from a replayed cycle's outcome words,
// in word order, as MeasSink would bit by bit.
func (m *MCE) deliver(c *awg.Cycle) {
	meas, out, width := c.Outcomes()
	for k := 0; k < len(meas); k += width {
		for j, mw := range meas[k : k+width] {
			m.measured[j] |= mw
			m.outcomes[j] = m.outcomes[j]&^mw | out[k+j]
		}
	}
}
