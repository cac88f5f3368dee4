package mce

import "quest/internal/clifford"

// memoStates bounds the X/Z states one memo interns. Once an expansion's
// first cycle has projected the stabilizers, its cycles' X/Z planes repeat
// with period 2 in every machine run measured; past the bound a cycle fires
// directly.
const memoStates = 4

// memo replays the compiled expansion's plain cycles as sign updates (see
// package clifford). It interns the X/Z planes such cycles start from and
// keeps, for each interned state, a recording of the cycle fired from it:
// every word's sign constants and the state the cycle ended on. A later
// cycle that starts from a recorded state replays the recording. The
// recordings are only valid for the expansion they fired, so a recompile
// clears the memo. Its storage is sized once, in New.
type memo struct {
	planes [memoStates]clifford.Planes
	// consts[s][w] are word w's sign constants in the cycle recorded from
	// state s, and next[s] the state that cycle ended on (-1 while none is
	// recorded).
	consts [memoStates][][]uint8
	next   [memoStates]int
	n      int // states interned
	// cur is the interned state the tableau's planes equal, or -1 when that
	// is unknown: after a cycle fired directly, or a clear.
	cur int
}

func newMemo(t *clifford.Tableau, depth int) memo {
	var mm memo
	n := t.N()
	buf := make([]uint8, memoStates*depth*n)
	for s := range mm.planes {
		mm.planes[s] = t.NewPlanes()
		mm.consts[s] = make([][]uint8, depth)
		for w := range mm.consts[s] {
			mm.consts[s][w], buf = buf[:n:n], buf[n:]
		}
	}
	mm.clear()
	return mm
}

// clear forgets every state and recording.
func (mm *memo) clear() { mm.n, mm.cur = 0, -1 }

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
// recorded state it replays the recording and restores the planes the
// recording ended on. From a state with none it records the cycle, keeping
// the recording unless an outcome was drawn at random, which depends on the
// draw. A state the memo has no room for fires directly.
func (m *MCE) firePlain() {
	mm := &m.memo
	s := mm.cur
	if s < 0 {
		s = mm.intern(m.tableau)
	}
	switch {
	case s < 0:
		for _, cw := range m.compiled {
			m.unit.FireWord(cw)
		}
	case mm.next[s] >= 0:
		for w, cw := range m.compiled {
			m.unit.ReplayWord(cw, mm.consts[s][w])
		}
		mm.cur = mm.next[s]
		m.tableau.RestorePlanes(mm.planes[mm.cur])
		return
	default:
		replayable := true
		for w, cw := range m.compiled {
			if !m.unit.RecordWord(cw, mm.consts[s][w]) {
				replayable = false
			}
		}
		if replayable {
			mm.next[s] = mm.intern(m.tableau)
			mm.cur = mm.next[s]
			return
		}
	}
	mm.cur = -1
}
