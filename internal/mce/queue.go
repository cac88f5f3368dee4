package mce

import "quest/internal/isa"

// queue holds one source of waiting logical instructions, the master's
// buffer or the cache's replays, split into lanes by the patches each
// instruction names: its target and, for a CNOT, its partner. A lane keeps
// its entries in arrival order, and each instruction carries its arrival
// number, so the queue's order is the merge of its lanes by that number. A
// cache run waits as one entry per lane it names, which walks the body
// (entry), so the queue's memory follows the body, not the repetitions.
//
// issueLogical needs only the lane heads. An entry queued behind another
// that names the same patches can never start in the same cycle: the
// earlier one either claimed the target or was passed over because one of
// those patches was already used, and a used patch stays used for the rest
// of the cycle. So a cycle's issue cost follows the number of lanes, not the
// backlog. The partner is part of the key because a CNOT whose partner is
// used waits without claiming its target; keyed by target alone, a lane
// would fill with such CNOTs and each cycle would walk them again.
type queue struct {
	lanes  map[int]*lane // every lane the queue has used, by key
	active []*lane       // the lanes holding entries, in no particular order
	n      int           // instructions waiting
	seq    uint64        // the next instruction's arrival number
}

func newQueue() queue { return queue{lanes: make(map[int]*lane)} }

// lane is a FIFO of the entries that name one (target, partner) pair; p2 is
// -1 for an instruction without a partner.
type lane struct {
	p1, p2  int
	entries []entry // entries[head:] are waiting, oldest first
	head    int
}

// entry is one waiting instruction, or the part of a cache run that waits
// in one lane: the body's instructions that name the lane's patches, in
// body order, repeated. A run is queued as one entry per lane its body
// names, whatever its repetitions, and its instruction at body position p
// of repetition r arrives as number base + r·len(body) + p, the number it
// would carry had each repetition been queued instruction by instruction.
type entry struct {
	in isa.LogicalInstr // the instruction, for an entry of one
	// body is a cache run's body, nil for an entry of one; pos lists the
	// body positions of the lane's instructions, ascending, and next is
	// the head's index in pos.
	body []isa.LogicalInstr
	pos  []int
	next int
	reps int // a run's repetitions left, the head's included
	// seq is the instruction's arrival number, or a run's number of body
	// position 0 in the head's repetition.
	seq uint64
}

// head returns the entry's first waiting instruction and its arrival
// number.
func (e *entry) head() (isa.LogicalInstr, uint64) {
	if e.body == nil {
		return e.in, e.seq
	}
	p := e.pos[e.next]
	return e.body[p], e.seq + uint64(p)
}

// advance drops the entry's head and reports whether nothing of it waits.
func (e *entry) advance() bool {
	if e.body == nil {
		return true
	}
	if e.next++; e.next == len(e.pos) {
		e.next, e.seq, e.reps = 0, e.seq+uint64(len(e.body)), e.reps-1
	}
	return e.reps == 0
}

// laneKey returns the patches in names: its target and, for a CNOT, its
// partner (-1 otherwise).
func laneKey(in isa.LogicalInstr) (p1, p2 int) {
	p1, p2 = int(in.Target), -1
	if in.Op == isa.LCNOT {
		p2 = int(in.Arg)
	}
	return p1, p2
}

// bodyLane is the part of a cache body one lane holds: the patches it
// names and its positions in the body.
type bodyLane struct {
	p1, p2 int
	pos    []int
}

// bodyLanes splits a cache body by lane, lanes in order of first use.
func bodyLanes(body []isa.LogicalInstr) []bodyLane {
	var lanes []bodyLane
	for p, in := range body {
		p1, p2 := laneKey(in)
		i := 0
		for i < len(lanes) && (lanes[i].p1 != p1 || lanes[i].p2 != p2) {
			i++
		}
		if i == len(lanes) {
			lanes = append(lanes, bodyLane{p1: p1, p2: p2})
		}
		lanes[i].pos = append(lanes[i].pos, p)
	}
	return lanes
}

// push queues in behind every waiting instruction.
func (q *queue) push(in isa.LogicalInstr) {
	p1, p2 := laneKey(in)
	q.lane(p1, p2).push(entry{in: in, seq: q.seq})
	q.seq++
	q.n++
}

// pushRun queues reps repetitions of a cache body, split by bodyLanes,
// behind every waiting instruction.
func (q *queue) pushRun(body []isa.LogicalInstr, lanes []bodyLane, reps int) {
	for _, bl := range lanes {
		q.lane(bl.p1, bl.p2).push(entry{body: body, pos: bl.pos, reps: reps, seq: q.seq})
	}
	q.seq += uint64(reps * len(body))
	q.n += reps * len(body)
}

// lane returns the lane of (p1, p2), active since the caller is about to
// push to it.
func (q *queue) lane(p1, p2 int) *lane {
	key := p1<<9 | (p2 + 1)
	l := q.lanes[key]
	if l == nil {
		l = &lane{p1: p1, p2: p2}
		q.lanes[key] = l
	}
	if len(l.entries) == 0 {
		q.active = append(q.active, l)
	}
	return l
}

// push appends e. When the backing array is full and at least half of it
// holds popped entries, the waiting ones move down first, so a lane that
// never empties does not grow with the entries that passed through it.
func (l *lane) push(e entry) {
	if l.head > 0 && len(l.entries) == cap(l.entries) && 2*l.head >= len(l.entries) {
		l.entries, l.head = l.entries[:copy(l.entries, l.entries[l.head:])], 0
	}
	l.entries = append(l.entries, e)
}

// next returns the index in active of the lane whose head arrived first
// among those whose patches are all unused, or -1 if there is none.
func (q *queue) next(used *[256]bool) int {
	best, bestSeq := -1, uint64(0)
	for i, l := range q.active {
		if used[l.p1] || (l.p2 >= 0 && used[l.p2]) {
			continue
		}
		if _, s := l.entries[l.head].head(); best < 0 || s < bestSeq {
			best, bestSeq = i, s
		}
	}
	return best
}

// pop removes the head of active lane i; an emptied lane leaves active.
func (q *queue) pop(i int) {
	l := q.active[i]
	if l.entries[l.head].advance() {
		l.head++
	}
	if l.head == len(l.entries) {
		l.entries, l.head = l.entries[:0], 0
		last := len(q.active) - 1
		q.active[i] = q.active[last]
		q.active = q.active[:last]
	}
	q.n--
}

// reset empties the queue. The lanes keep their storage for reuse.
func (q *queue) reset() {
	for _, l := range q.active {
		l.entries, l.head = l.entries[:0], 0
	}
	q.active = q.active[:0]
	q.n, q.seq = 0, 0
}
