package mce

import "quest/internal/isa"

// queue holds one source of waiting logical instructions, the master's
// buffer or the cache's replays, split into lanes by the patches each
// instruction names: its target and, for a CNOT, its partner. A lane keeps
// its entries in arrival order, and each entry carries its arrival number,
// so the queue's order is the merge of its lanes by that number.
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
	n      int           // entries waiting
	seq    uint64        // the next entry's arrival number
}

func newQueue() queue { return queue{lanes: make(map[int]*lane)} }

// lane is a FIFO of the entries that name one (target, partner) pair; p2 is
// -1 for an instruction without a partner.
type lane struct {
	p1, p2  int
	entries []entry // entries[head:] are waiting, oldest first
	head    int
}

// entry is one waiting instruction and its arrival number in its queue.
type entry struct {
	in  isa.LogicalInstr
	seq uint64
}

// push queues in behind every waiting entry.
func (q *queue) push(in isa.LogicalInstr) {
	p1, p2 := int(in.Target), -1
	if in.Op == isa.LCNOT {
		p2 = int(in.Arg)
	}
	key := p1<<9 | (p2 + 1)
	l := q.lanes[key]
	if l == nil {
		l = &lane{p1: p1, p2: p2}
		q.lanes[key] = l
	}
	if len(l.entries) == 0 {
		q.active = append(q.active, l)
	}
	l.push(entry{in: in, seq: q.seq})
	q.seq++
	q.n++
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
		if s := l.entries[l.head].seq; best < 0 || s < bestSeq {
			best, bestSeq = i, s
		}
	}
	return best
}

// pop removes the head of active lane i; an emptied lane leaves active.
func (q *queue) pop(i int) {
	l := q.active[i]
	l.head++
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
