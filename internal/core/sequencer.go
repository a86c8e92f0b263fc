package core

import (
	"sort"

	"repro/internal/transport"
)

// Dense per-(context, rank) sequencer state.
//
// The protocol touches sequence state on every application message — once
// on the send path (allocate the next per-destination number) and once on
// the receive path (admit, stash, or discard the arrival). The original
// implementation kept three maps keyed by seqKey; at 256 ranks the per-
// message map hashing, and the copy()-per-insert sorted stash, dominated
// the sequencer. This file replaces them with flat slices sized from
// core.Layout:
//
//   - Context IDs are sparse (the world communicator uses 2 and 3; child
//     communicators derive theirs by shifting), so the top level is a tiny
//     linear-scanned table of per-context blocks with a last-hit cache —
//     an application touches one or two contexts per phase, so the scan is
//     almost always a single compare.
//   - Within a context, state is dense: next[rank] is a flat []uint64 and
//     the out-of-order stash is a per-rank power-of-two ring indexed by
//     sequence number (slot = seq & mask). Every stashed sequence lies in
//     the window (next, next+len), so distinct stashed messages can never
//     collide — an occupied slot IS the duplicate check — and insertion,
//     duplicate detection, and release are all O(1). A longer burst grows
//     the ring by rehashing (amortized O(1)); the old sorted slice paid a
//     copy() per insert.
//
// A zero counter is equivalent to an absent map entry in the old scheme
// (map reads of absent keys returned 0), so iteration helpers skip zeros
// and reproduce exactly the old map contents, in sorted (ctx, rank) order.

// seqStashMinCap is the initial ring capacity on the first stash (power of
// two). Out-of-order bursts are rare — only the replica→substitute
// switchover produces them — so rings start small and stay nil until then.
const seqStashMinCap = 8

// seqStash is one rank's out-of-order arrival ring. Slot seq&mask holds
// the stashed message with that sequence number; nil slots are holes.
type seqStash struct {
	buf []*transport.Message // len is a power of two; nil until first use
	n   int                  // occupied slots
}

// insert places m (with m.Seq > next for the rank) into the ring,
// reporting false when the slot already holds the same sequence — a
// duplicate of a stashed message, which the caller discards.
func (st *seqStash) insert(next uint64, m *transport.Message) bool {
	off := m.Seq - next
	if st.buf == nil || off >= uint64(len(st.buf)) {
		st.grow(off + 1)
	}
	slot := m.Seq & uint64(len(st.buf)-1)
	if st.buf[slot] != nil {
		// Occupancy is the duplicate check: every stashed sequence lies in
		// (next, next+len), where residues mod len are unique.
		return false
	}
	st.buf[slot] = m
	st.n++
	return true
}

// at returns the stashed message occupying seq's slot (after a failed
// insert of seq, the stashed duplicate of seq).
func (st *seqStash) at(seq uint64) *transport.Message {
	return st.buf[seq&uint64(len(st.buf)-1)]
}

// pop removes and returns the message with sequence number seq, or nil.
func (st *seqStash) pop(seq uint64) *transport.Message {
	if st.n == 0 {
		return nil
	}
	slot := seq & uint64(len(st.buf)-1)
	m := st.buf[slot]
	if m == nil {
		return nil
	}
	st.buf[slot] = nil
	st.n--
	return m
}

// grow reallocates the ring to hold offsets up to minSpan-1, rehashing the
// occupants (their window membership is unchanged, only the mask widens).
func (st *seqStash) grow(minSpan uint64) {
	c := uint64(len(st.buf))
	if c == 0 {
		c = seqStashMinCap
	}
	for c < minSpan {
		c <<= 1
	}
	nb := make([]*transport.Message, c)
	for _, m := range st.buf {
		if m != nil {
			nb[m.Seq&(c-1)] = m
		}
	}
	st.buf = nb
}

// collect appends the stashed messages in ascending sequence order
// (recovery forks and replay captures serialize them that way).
func (st *seqStash) collect(out []*transport.Message) []*transport.Message {
	if st.n == 0 {
		return out
	}
	start := len(out)
	for _, m := range st.buf {
		if m != nil {
			out = append(out, m)
		}
	}
	added := out[start:]
	sort.Slice(added, func(i, j int) bool { return added[i].Seq < added[j].Seq })
	return out
}

// seqCtx is the dense per-rank block for one context: the next sequence
// counters and (receive side only) the stash rings.
type seqCtx struct {
	ctx   uint32
	next  []uint64
	stash []seqStash // nil on send-side tables
}

// seqTable maps sparse context IDs onto dense per-rank blocks. The zero
// value is unusable; build with newSeqTable.
type seqTable struct {
	n       int // ranks per block (Layout.N)
	stashed bool
	ctxs    []*seqCtx
	last    *seqCtx // last-hit cache: phases touch one or two contexts
}

func newSeqTable(n int, stashed bool) *seqTable {
	return &seqTable{n: n, stashed: stashed}
}

// at returns (creating if needed) the block for ctx.
func (t *seqTable) at(ctx uint32) *seqCtx {
	if c := t.last; c != nil && c.ctx == ctx {
		return c
	}
	for _, c := range t.ctxs {
		if c.ctx == ctx {
			t.last = c
			return c
		}
	}
	c := &seqCtx{ctx: ctx, next: make([]uint64, t.n)}
	if t.stashed {
		c.stash = make([]seqStash, t.n)
	}
	t.ctxs = append(t.ctxs, c)
	t.last = c
	return c
}

// peek reads a counter without materializing the context block.
func (t *seqTable) peek(ctx uint32, rank int) uint64 {
	if c := t.last; c != nil && c.ctx == ctx {
		return c.next[rank]
	}
	for _, c := range t.ctxs {
		if c.ctx == ctx {
			t.last = c
			return c.next[rank]
		}
	}
	return 0
}

// take returns the current counter and post-increments it (the send path).
func (t *seqTable) take(ctx uint32, rank int) uint64 {
	c := t.at(ctx)
	v := c.next[rank]
	c.next[rank] = v + 1
	return v
}

// sortedCtxs returns the context blocks in ascending ctx order (iteration
// helpers need deterministic output; the table itself is insertion-ordered).
func (t *seqTable) sortedCtxs() []*seqCtx {
	cs := append([]*seqCtx(nil), t.ctxs...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].ctx < cs[j].ctx })
	return cs
}

// forEach visits every nonzero counter in (ctx, rank) order — exactly the
// entries the old map held, sorted.
func (t *seqTable) forEach(f func(ctx uint32, rank int, next uint64)) {
	for _, c := range t.sortedCtxs() {
		for rank, v := range c.next {
			if v != 0 {
				f(c.ctx, rank, v)
			}
		}
	}
}

// snapshot renders the nonzero counters as the map form the recovery fork
// state carries.
func (t *seqTable) snapshot() map[seqKey]uint64 {
	out := make(map[seqKey]uint64)
	t.forEach(func(ctx uint32, rank int, next uint64) { out[seqKey{ctx, rank}] = next })
	return out
}

// load resets the table to exactly the counters in m.
func (t *seqTable) load(m map[seqKey]uint64) {
	t.ctxs, t.last = nil, nil
	for k, v := range m {
		t.at(k.ctx).next[k.rank] = v
	}
}

// stashTotal counts stashed messages across every ring.
func (t *seqTable) stashTotal() int {
	total := 0
	for _, c := range t.ctxs {
		for i := range c.stash {
			total += c.stash[i].n
		}
	}
	return total
}

// forEachStash visits every (ctx, rank) with a non-empty ring, in (ctx,
// rank) order.
func (t *seqTable) forEachStash(f func(ctx uint32, rank int, st *seqStash)) {
	for _, c := range t.sortedCtxs() {
		for rank := range c.stash {
			if c.stash[rank].n > 0 {
				f(c.ctx, rank, &c.stash[rank])
			}
		}
	}
}
