package mpi

import (
	"fmt"

	"repro/internal/transport"
)

// DefaultEagerLimit is the payload size, in bytes, at or below which a send
// uses the eager wire protocol (the payload travels with the envelope and
// the sender completes immediately after buffering). Larger messages use
// the rendezvous protocol (RTS → match → CTS → Data).
const DefaultEagerLimit = 64 << 10

// PReq is a PML-level request: one posted receive or one in-flight send on
// a specific physical channel. Protocols compose one or more PReqs (plus
// their own gating, e.g. replication acks) into an application Request.
type PReq struct {
	send      bool
	ctx       uint32
	tag       int
	dst       transport.ProcID // send side
	srcWant   transport.ProcID // recv side: specific proc or AnyProc
	srcPred   func(transport.ProcID) bool
	buf       []byte // recv buffer
	data      []byte // send payload (eager: the engine's copy)
	seq       uint64
	meta      [4]int64
	xid       uint64
	done      bool
	cancelled bool
	truncated bool
	sink      bool // duplicate-RTS sink: completion is not an event
	status    PStatus

	// User is protocol-private attachment (e.g. the retention entry a
	// send belongs to).
	User any
}

// Done reports request completion at the PML level.
func (r *PReq) Done() bool { return r.done }

// Cancelled reports whether the request was cancelled.
func (r *PReq) Cancelled() bool { return r.cancelled }

// Truncated reports whether a matched message overflowed the receive
// buffer (MPI_ERR_TRUNCATE).
func (r *PReq) Truncated() bool { return r.truncated }

// PStatus returns the PML-level completion status.
func (r *PReq) PStatus() PStatus { return r.status }

// Dst returns the physical destination of a send request.
func (r *PReq) Dst() transport.ProcID { return r.dst }

// Buf returns the receive buffer (protocols use it for SDC hashing).
func (r *PReq) Buf() []byte { return r.buf }

// matches reports whether incoming message m can be delivered to this
// posted receive.
func (r *PReq) matches(m *transport.Message) bool {
	if r.send || r.done || r.cancelled {
		return false
	}
	if r.ctx != m.Ctx {
		return false
	}
	if r.tag != AnyTag && r.tag != m.Tag {
		return false
	}
	if r.srcWant == AnyProc {
		return r.srcPred == nil || r.srcPred(m.Src)
	}
	return r.srcWant == m.Src
}

// Engine is the PML: the per-process matching and progress engine. It is
// owned by the process goroutine and is not safe for concurrent use; all
// progress happens inside library calls, matching the paper's no-async-
// progress assumption.
type Engine struct {
	ep         *transport.Endpoint
	nw         *transport.Network
	EagerLimit int

	posted     []*PReq
	unexpected []*transport.Message
	unexpHW    int // high-water mark of the unexpected queue
	rdvRecv    map[uint64]*PReq
	rdvSend    map[uint64]*PReq
	nextXID    uint64
	// unbound holds receives matched to an inherited RTS (see UnbindRTS):
	// they await the live handshake of a duplicate, adopted by RebindRTS.
	unbound []*PReq

	// Protocol hooks (the vProtocol interception points). OnArrive sees
	// every application message (eager or RTS) before matching and may
	// swallow it (return false) to reorder or deduplicate; swallowed
	// messages re-enter matching through InjectMatch. OnRecvComplete is
	// the paper's irecvComplete event; OnMatch is the match event.
	//
	// Ownership: a protocol that swallows a message in OnArrive owns it —
	// it either re-injects it later (InjectMatch) or releases it with
	// transport.FreeMessage. Messages passed to OnAck/OnHash/OnCtl are
	// only valid for the duration of the call; the engine releases them
	// when the hook returns.
	OnArrive       func(*transport.Message) bool
	OnMatch        func(*PReq, *transport.Message)
	OnRecvComplete func(*PReq)
	OnAck          func(*transport.Message)
	OnHash         func(*transport.Message)
	OnCtl          func(*transport.Message)

	// OnFlush lets a protocol piggyback deferred work on engine progress
	// (SDR-MPI flushes coalesced acks here). Progress invokes it with
	// force=false after handling inbound traffic; WaitUntil invokes it
	// with force=true immediately before blocking, which is what keeps
	// deferred acks from deadlocking a peer's ack-gated send.
	OnFlush func(force bool)
}

// NewEngine creates the PML engine for the process attached to ep.
func NewEngine(nw *transport.Network, ep *transport.Endpoint) *Engine {
	return &Engine{
		ep:         ep,
		nw:         nw,
		EagerLimit: DefaultEagerLimit,
		rdvRecv:    make(map[uint64]*PReq),
		rdvSend:    make(map[uint64]*PReq),
	}
}

// Proc returns the physical process ID this engine belongs to.
func (e *Engine) Proc() transport.ProcID { return e.ep.ID() }

// Network returns the underlying network.
func (e *Engine) Network() *transport.Network { return e.nw }

// Endpoint returns the transport endpoint (protocols use it to emit acks
// and control messages).
func (e *Engine) Endpoint() *transport.Endpoint { return e.ep }

// checkCrash unwinds the goroutine if this process has been killed.
func (e *Engine) checkCrash() {
	if e.ep.Crashed() {
		Crash(e.ep.ID())
	}
}

// Isend starts a PML-level send of data to physical process dst. For
// payloads at or below EagerLimit it copies the payload into a pooled
// buffer (so the caller's buffer is immediately reusable) and completes at
// once — ownership of the copy transfers to the transport and ultimately
// to the receiving engine, which recycles it after delivery. Larger
// payloads use rendezvous and complete when the data has been shipped
// after a CTS.
func (e *Engine) Isend(dst transport.ProcID, ctx uint32, tag int, data []byte, seq uint64, meta [4]int64) *PReq {
	e.checkCrash()
	r := &PReq{send: true, ctx: ctx, tag: tag, dst: dst, seq: seq, meta: meta}
	if len(data) <= e.EagerLimit {
		cp := transport.GetBuf(len(data))
		copy(cp, data)
		var m transport.Message
		m.Dst = dst
		m.Kind = transport.KindEager
		m.Ctx, m.Tag, m.Seq, m.Meta = ctx, tag, seq, meta
		m.SetPooledData(cp)
		e.ep.Send(&m)
		r.done = true
		return r
	}
	e.nextXID++
	r.xid = uint64(e.ep.ID()+1)<<40 | e.nextXID
	r.data = data
	meta[MetaLen] = int64(len(data))
	r.meta = meta
	e.rdvSend[r.xid] = r
	e.ep.Send(&transport.Message{
		Dst: dst, Kind: transport.KindRTS,
		Ctx: ctx, Tag: tag, Seq: seq, XID: r.xid, Meta: meta,
	})
	return r
}

// Irecv posts a PML-level receive. src is a specific physical process or
// AnyProc; with AnyProc, pred (if non-nil) filters acceptable sources —
// protocols use it to restrict wildcard receives to the replicas they
// currently receive from.
func (e *Engine) Irecv(src transport.ProcID, pred func(transport.ProcID) bool, ctx uint32, tag int, buf []byte) *PReq {
	e.checkCrash()
	r := &PReq{ctx: ctx, tag: tag, srcWant: src, srcPred: pred, buf: buf}
	// Try the unexpected queue first (in arrival order), then post.
	for i, m := range e.unexpected {
		if r.matches(m) {
			e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
			e.deliver(r, m)
			return r
		}
	}
	e.posted = append(e.posted, r)
	return r
}

// Cancel marks a request cancelled. Posted receives are withdrawn from
// matching; pending rendezvous sends are dropped (a late CTS is ignored).
func (e *Engine) Cancel(r *PReq) {
	if r == nil || r.done {
		return
	}
	r.cancelled = true
	r.done = true
	if r.send {
		delete(e.rdvSend, r.xid)
		return
	}
	for i, p := range e.posted {
		if p == r {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			break
		}
	}
}

// CancelSendsTo cancels every pending rendezvous send addressed to dst —
// its CTS will never come once dst has failed. Eager sends complete
// immediately and need no cancellation.
func (e *Engine) CancelSendsTo(dst transport.ProcID) {
	for xid, r := range e.rdvSend {
		if r.dst == dst {
			delete(e.rdvSend, xid)
			r.cancelled = true
			r.done = true
		}
	}
}

// RebindRTS re-attaches a duplicate RTS to a receive of the same logical
// message (same context, sequence and source rank) whose own handshake
// cannot deliver. Two cases exist:
//
//   - a matched-but-incomplete rendezvous receive whose sender crashed
//     between its RTS and the payload transfer: the substitute's re-send
//     must resume the broken handshake rather than be discarded;
//   - an inherited RTS (see UnbindRTS), matched and waiting, or still
//     unmatched in the unexpected queue: it adopts the duplicate's live
//     handshake, whichever of the two was matched or arrived first.
//
// Returns false if no such receive or envelope exists.
func (e *Engine) RebindRTS(m *transport.Message) bool {
	for xid, r := range e.rdvRecv {
		if r.sink || r.done {
			continue
		}
		if sameLogical(&r.status, m) {
			delete(e.rdvRecv, xid)
			e.bindRecv(r, m)
			return true
		}
	}
	for i, r := range e.unbound {
		if !r.done && sameLogical(&r.status, m) {
			e.unbound = append(e.unbound[:i], e.unbound[i+1:]...)
			e.bindRecv(r, m)
			return true
		}
	}
	for _, u := range e.unexpected {
		if AdoptRTS(u, m) {
			return true
		}
	}
	return false
}

// sameLogical reports whether the RTS m carries the logical message a
// matched receive's status describes.
func sameLogical(st *PStatus, m *transport.Message) bool {
	return st.Ctx == m.Ctx && st.Seq == m.Seq && st.Meta[MetaSrcRank] == m.Meta[MetaSrcRank]
}

// bindRecv attaches receive r to the live handshake of RTS m and sends
// m's sender the CTS.
func (e *Engine) bindRecv(r *PReq, m *transport.Message) {
	r.status.SrcPhys = m.Src
	r.status.Meta = m.Meta
	e.rdvRecv[m.XID] = r
	e.ep.Send(&transport.Message{Dst: m.Src, Kind: transport.KindCTS, Ctx: m.Ctx, XID: m.XID})
}

// UnbindRTS strips the handshake from an RTS envelope copied into a §3.4
// recovery fork. The copy names the substitute's transfer: a CTS from the
// replacement to the original sender could win the race for the payload
// and leave the substitute's receive waiting forever. An unbound RTS
// (XID 0, never a live handshake ID) matches like any other, but sends no
// CTS; its receive waits for a duplicate of the same logical message —
// the survivors replay every message the substitute had not acknowledged
// at the fork — and RebindRTS or AdoptRTS hands it that duplicate's
// handshake. Other kinds pass unchanged.
func UnbindRTS(m *transport.Message) {
	if m.Kind == transport.KindRTS {
		m.XID = 0
	}
}

// AdoptRTS binds the unbound inherited RTS envelope u to the live
// handshake of dup, a duplicate RTS of the same logical message,
// reporting whether it did. The caller still owns (and releases) dup.
func AdoptRTS(u, dup *transport.Message) bool {
	if u.Kind != transport.KindRTS || u.XID != 0 || dup.Kind != transport.KindRTS ||
		u.Ctx != dup.Ctx || u.Seq != dup.Seq || u.Meta[MetaSrcRank] != dup.Meta[MetaSrcRank] {
		return false
	}
	u.Src, u.XID, u.Meta = dup.Src, dup.XID, dup.Meta
	return true
}

// SinkRTS completes a duplicate rendezvous handshake into a throwaway
// buffer. Replication protocols call it when the sequencer discards a
// duplicate RTS (mirror mode's redundant copies, or a substitute's re-send
// racing the in-flight original): the duplicate sender still needs a CTS
// to complete its request, and the redundant payload transfer is exactly
// the bandwidth cost the mirror protocol pays.
func (e *Engine) SinkRTS(m *transport.Message) {
	r := &PReq{ctx: m.Ctx, tag: m.Tag, buf: make([]byte, int(m.Meta[MetaLen]))}
	r.status = PStatus{SrcPhys: m.Src, Ctx: m.Ctx, Tag: m.Tag, Count: int(m.Meta[MetaLen]), Seq: m.Seq, Meta: m.Meta}
	r.sink = true
	e.rdvRecv[m.XID] = r
	e.ep.Send(&transport.Message{Dst: m.Src, Kind: transport.KindCTS, Ctx: m.Ctx, XID: m.XID})
}

// UnexpectedMessages snapshots the unexpected queue (the recovery fork
// clones it into the replacement replica). The snapshot deep-copies every
// message: the originals stay queued here and will be consumed (and their
// pooled storage recycled) by this engine, while the clones are consumed
// by the replacement process.
func (e *Engine) UnexpectedMessages() []*transport.Message {
	out := make([]*transport.Message, len(e.unexpected))
	for i, m := range e.unexpected {
		out[i] = m.Clone()
	}
	return out
}

// SeedUnexpected pre-loads the unexpected queue of a freshly built engine
// (the recovered replica's inherited, admitted-but-unconsumed messages).
func (e *Engine) SeedUnexpected(ms []*transport.Message) {
	e.unexpected = append(e.unexpected, ms...)
}

// TakeUnexpected hands the unexpected queue to the caller — ownership of
// the messages transfers with it — and leaves the queue empty. The
// sequencer tests and benchmarks drain admitted messages this way: the
// queue preserves admission order, and taking it whole avoids the
// per-message removal cost of head-matched receives.
func (e *Engine) TakeUnexpected() []*transport.Message {
	ms := e.unexpected
	e.unexpected = nil
	return ms
}

// RetargetRecvs redirects every posted receive that names physical source
// old to name new instead (Algorithm 1, lines 34-35), then re-runs
// matching against the unexpected queue, since messages from the new
// source may already have arrived.
func (e *Engine) RetargetRecvs(old, new transport.ProcID) {
	changed := false
	for _, r := range e.posted {
		if !r.send && r.srcWant == old {
			r.srcWant = new
			changed = true
		}
	}
	if changed {
		e.rematch()
	}
}

// rematch retries delivery of unexpected messages against posted receives.
func (e *Engine) rematch() {
	i := 0
	for i < len(e.unexpected) {
		m := e.unexpected[i]
		if req := e.findPosted(m); req != nil {
			e.unexpected = append(e.unexpected[:i], e.unexpected[i+1:]...)
			e.deliver(req, m)
			continue
		}
		i++
	}
}

func (e *Engine) findPosted(m *transport.Message) *PReq {
	for i, r := range e.posted {
		if r.matches(m) {
			e.posted = append(e.posted[:i], e.posted[i+1:]...)
			return r
		}
	}
	return nil
}

// InjectMatch feeds an application message into the matching engine,
// bypassing the OnArrive hook. Replication protocols use it to release
// messages held back for sequencing.
func (e *Engine) InjectMatch(m *transport.Message) {
	if req := e.findPosted(m); req != nil {
		e.deliver(req, m)
		return
	}
	e.unexpected = append(e.unexpected, m)
	if len(e.unexpected) > e.unexpHW {
		e.unexpHW = len(e.unexpected)
	}
}

// InjectMatchBatch feeds an in-order run of application messages into the
// matching engine — the admitted arrival plus every consecutive stashed
// message it released. One pass amortizes the unexpected-queue growth and
// high-water bookkeeping over the whole run instead of per message; order
// within the batch is preserved (it IS the sequence order).
func (e *Engine) InjectMatchBatch(ms []*transport.Message) {
	if need := len(e.unexpected) + len(ms); len(ms) > 1 && cap(e.unexpected) < need {
		// Grow once for the whole batch, but never below doubling — exact
		// sizing here would recopy the queue on every batch of a burst.
		newCap := 2 * cap(e.unexpected)
		if newCap < need {
			newCap = need
		}
		grown := make([]*transport.Message, len(e.unexpected), newCap)
		copy(grown, e.unexpected)
		e.unexpected = grown
	}
	for _, m := range ms {
		if req := e.findPosted(m); req != nil {
			e.deliver(req, m)
			continue
		}
		e.unexpected = append(e.unexpected, m)
	}
	if len(e.unexpected) > e.unexpHW {
		e.unexpHW = len(e.unexpected)
	}
}

// deliver completes the match of message m with posted receive req: eager
// payloads complete immediately (match + irecvComplete); an RTS triggers
// the CTS reply and completion is deferred to the Data arrival. deliver is
// the terminal consumption point for m: once the payload is copied into
// the receive buffer (or the CTS is on its way), the message's pooled
// storage is recycled.
func (e *Engine) deliver(req *PReq, m *transport.Message) {
	req.status = PStatus{SrcPhys: m.Src, Ctx: m.Ctx, Tag: m.Tag, Count: m.Len(), Seq: m.Seq, Meta: m.Meta}
	if m.Kind == transport.KindRTS {
		req.status.Count = int(m.Meta[MetaLen])
		if e.OnMatch != nil {
			e.OnMatch(req, m)
		}
		if m.XID == 0 {
			// Inherited, unbound: wait for a duplicate's handshake.
			e.unbound = append(e.unbound, req)
		} else {
			e.bindRecv(req, m)
		}
		transport.FreeMessage(m)
		return
	}
	if e.OnMatch != nil {
		e.OnMatch(req, m)
	}
	if m.Len() > len(req.buf) {
		req.truncated = true
	}
	copy(req.buf, m.Data)
	req.done = true
	transport.FreeMessage(m)
	if e.OnRecvComplete != nil {
		e.OnRecvComplete(req)
	}
}

// handle dispatches one inbound transport message. For control-plane
// kinds (ack/hash/ctl/CTS) the hooks consume the message by value, so its
// storage is recycled as soon as they return; application messages
// (eager/RTS/Data) live until deliver or an owning protocol releases them.
func (e *Engine) handle(m *transport.Message) {
	switch m.Kind {
	case transport.KindAck:
		if e.OnAck != nil {
			e.OnAck(m)
		}
		transport.FreeMessage(m)
	case transport.KindHash:
		if e.OnHash != nil {
			e.OnHash(m)
		}
		transport.FreeMessage(m)
	case transport.KindCtl:
		if e.OnCtl != nil {
			e.OnCtl(m)
		}
		transport.FreeMessage(m)
	case transport.KindCTS:
		if r, ok := e.rdvSend[m.XID]; ok {
			delete(e.rdvSend, m.XID)
			// Ship a copy: completing the request frees the caller's
			// buffer for reuse (MPI_Wait semantics), so the bytes on
			// the wire must be owned by the transport, exactly as a
			// NIC's send completion implies the buffer has been read.
			// The copy is pooled; the receiving engine recycles it.
			cp := transport.GetBuf(len(r.data))
			copy(cp, r.data)
			var dm transport.Message
			dm.Dst = m.Src
			dm.Kind = transport.KindData
			dm.Ctx, dm.Tag, dm.Seq, dm.XID, dm.Meta = r.ctx, r.tag, r.seq, m.XID, r.meta
			dm.SetPooledData(cp)
			e.ep.Send(&dm)
			r.done = true
		}
		transport.FreeMessage(m)
	case transport.KindData:
		if r, ok := e.rdvRecv[m.XID]; ok {
			delete(e.rdvRecv, m.XID)
			if m.Len() > len(r.buf) {
				r.truncated = true
			}
			copy(r.buf, m.Data)
			r.status.Count = m.Len()
			r.done = true
			if e.OnRecvComplete != nil && !r.sink {
				e.OnRecvComplete(r)
			}
		}
		transport.FreeMessage(m)
	case transport.KindEager, transport.KindRTS:
		if e.OnArrive != nil && !e.OnArrive(m) {
			return
		}
		e.InjectMatch(m)
	default:
		panic(fmt.Sprintf("mpi: unknown message kind %v", m.Kind))
	}
}

// Progress drains and processes all deliverable inbound messages. It
// returns true if any message was processed. It also realizes this
// process's own crash, if one has been injected. After the protocol's
// OnFlush hook (which may stage coalesced acks on the wire), aged wire
// batches are flushed — the transport-level twin of ack coalescing, on
// the same trigger schedule.
func (e *Engine) Progress() bool {
	e.checkCrash()
	msgs := e.ep.Drain()
	for _, m := range msgs {
		e.handle(m)
	}
	if e.OnFlush != nil {
		e.OnFlush(false)
	}
	e.nw.FlushWire(e.ep.ID(), false)
	return len(msgs) > 0
}

// WaitUntil pumps progress until cond holds. It unwinds with the crash
// sentinel if this process is killed while waiting. Every iteration —
// including the one that satisfies cond — force-flushes protocol-deferred
// work (coalesced acks): a process never sleeps on, and never returns to
// the application holding, acknowledgements it still owes. This is the
// liveness half of coalescing; batching happens within one progress
// round, where bursts actually arrive together.
func (e *Engine) WaitUntil(cond func() bool) {
	for {
		e.Progress()
		done := cond()
		e.Flush()
		if done {
			return
		}
		if !e.ep.WaitActivity(0) {
			Crash(e.ep.ID())
		}
	}
}

// Flush force-flushes protocol-deferred work (coalesced acks) and then
// every wire batch this process has staged — the pre-block discipline of
// every blocking wait: the acks OnFlush stages, and any application
// frames still batched, must reach the peer before this process sleeps,
// or both sides sleep on each other's staged bytes.
func (e *Engine) Flush() {
	if e.OnFlush != nil {
		e.OnFlush(true)
	}
	e.nw.FlushWire(e.ep.ID(), true)
}

// UnexpectedLen reports the current depth of the unexpected-message queue
// (used by the leader-baseline experiments: delayed receive posting grows
// this queue, §3.1).
func (e *Engine) UnexpectedLen() int { return len(e.unexpected) }

// PostedLen reports the number of posted, unmatched receives.
func (e *Engine) PostedLen() int { return len(e.posted) }

// UnexpectedHighWater reports the deepest the unexpected queue has been —
// the §3.1 cost of posting receives late (leader-based wildcards).
func (e *Engine) UnexpectedHighWater() int { return e.unexpHW }
