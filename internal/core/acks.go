package core

import (
	"time"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// Acknowledgement coalescing.
//
// Algorithm 1 sends one acknowledgement per (received message, other
// replica) on the irecvComplete event. That is semantically necessary —
// a sender deletes a retained message only once every other alive replica
// of the destination rank has confirmed reception — but nothing requires
// each confirmation to be its own wire message. This file batches the
// acks a process owes each destination and ships them as a single KindAck
// message (payload format: transport.AckRec records), collapsing the
// per-message ack traffic that Stats.AckMsgs() counts.
//
// A batch for destination q is flushed when:
//
//   - an outbound application message to q is about to be sent (the ack
//     batch rides just ahead of it on the same FIFO channel),
//   - the batch reaches AckBatchMax records,
//   - engine progress finds the batch older than AckFlushDelay, or
//   - the process is about to block in WaitUntil (force flush — this is
//     the liveness rule: a process never sleeps on acks it still owes,
//     so a peer's ack-gated MPI_Wait always unblocks).
//
// Failure interplay: pending acks to a process that fails are dropped
// (equivalent to the discrete acks falling off the wire, which the
// failure handling already tolerates), and BroadcastRecovered force-
// flushes first so the paper's FIFO argument — acknowledgements sent
// before the recovery notification concern messages contained in the fork
// state — is preserved verbatim.

// ackQueue accumulates the acknowledgements owed to one destination.
// Queues live in a dense slice indexed by physical process ID; listed
// marks a destination already on the owed list, so it is never listed
// twice.
type ackQueue struct {
	recs   []transport.AckRec
	since  time.Time // queue time of the oldest pending record
	listed bool      // q is on Replicated.ackOwed
}

// initCoalescing configures the coalescing state (called from
// NewReplicated for non-mirror modes unless disabled).
func (p *Replicated) initCoalescing() {
	p.coalesce = true
	p.ackPend = make([]ackQueue, p.layout.Procs())
	p.ackMax = p.opts.AckBatchMax
	if p.ackMax <= 0 {
		p.ackMax = DefaultAckBatchMax
	}
	p.ackDelay = p.opts.AckFlushDelay
	if p.ackDelay <= 0 {
		p.ackDelay = DefaultAckFlushDelay
	}
	p.eng.OnFlush = p.flushAcks
}

// queueAck records one acknowledgement owed to q, flushing if the batch
// is full. A batch that becomes non-empty puts q on the owed list.
func (p *Replicated) queueAck(q transport.ProcID, ctx uint32, seq uint64) {
	aq := &p.ackPend[q]
	if len(aq.recs) == 0 {
		aq.since = time.Now()
		if !aq.listed {
			aq.listed = true
			p.ackOwed = append(p.ackOwed, q)
		}
	}
	aq.recs = append(aq.recs, transport.AckRec{Ctx: ctx, Seq: seq})
	if len(aq.recs) >= p.ackMax {
		p.flushAcksTo(q, aq)
	}
}

// flushAcks ships pending batches: all of them when forced (about to
// block), otherwise only those older than the flush delay. Installed as
// the engine's OnFlush hook, so it runs on every Progress and before
// every block: with nothing owed it returns at once. It visits only the
// owed list and compacts it as it goes — a destination leaves the list
// once its batch is shipped, or is found already emptied by a piggyback,
// full-batch or dead-destination flush.
func (p *Replicated) flushAcks(force bool) {
	if len(p.ackOwed) == 0 {
		return
	}
	var now time.Time
	keep := p.ackOwed[:0]
	for _, q := range p.ackOwed {
		aq := &p.ackPend[q]
		if len(aq.recs) > 0 && !force {
			if now.IsZero() {
				now = time.Now()
			}
			if now.Sub(aq.since) < p.ackDelay {
				keep = append(keep, q)
				continue
			}
		}
		p.flushAcksTo(q, aq)
		aq.listed = false
	}
	p.ackOwed = keep
}

// flushPendingTo flushes the batch owed to q, if any — the piggyback
// trigger, called just before an outbound application message to q. q
// stays on the owed list until the next flushAcks pass drops it.
func (p *Replicated) flushPendingTo(q transport.ProcID) {
	if !p.coalesce {
		return
	}
	if aq := &p.ackPend[q]; len(aq.recs) > 0 {
		p.flushAcksTo(q, aq)
	}
}

// flushAcksTo emits one KindAck message carrying every pending record for
// q. A single record uses the legacy envelope-only format; larger batches
// encode the records into a pooled payload.
func (p *Replicated) flushAcksTo(q transport.ProcID, aq *ackQueue) {
	recs := aq.recs
	if len(recs) == 0 {
		return
	}
	if len(recs) == 1 {
		p.sendAckNow(q, recs[0].Ctx, recs[0].Seq, -1)
	} else {
		mAckMsgs.Inc()
		mAcksCoalesced.Add(uint64(len(recs)))
		buf := transport.GetBuf(transport.AckBatchBytes(len(recs)))
		buf = transport.EncodeAckRecs(buf[:0], recs)
		var m transport.Message
		m.Dst = q
		m.Kind = transport.KindAck
		m.Meta = [4]int64{-1, int64(p.myRank), int64(p.myRep), int64(len(recs))}
		m.SetPooledData(buf)
		p.eng.Endpoint().Send(&m)
	}
	aq.recs = aq.recs[:0]
	aq.since = time.Time{}
}

// dropAcksFor discards the batch owed to a failed process: the discrete
// acks would have fallen off the wire anyway (fail-stop). The batch is
// cleared in place; a listed entry leaves the owed list on the next
// flushAcks pass.
func (p *Replicated) dropAcksFor(dead transport.ProcID) {
	if !p.coalesce {
		return
	}
	aq := &p.ackPend[dead]
	aq.recs = aq.recs[:0]
	aq.since = time.Time{}
}

// sendAckNow emits one discrete acknowledgement in the legacy format:
// ctx/seq in the envelope, Meta = [srcRank, ackerRank, ackerWorld, 1].
func (p *Replicated) sendAckNow(q transport.ProcID, ctx uint32, seq uint64, srcRank int) {
	mAckMsgs.Inc()
	p.eng.Endpoint().Send(&transport.Message{
		Dst:  q,
		Kind: transport.KindAck,
		Ctx:  ctx,
		Seq:  seq,
		Meta: [4]int64{int64(srcRank), int64(p.myRank), int64(p.myRep), 1},
	})
}

// onAck processes an acknowledgement message: a batch when a payload is
// present, the legacy single-ack format otherwise. Corrupt batches are
// dropped, never panicked on.
func (p *Replicated) onAck(m *transport.Message) {
	if m.Len() > 0 {
		recs, err := transport.DecodeAckRecs(m.Data)
		if err != nil {
			return
		}
		for _, r := range recs {
			p.applyAck(r.Ctx, r.Seq, m.Src)
		}
		return
	}
	p.applyAck(m.Ctx, m.Seq, m.Src)
}

// applyAck marks one expected acknowledgement from src as received and
// releases the retention entry once all have arrived (completing the
// gated send request). The retention key's rank is the acker's own rank —
// derived from its physical ID, identical across the discrete and batched
// formats.
func (p *Replicated) applyAck(ctx uint32, seq uint64, src transport.ProcID) {
	ackerRank := p.layout.RankOf(src)
	key := retKey{ctx, ackerRank, seq}
	entry, ok := p.retain[key]
	if !ok {
		// Distinguish an *early* ack (our replica has not yet posted
		// the acknowledged send: seq at or beyond our counter) from a
		// *late* one (entry already completed or converted after a
		// failure). Early acks are remembered and consumed by Isend.
		if seq >= p.sendSeq.peek(ctx, ackerRank) {
			ea := p.earlyAcks[key]
			if ea == nil {
				ea = make(map[transport.ProcID]bool)
				p.earlyAcks[key] = ea
			}
			ea[src] = true
		}
		return
	}
	entry.unneed(src)
	if len(entry.needed) == 0 {
		p.dropRetain(key, entry)
	}
}

// dropEarlyAck discards a recorded early ack from q for key, reporting
// whether one existed. Early acks are consumed when the send is posted
// with q as an expected acker, and dropped as moot when q is instead a
// direct destination (a take-over converted it) or has died.
func (p *Replicated) dropEarlyAck(key retKey, q transport.ProcID) bool {
	if len(p.earlyAcks) == 0 {
		return false // the common case: replicas in step, no probe
	}
	ea := p.earlyAcks[key]
	if ea == nil || !ea[q] {
		return false
	}
	delete(ea, q)
	if len(ea) == 0 {
		delete(p.earlyAcks, key)
	}
	return true
}

// dropRetain releases a retention entry, recycling a pooled payload.
func (p *Replicated) dropRetain(key retKey, entry *sendEntry) {
	delete(p.retain, key)
	if entry.pooled {
		transport.FreeBuf(entry.data)
		entry.data = nil
		entry.pooled = false
	}
}

// sendAcksFor emits (or queues) the acknowledgements for one completed
// reception: to every other alive replica of the source rank (lines 15–17
// of Algorithm 1).
func (p *Replicated) sendAcksFor(ps mpi.PStatus) {
	srcRank := int(ps.Meta[mpi.MetaSrcRank])
	senderWorld := int(ps.Meta[mpi.MetaWorld])
	for rep := 0; rep < p.layout.Degree(srcRank); rep++ {
		if rep == senderWorld {
			continue
		}
		q := p.layout.Phys(rep, srcRank)
		if !p.alive[int(q)] {
			continue
		}
		if p.coalesce {
			p.queueAck(q, ps.Ctx, ps.Seq)
		} else {
			p.sendAckNow(q, ps.Ctx, ps.Seq, srcRank)
		}
	}
}
