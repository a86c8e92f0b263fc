package core

import (
	"fmt"
	"sort"

	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Recovery of a failed replica, for replication degree two (§3.4 of the
// paper). The substitute "forks" the replacement: in this in-process
// simulation the fork is a clone of the protocol state plus an
// application-provided snapshot, taken at a quiescent point (no pending
// requests). The substitute then broadcasts an in-band notification;
// because channels are FIFO, each peer knows that exactly the messages the
// substitute had not acknowledged before the notification must be replayed
// to the new replica, and that acknowledgements to the new replica resume
// with the first message received after the notification.

// CloneState is the protocol state a recovered replica inherits from its
// substitute at the fork point.
type CloneState struct {
	Revived    transport.ProcID
	SendSeq    map[seqKey]uint64
	RecvNext   map[seqKey]uint64
	Pending    map[seqKey][]*transport.Message
	Unexpected []*transport.Message
	// CollSeq is the substitute's world-communicator collective sequence
	// at the fork: the replacement resumes at the same step, so its next
	// world collective must carry the same sequence number.
	CollSeq uint64
}

// ForkFor snapshots this (substitute) process's protocol state for the
// replica being recovered. It must be called at a quiescent point: every
// send and receive request completed, which implies an empty retention
// buffer. It must be followed by BroadcastRecovered before any further
// application send. collSeq is the substitute's world CollSeq at the fork
// point.
func (p *Replicated) ForkFor(revived transport.ProcID, collSeq uint64) *CloneState {
	if p.layout.Degree(p.myRank) != 2 {
		panic("core: recovery requires replication degree 2 (paper §3.4)")
	}
	if p.layout.RankOf(revived) != p.myRank {
		panic("core: only the substitute (same rank) can fork a replacement")
	}
	if len(p.retain) != 0 {
		panic(fmt.Sprintf("core: fork at non-quiescent point: %d retained sends", len(p.retain)))
	}
	cs := &CloneState{
		Revived:  revived,
		SendSeq:  p.sendSeq.snapshot(),
		RecvNext: p.recvSeq.snapshot(),
		Pending:  make(map[seqKey][]*transport.Message),
		CollSeq:  collSeq,
	}
	// Inherited RTS envelopes are unbound: their handshakes belong to
	// the substitute, and the replacement takes the payload from the
	// survivors' duplicate instead (see mpi.UnbindRTS).
	p.recvSeq.forEachStash(func(ctx uint32, rank int, st *seqStash) {
		// Deep-copy: the substitute keeps consuming (and recycling) its
		// own stashed messages, while the clones travel to the
		// replacement process — they must not share pooled storage.
		ms := st.collect(nil)
		for i, m := range ms {
			ms[i] = m.Clone()
			mpi.UnbindRTS(ms[i])
		}
		cs.Pending[seqKey{ctx, rank}] = ms
	})
	cs.Unexpected = p.eng.UnexpectedMessages()
	for _, m := range cs.Unexpected {
		mpi.UnbindRTS(m)
	}
	return cs
}

// BroadcastRecovered announces the revived replica to every alive process
// through in-band FIFO control messages. The network endpoint must already
// be revived. The substitute's own bookkeeping is updated as if it had
// received the notification.
func (p *Replicated) BroadcastRecovered(revived transport.ProcID) {
	// Flush coalesced acks first: every acknowledgement this process
	// emitted logically before the fork must precede the notification on
	// its FIFO channels (the paper's §3.4 ordering argument).
	if p.coalesce {
		p.flushAcks(true)
	}
	for i := 0; i < p.layout.Procs(); i++ {
		q := transport.ProcID(i)
		if q == p.proc.ID() || q == revived || !p.alive[int(q)] {
			continue
		}
		p.eng.Endpoint().Send(&transport.Message{
			Dst:  q,
			Kind: transport.KindCtl,
			Tag:  detect.TagRecovered,
			Meta: [4]int64{int64(revived)},
		})
	}
	p.onRecovered(revived)
}

// Restore installs the forked state on the freshly constructed protocol
// layer of the recovered replica.
func (p *Replicated) Restore(cs *CloneState) {
	if cs.Revived != p.proc.ID() {
		panic("core: restoring a clone state forked for a different process")
	}
	p.sendSeq.load(cs.SendSeq)
	p.recvSeq.load(cs.RecvNext)
	for k, v := range cs.Pending {
		rc := p.recvSeq.at(k.ctx)
		for _, m := range v {
			// Fork-state stashes are strictly ahead of the counters; guard
			// anyway so a malformed clone cannot underflow the ring offset.
			if m.Seq > rc.next[k.rank] && rc.stash[k.rank].insert(rc.next[k.rank], m) {
				gSeqStashDepth.Add(1)
			}
		}
	}
	p.eng.SeedUnexpected(cs.Unexpected)
	p.alive[int(p.proc.ID())] = true
}

// onRecovered processes the recovery notification for process q. FIFO
// ordering w.r.t. the substitute's prior acknowledgements is what makes
// the retained-entry replay exactly the set of messages the fork state
// does not contain.
func (p *Replicated) onRecovered(q transport.ProcID) {
	if q == p.proc.ID() {
		return
	}
	p.alive[int(q)] = true
	qRank := p.layout.RankOf(q)
	qRep := p.layout.RepOf(q)
	// Like detect: the detail names only the recovered process, so the
	// survivors' independent observations collapse in the chain render.
	rev := obs.Ev(obs.StageRecovered, "recovery notification processed")
	rev.Proc, rev.Rank, rev.Rep = int(q), qRank, qRep
	obs.DefaultTrace.Emit(rev)

	if qRank == p.myRank {
		// A replica of my own rank is back: it handles its own sends
		// again; if I was substituting for its world, stop duplicating.
		if p.substitute[qRep] != qRep && p.substitute[qRep] != p.myRep {
			// Someone else was substituting; just record the handback.
		}
		p.substitute[qRep] = qRep
		if qRep != p.myRep {
			for j := 0; j < p.layout.N; j++ {
				if qRep < p.layout.Degree(j) {
					p.removeDest(j, p.layout.Phys(qRep, j))
				}
			}
		}
		return
	}

	if qRep < len(p.substitute) && p.substitute[qRep] == p.myRep {
		// q lives in a world I emit into — my own (myRep == qRep), or one
		// I took over as substitute. Restore it as my direct destination
		// and nominal source, and replay every retained message for that
		// rank — precisely those the substitute had not acknowledged
		// before the notification. For a logging-enabled rank relaunched
		// by the localized-replay rung, additionally re-send the message
		// log: retention is empty for degree-1 destinations (no acks gate
		// those sends), so the log is the only replay source.
		p.physicalSrc[qRank] = q
		if !p.inDests(qRank, q) {
			p.physicalDests[qRank] = append(p.physicalDests[qRank], q)
		}
		p.replayRetained(qRank, q)
		if p.LogEnabled(qRank) {
			p.replayLog(qRank, q)
		}
	}
	// Processes in other worlds resume acknowledging to q automatically
	// now that alive[q] holds, and only for messages completed after
	// this notification — the paper's FIFO argument.
}

// replayRetained re-sends every retained entry destined to dstRank to the
// recovered process q, in sequence order, leaving the entries' expected
// ack sets unchanged (they still await the substitute world's acks).
func (p *Replicated) replayRetained(dstRank int, q transport.ProcID) {
	var entries []*sendEntry
	for _, e := range p.retain {
		if e.dstRank == dstRank {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].ctx != entries[j].ctx {
			return entries[i].ctx < entries[j].ctx
		}
		return entries[i].seq < entries[j].seq
	})
	for _, e := range entries {
		// Copied for the same aliasing reason as resendUnackedTo: the
		// entry may complete (freeing the app buffer) while the replay's
		// rendezvous transfer is still in flight.
		p.eng.Isend(q, e.ctx, e.tag, append([]byte(nil), e.data...), e.seq, e.meta)
	}
	mReplayedMsgs.Add(uint64(len(entries)))
}
