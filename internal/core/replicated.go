package core

import (
	"time"

	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// Replicated is the replication protocol layer for one physical process.
// It implements mpi.Protocol. One instance exists per replica; together
// the instances of all replicas realize SDR-MPI (or one of the baseline
// modes).
type Replicated struct {
	proc   *mpi.Proc
	eng    *mpi.Engine
	layout Layout
	mode   Mode
	opts   Options

	myRank int
	myRep  int

	// Algorithm 1 state.
	physicalDests [][]transport.ProcID // rank → replicas I send application messages to
	physicalSrc   []transport.ProcID   // rank → replica I nominally receive from
	substitute    []int                // rep → rep emitting on its behalf (my rank's replica set)
	alive         []bool               // local consistent failure view

	// Sender state: per-(ctx, dstRank) next sequence number (dense, see
	// sequencer.go), and the retention buffer of unacknowledged messages.
	// earlyAcks holds acks that arrived before this replica posted the
	// corresponding send — replicas may diverge temporarily (§3.1), so the
	// other world's receiver can complete (and acknowledge) a logical
	// message before this world has emitted its own copy.
	sendSeq   *seqTable
	retain    map[retKey]*sendEntry
	earlyAcks map[retKey]map[transport.ProcID]bool

	// Receiver state: per-(ctx, srcRank) next expected sequence, plus
	// out-of-order arrivals held back in per-rank rings for in-order
	// delivery into the matching engine. The sequencer both deduplicates
	// re-sent messages after a failure and preserves logical-rank FIFO
	// across the replica-to-substitute switchover. injectBuf is the
	// reusable batch an in-order arrival and the stashed run it releases
	// enter matching through — one injection pass per arrival.
	recvSeq   *seqTable
	injectBuf []*transport.Message

	// SDC state: per-(ctx, srcRank, seq) expected payload hashes from
	// other-world senders not yet paired with a local reception, and
	// hashes of local receptions not yet paired with a remote hash.
	sdcRemote map[retKey][]int64
	sdcLocal  map[retKey]uint64
	sdcCount  int

	// Sender-based message-logging state (see msglog.go): per-destination
	// payload logs for the logging-enabled (degree-1) ranks, truncated by
	// the receivers' checkpoint acknowledgements.
	logDests []bool
	msgLog   map[int][]*logEntry

	// Ack-coalescing state (see acks.go): per-destination batches of
	// acknowledgements not yet on the wire, indexed by physical process
	// ID, and the owed list of destinations whose batch may be non-empty.
	coalesce bool
	ackPend  []ackQueue
	ackOwed  []transport.ProcID
	ackMax   int
	ackDelay time.Duration

	// Leader-mode wildcard agreement state.
	wc leaderState

	// recovering marks the window between this process's resurrection
	// and its state restoration (clone side of §3.4).
	failureHooks []func(dead transport.ProcID)
}

// NewReplicated builds the protocol layer for physical process proc under
// the given layout and mode, and registers the PML hooks. det provides the
// consistent failure view at construction (processes may be born into a
// world with prior failures only in recovery scenarios; normally all are
// alive).
func NewReplicated(proc *mpi.Proc, layout Layout, mode Mode, det *detect.Service, opts Options) *Replicated {
	p := &Replicated{
		proc:      proc,
		eng:       proc.Engine(),
		layout:    layout,
		mode:      mode,
		opts:      opts,
		myRank:    layout.RankOf(proc.ID()),
		myRep:     layout.RepOf(proc.ID()),
		sendSeq:   newSeqTable(layout.N, false),
		retain:    make(map[retKey]*sendEntry),
		earlyAcks: make(map[retKey]map[transport.ProcID]bool),

		recvSeq:   newSeqTable(layout.N, true),
		sdcRemote: make(map[retKey][]int64),
		sdcLocal:  make(map[retKey]uint64),
		logDests:  opts.LogDests,
	}
	// Degree-aware topology (§5's research direction, MR-MPI's feature):
	// a rank whose degree does not reach this process's world has no
	// member here — its lowest replica permanently serves this world
	// through the standard substitution bookkeeping, so sends to it
	// become pure ack expectations and no phantom process is ever
	// involved.
	p.physicalDests = make([][]transport.ProcID, layout.N)
	p.physicalSrc = make([]transport.ProcID, layout.N)
	for rank := 0; rank < layout.N; rank++ {
		if p.myRep < layout.Degree(rank) {
			q := layout.Phys(p.myRep, rank)
			p.physicalDests[rank] = []transport.ProcID{q}
			p.physicalSrc[rank] = q
		} else {
			p.physicalSrc[rank] = layout.Phys(0, rank)
		}
	}
	p.substitute = make([]int, layout.R)
	for rep := range p.substitute {
		if rep < layout.Degree(p.myRank) {
			p.substitute[rep] = rep
		} else {
			p.substitute[rep] = 0
		}
	}
	if p.myRep == 0 {
		// The lowest replica emits to — and collects acks for — every
		// world its rank is absent from (the permanent analogue of a
		// failed replica's take-over).
		for w := layout.Degree(p.myRank); w < layout.R; w++ {
			for j := 0; j < layout.N; j++ {
				if w < layout.Degree(j) {
					if q := layout.Phys(w, j); !p.inDests(j, q) {
						p.physicalDests[j] = append(p.physicalDests[j], q)
					}
				}
			}
		}
	}
	p.alive = make([]bool, layout.Procs())
	for i := range p.alive {
		p.alive[i] = det == nil || det.Alive(transport.ProcID(i))
	}
	p.wc.init()

	// Processes may be born into a world with prior real failures
	// (recovery and restart scenarios): apply the ordinary failure
	// handling for them at construction.
	for i := range p.alive {
		if !p.alive[i] {
			p.alive[i] = true // arm the duplicate-notification guard
			p.onFailure(transport.ProcID(i))
		}
	}

	if mode != ModeMirror && !opts.NoAckCoalesce {
		p.initCoalescing()
	}

	p.eng.OnArrive = p.onArrive
	p.eng.OnRecvComplete = p.onRecvComplete
	p.eng.OnAck = p.onAck
	p.eng.OnCtl = p.onCtl
	if mode == ModeLeader {
		p.eng.OnMatch = p.onMatchLeader
	}
	if opts.SDC {
		p.eng.OnHash = p.onHash
	}
	return p
}

// Name implements mpi.Protocol.
func (p *Replicated) Name() string { return p.mode.String() }

// MyBaseRank implements mpi.Protocol.
func (p *Replicated) MyBaseRank() mpi.Rank { return mpi.Rank(p.myRank) }

// Layout returns the replica layout.
func (p *Replicated) Layout() Layout { return p.layout }

// Rep returns this process's replica (world) index.
func (p *Replicated) Rep() int { return p.myRep }

// RetainedCount reports the current retention-buffer depth (tests and the
// harness use it to assert message-deletion safety).
func (p *Replicated) RetainedCount() int { return len(p.retain) }

// SDCDetected reports how many hash mismatches the SDC detector saw.
func (p *Replicated) SDCDetected() int { return p.sdcCount }

// OnFailureHook registers an extra observer of failure notifications (the
// cluster harness uses it for recovery orchestration).
func (p *Replicated) OnFailureHook(f func(dead transport.ProcID)) {
	p.failureHooks = append(p.failureHooks, f)
}

// AliveView returns whether this process currently believes q is alive.
func (p *Replicated) AliveView(q transport.ProcID) bool { return p.alive[int(q)] }

// --- Send path (Algorithm 1, MPI_Isend) -----------------------------------

// Isend implements mpi.Protocol. It transmits the payload to the
// destinations in physicalDests[dstRank] and, in parallel modes, records a
// retention entry expecting an ack from every other alive replica of the
// destination rank (lines 4–9 of Algorithm 1).
func (p *Replicated) Isend(c *mpi.Comm, ctx uint32, to mpi.Rank, tag int, data []byte) *mpi.Request {
	dstRank := int(c.BaseRank(to))
	seq := p.sendSeq.take(ctx, dstRank)
	mAppMsgs.Inc()

	if p.opts.Corrupt != nil {
		p.opts.Corrupt(dstRank, seq, data)
	}
	if p.opts.SendRecorder != nil {
		p.opts.SendRecorder(ctx, dstRank, tag, data)
	}

	var meta [4]int64
	meta[mpi.MetaSrcRank] = int64(p.myRank)
	meta[mpi.MetaDstRank] = int64(dstRank)
	meta[mpi.MetaWorld] = int64(p.myRep)

	if p.LogEnabled(dstRank) {
		// Sender-based message logging: keep an owned copy until the
		// destination's checkpoint acknowledgement covers it. Logged even
		// while the destination is down — the entry is then the ONLY copy,
		// re-sent at replay time to fill the outage window.
		p.logSend(ctx, dstRank, tag, seq, meta, data)
	}

	if p.mode == ModeMirror {
		return p.isendMirror(c, ctx, dstRank, tag, data, seq, meta)
	}

	entry := &sendEntry{ctx: ctx, tag: tag, dstRank: dstRank, seq: seq, meta: meta}
	entry.needed = entry.inline[:0]
	gate := func() bool { return len(entry.needed) == 0 }
	req := mpi.NewRequest(c, true, nil, gate)
	key := entry.key()
	for rep := 0; rep < p.layout.Degree(dstRank); rep++ {
		q := p.layout.Phys(rep, dstRank)
		switch {
		case p.inDests(dstRank, q):
			// A stale early ack from q is moot once q is a direct
			// destination (a take-over converted it while the ack was in
			// flight): drop it, or the record lingers forever.
			p.dropEarlyAck(key, q)
			if p.alive[int(q)] {
				// Piggyback trigger: acks owed to q ride just ahead of
				// this message on the same FIFO channel.
				p.flushPendingTo(q)
				pr := p.eng.Isend(q, ctx, tag, data, seq, meta)
				pr.User = entry
				req.Attach(pr)
			}
		case p.alive[int(q)]:
			// Line 9: expect an ack instead of sending directly —
			// unless it already arrived (the other world ran ahead).
			if !p.dropEarlyAck(key, q) {
				entry.needed = append(entry.needed, q)
			}
			if p.opts.SDC {
				p.sendHash(q, ctx, tag, seq, meta, data)
			}
		}
	}

	// Retain the payload until all acks arrive. Eager-sized payloads are
	// copied into a pooled buffer, recycled when the entry is released;
	// rendezvous payloads alias the application buffer, which MPI
	// semantics freeze until Wait — and Wait is gated on the acks.
	if len(entry.needed) > 0 {
		if len(data) <= p.eng.EagerLimit {
			entry.data = transport.GetBuf(len(data))
			copy(entry.data, data)
			entry.pooled = true
		} else {
			entry.data = data
		}
		p.retain[key] = entry
	}
	return req
}

// isendMirror is the MR-MPI baseline: transmit to every alive replica of
// the destination rank; no acks, no retention.
func (p *Replicated) isendMirror(c *mpi.Comm, ctx uint32, dstRank, tag int, data []byte, seq uint64, meta [4]int64) *mpi.Request {
	var preqs []*mpi.PReq
	for rep := 0; rep < p.layout.Degree(dstRank); rep++ {
		q := p.layout.Phys(rep, dstRank)
		if p.alive[int(q)] {
			preqs = append(preqs, p.eng.Isend(q, ctx, tag, data, seq, meta))
		}
	}
	return mpi.NewRequest(c, true, preqs, nil)
}

// inDests reports whether q is a direct application-message destination
// for dstRank.
func (p *Replicated) inDests(dstRank int, q transport.ProcID) bool {
	for _, d := range p.physicalDests[dstRank] {
		if d == q {
			return true
		}
	}
	return false
}

// --- Receive path ----------------------------------------------------------

// Irecv implements mpi.Protocol. Matching is logical: a receive from rank
// i accepts a message from any replica of rank i — the sequencer has
// already enforced per-rank ordering and uniqueness, so which replica
// physically delivered it is irrelevant (and changes across a failure).
func (p *Replicated) Irecv(c *mpi.Comm, ctx uint32, from mpi.Rank, tag int, buf []byte) *mpi.Request {
	if from == mpi.AnySource {
		if p.mode == ModeLeader {
			return p.finishRecv(p.irecvLeaderWildcard(c, ctx, tag, buf))
		}
		pred := func(src transport.ProcID) bool {
			return c.InComm(mpi.Rank(p.layout.RankOf(src)))
		}
		pr := p.eng.Irecv(mpi.AnyProc, pred, ctx, tag, buf)
		return p.finishRecv(mpi.NewRequest1(c, false, pr, nil))
	}
	want := int(c.BaseRank(from))
	pred := func(src transport.ProcID) bool {
		return p.layout.RankOf(src) == want
	}
	pr := p.eng.Irecv(mpi.AnyProc, pred, ctx, tag, buf)
	return p.finishRecv(mpi.NewRequest1(c, false, pr, nil))
}

// finishRecv installs the deferred-ack hook for the AckOnWait ablation.
func (p *Replicated) finishRecv(r *mpi.Request) *mpi.Request {
	if p.opts.AckOnWait && p.mode != ModeMirror {
		r.OnFinish = p.AckForRequest()
	}
	return r
}

// onArrive is the sequencer: it admits application messages into the
// matching engine in per-(ctx, source rank) sequence order, dropping
// duplicates (possible after a substitute re-send races an in-flight
// original). It always returns false because it performs the injection
// itself.
func (p *Replicated) onArrive(m *transport.Message) bool {
	srcRank := int(m.Meta[mpi.MetaSrcRank])
	rc := p.recvSeq.at(m.Ctx)
	next := rc.next[srcRank]
	switch {
	case m.Seq < next:
		p.discardDuplicate(m)
		return false
	case m.Seq > next:
		p.stash(rc, srcRank, m)
		return false
	}
	// In-order: admit m and the consecutive stashed run it unblocks in a
	// single engine injection pass.
	buf := append(p.injectBuf[:0], m)
	next++
	st := &rc.stash[srcRank]
	for st.n > 0 {
		q := st.pop(next)
		if q == nil {
			break
		}
		buf = append(buf, q)
		next++
	}
	rc.next[srcRank] = next
	if released := len(buf) - 1; released > 0 {
		gSeqStashDepth.Add(-int64(released))
	}
	p.eng.InjectMatchBatch(buf)
	// Unpin the handed-off messages: the buffer is reused across arrivals
	// and would otherwise keep pooled messages reachable.
	for i := range buf {
		buf[i] = nil
	}
	p.injectBuf = buf[:0]
	return false
}

// discardDuplicate drops a redundant copy of an already-admitted message,
// recycling its storage (this protocol owns messages it swallows in
// onArrive). Duplicate rendezvous RTSes still need their handshake
// completed, or the redundant sender's request would never finish.
func (p *Replicated) discardDuplicate(m *transport.Message) {
	if m.Kind == transport.KindRTS {
		// If the original handshake broke (sender died between RTS and
		// payload), resume it with this copy; otherwise complete the
		// redundant transfer into a sink. Either way the envelope is
		// consumed within the call.
		if !p.eng.RebindRTS(m) {
			p.eng.SinkRTS(m)
		}
	}
	transport.FreeMessage(m)
}

// stash inserts an out-of-order arrival into the rank's ring (O(1); the
// occupied-slot check doubles as duplicate detection). A duplicate of a
// stashed inherited RTS hands it its live handshake (see mpi.UnbindRTS).
func (p *Replicated) stash(rc *seqCtx, srcRank int, m *transport.Message) {
	st := &rc.stash[srcRank]
	if !st.insert(rc.next[srcRank], m) {
		if mpi.AdoptRTS(st.at(m.Seq), m) {
			transport.FreeMessage(m)
			return
		}
		p.discardDuplicate(m) // duplicate of a stashed message
		return
	}
	gSeqStashDepth.Add(1)
}

// stashTotal counts messages currently held back by the sequencer (tests
// and quiescence checks).
func (p *Replicated) stashTotal() int { return p.recvSeq.stashTotal() }

// onRecvComplete implements lines 15–17 of Algorithm 1: on the
// irecvComplete event, acknowledge the message to every other alive
// replica of the source rank. In mirror mode there are no acks. With the
// AckOnWait ablation the ack is deferred to application-level completion
// (attached in Irecv's Request via OnFinish — see sendAcksFor).
func (p *Replicated) onRecvComplete(pr *mpi.PReq) {
	if p.mode == ModeMirror {
		return
	}
	ps := pr.PStatus()
	if p.opts.SDC {
		p.recordLocalHash(ps, pr)
	}
	if p.opts.AckOnWait {
		// Ablation: do nothing now; the cluster harness arranges the
		// ack at Wait time through the request's OnFinish hook.
		return
	}
	p.sendAcksFor(ps)
}

// AckForRequest returns a closure emitting the acks for an application
// request's receptions; the harness installs it as Request.OnFinish in the
// AckOnWait ablation.
func (p *Replicated) AckForRequest() func(*mpi.Request) {
	return func(r *mpi.Request) {
		for _, ps := range r.PStatuses() {
			p.sendAcksFor(ps)
		}
	}
}

// --- Control messages ------------------------------------------------------

func (p *Replicated) onCtl(m *transport.Message) {
	switch m.Tag {
	case detect.TagFailure:
		p.onFailure(transport.ProcID(m.Meta[0]))
	case detect.TagRecovered:
		p.onRecovered(transport.ProcID(m.Meta[0]))
	case detect.TagDecision:
		p.onDecision(m)
	case detect.TagLogTruncate:
		p.onLogTruncate(m)
	}
}
