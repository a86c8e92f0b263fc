package core

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/transport"
)

// onFailure implements lines 18–35 of Algorithm 1. It runs when the
// failure detector's notification for process `dead` is processed (always
// on the owning goroutine, inside library progress).
func (p *Replicated) onFailure(dead transport.ProcID) {
	if !p.alive[int(dead)] {
		return // duplicate notification
	}
	p.alive[int(dead)] = false
	deadRank := p.layout.RankOf(dead)
	deadRep := p.layout.RepOf(dead)
	// The detail names only the dead process (not the observer), so the
	// chain render collapses N survivors' detections into one "(xN)" line.
	ev := obs.Ev(obs.StageDetect, "failure notification processed")
	ev.Proc, ev.Rank, ev.Rep = int(dead), deadRank, deadRep
	obs.DefaultTrace.Emit(ev)

	// The dead process is no longer a direct destination (lines 31–32).
	p.removeDest(deadRank, dead)
	// Pending rendezvous handshakes with the dead process will never
	// complete; cancel them so gated waits can finish.
	p.eng.CancelSendsTo(dead)

	sub := p.electSubstitute(deadRank)
	if sub < 0 && !p.LogEnabled(deadRank) {
		// Escalation point of the recovery ladder (§1, §4.1): with no
		// replica of deadRank left, no protocol — mirror included — can
		// mask the loss. Raise the typed signal; the cluster launcher
		// recovers it and rolls the whole run back to the latest
		// coordinated checkpoint wave.
		//
		// A logging-enabled rank is the exception (the ladder's middle
		// rung): its sends are logged on every sender, so the launcher
		// relaunches that rank alone from its own checkpoint while the
		// survivors park on their next dependence and replay their logs
		// on the in-band recovery notification — no global teardown.
		mpi.RaiseExhausted(deadRank)
	}

	if p.mode != ModeMirror {
		// Acks batched for the dead process would have fallen off the
		// wire; drop them.
		p.dropAcksFor(dead)
		// Stop expecting acks from the dead process (line 33).
		for key, entry := range p.retain {
			if entry.unneed(dead) && len(entry.needed) == 0 {
				p.dropRetain(key, entry)
			}
		}
		// Early acks recorded FROM the dead process can never be
		// consumed — Isend checks them only for alive destinations — so
		// without this sweep the records stay reachable forever.
		for key, ea := range p.earlyAcks {
			if ea[dead] {
				delete(ea, dead)
				if len(ea) == 0 {
					delete(p.earlyAcks, key)
				}
			}
		}

		if deadRank == p.myRank {
			// Lines 20–27: I am a replica of the failed process's rank.
			if sub == p.myRep {
				p.takeOver(deadRep)
			}
			for l := range p.substitute {
				if p.substitute[l] == deadRep {
					p.substitute[l] = sub
				}
			}
		} else if sub >= 0 && p.physicalSrc[deadRank] == dead {
			// Lines 29–30: redirect the nominal source. Matching is
			// already logical (by rank), so no PML retargeting is
			// required; this keeps the bookkeeping consistent for
			// recovery. With no substitute (a logging-enabled rank down
			// for localized replay) the nominal source stays put until
			// the rank's relaunch announces itself.
			p.physicalSrc[deadRank] = p.layout.Phys(sub, deadRank)
		}
	}

	for _, f := range p.failureHooks {
		f(dead)
	}
}

// electSubstitute deterministically picks the replica that emits messages
// on behalf of a failed one: the lowest-index alive replica of the rank
// (line 19). Every process computes the same answer from the consistent
// failure view.
func (p *Replicated) electSubstitute(rank int) int {
	for rep := 0; rep < p.layout.Degree(rank); rep++ {
		if p.alive[int(p.layout.Phys(rep, rank))] {
			return rep
		}
	}
	return -1
}

// takeOver makes this process the substitute for every world that the
// dead replica was serving (lines 22–25): its alive members become direct
// destinations, and every retained message they have not acknowledged is
// re-sent to them.
func (p *Replicated) takeOver(deadRep int) {
	mSubstitutions.Inc()
	ev := obs.Ev(obs.StageSubstitute,
		fmt.Sprintf("replica %d.%d takes over world %d", p.myRank, p.myRep, deadRep))
	ev.Proc, ev.Rank, ev.Rep = int(p.proc.ID()), p.myRank, deadRep
	obs.DefaultTrace.Emit(ev)
	for l := range p.substitute {
		if p.substitute[l] != deadRep {
			continue
		}
		for j := 0; j < p.layout.N; j++ {
			if l >= p.layout.Degree(j) {
				continue // world l has no member of rank j
			}
			q := p.layout.Phys(l, j)
			if q == p.proc.ID() || !p.alive[int(q)] {
				continue
			}
			if !p.inDests(j, q) {
				p.physicalDests[j] = append(p.physicalDests[j], q)
			}
			p.resendUnackedTo(j, q)
		}
	}
}

// resendUnackedTo re-sends, in sequence order, every retained message for
// dstRank whose ack from q is outstanding (line 24–25), and converts q
// from an expected acker into a direct destination for those entries: once
// the payload has been handed to q directly, its ack is no longer the
// deletion criterion.
func (p *Replicated) resendUnackedTo(dstRank int, q transport.ProcID) {
	var entries []*sendEntry
	for _, e := range p.retain {
		if e.dstRank == dstRank && e.needs(q) {
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
		// Copy the payload: rendezvous entries alias the application
		// buffer, which becomes writable the moment this entry converts
		// (the owner's Wait unblocks), while the re-send's own
		// rendezvous transfer may still be pending.
		p.eng.Isend(q, e.ctx, e.tag, append([]byte(nil), e.data...), e.seq, e.meta)
		e.unneed(q)
		if len(e.needed) == 0 {
			p.dropRetain(e.key(), e)
		}
	}
}

// removeDest drops q from physicalDests[rank].
func (p *Replicated) removeDest(rank int, q transport.ProcID) {
	ds := p.physicalDests[rank]
	for i, d := range ds {
		if d == q {
			p.physicalDests[rank] = append(ds[:i], ds[i+1:]...)
			return
		}
	}
}
