package mpi

import "fmt"

// Request is an application-level request, the object MPI_Isend/MPI_Irecv
// return. A protocol composes it from one or more PML requests plus an
// optional completion gate (SDR-MPI gates send completion on replication
// acks — §3.2: "we wait until all acks have been collected before
// completing a send request").
type Request struct {
	eng  *Engine
	comm *Comm
	send bool

	preqs []*PReq
	// inline backs preqs for the common one- and two-channel requests so
	// composing a request costs no slice allocation on the hot path.
	inline [2]*PReq
	gate   func() bool

	// OnWaitEnter is invoked when the application first waits on the
	// request (used by the ack-on-wait ablation).
	OnWaitEnter func()
	// OnFinish is invoked once, when the request completes at the
	// application level (the paper's "completed at the application
	// level", as opposed to the PML-level irecvComplete event).
	OnFinish func(*Request)

	finished bool
	status   Status
}

// Attach adds a late-bound PML request (the leader-based baseline posts a
// follower's wildcard receive only after the leader's decision arrives).
func (r *Request) Attach(p *PReq) { r.preqs = append(r.preqs, p) }

// PStatuses returns the PML statuses of all completed, non-cancelled
// receive requests underneath this request.
func (r *Request) PStatuses() []PStatus {
	var out []PStatus
	for _, p := range r.preqs {
		if !p.send && p.done && !p.cancelled {
			out = append(out, p.status)
		}
	}
	return out
}

// NewRequest assembles an application request; protocols call this. Small
// PML request sets are copied into inline storage, so the caller's slice
// does not escape.
func NewRequest(c *Comm, send bool, preqs []*PReq, gate func() bool) *Request {
	r := &Request{eng: c.proc.Engine(), comm: c, send: send, gate: gate}
	if len(preqs) <= len(r.inline) {
		r.preqs = append(r.inline[:0], preqs...)
	} else {
		r.preqs = preqs
	}
	return r
}

// NewRequest1 assembles a single-channel request without any slice
// traffic — the common case for every point-to-point operation.
func NewRequest1(c *Comm, send bool, pr *PReq, gate func() bool) *Request {
	r := &Request{eng: c.proc.Engine(), comm: c, send: send, gate: gate}
	r.inline[0] = pr
	r.preqs = r.inline[:1]
	return r
}

// ready reports whether every underlying PML request is complete and the
// protocol gate (if any) is satisfied.
func (r *Request) ready() bool {
	for _, p := range r.preqs {
		if !p.done {
			return false
		}
	}
	return r.gate == nil || r.gate()
}

// finish computes the application status after completion. OnFinish runs
// last, with the status already in place, so hooks may post-process it
// (the inter-communicator's source translation relies on this).
func (r *Request) finish() Status {
	if r.finished {
		return r.status
	}
	r.finished = true
	if !r.send {
		for _, p := range r.preqs {
			if p.cancelled {
				continue
			}
			if p.truncated {
				panic(fmt.Sprintf("mpi: truncation on receive (tag %d, %d bytes into %d buffer)",
					p.tag, p.status.Count, len(p.buf)))
			}
			ps := p.status
			r.status = Status{
				Source: r.comm.rankOf(Rank(ps.Meta[MetaSrcRank])),
				Tag:    ps.Tag,
				Count:  ps.Count,
			}
			break
		}
	}
	if r.OnFinish != nil {
		r.OnFinish(r)
	}
	return r.status
}

// Wait blocks (pumping library progress) until the request completes and
// returns its status. This is MPI_Wait. The progress loop is inlined
// (rather than passed to WaitUntil as a method-value closure) so the hot
// path allocates nothing.
func (r *Request) Wait() Status {
	if r.OnWaitEnter != nil {
		r.OnWaitEnter()
		r.OnWaitEnter = nil
	}
	e := r.eng
	for {
		e.Progress()
		done := r.ready()
		e.Flush()
		if done {
			break
		}
		if !e.ep.WaitActivity(0) {
			Crash(e.ep.ID())
		}
	}
	return r.finish()
}

// Test progresses the library once and reports whether the request has
// completed. This is MPI_Test — one of the non-deterministic completion
// calls send-determinism makes harmless.
func (r *Request) Test() (Status, bool) {
	r.eng.Progress()
	if !r.ready() {
		return Status{}, false
	}
	return r.finish(), true
}

// Done reports completion without progressing the library.
func (r *Request) Done() bool { return r.ready() }

// Waitall waits for all requests (MPI_Waitall).
func Waitall(reqs ...*Request) []Status {
	out := make([]Status, len(reqs))
	for i, r := range reqs {
		if r == nil {
			continue
		}
		out[i] = r.Wait()
	}
	return out
}

// Waitany waits until at least one request completes and returns its index
// and status (MPI_Waitany). The relative progress of requests is
// non-deterministic; under send-determinism the choice cannot leak into
// the message flow.
func Waitany(reqs ...*Request) (int, Status) {
	eng := engineOf(reqs)
	if eng == nil {
		return -1, Status{}
	}
	idx := -1
	eng.WaitUntil(func() bool {
		for i, r := range reqs {
			if r != nil && r.ready() {
				idx = i
				return true
			}
		}
		return false
	})
	return idx, reqs[idx].finish()
}

// engineOf returns the engine of the first non-nil request, or nil when
// every request is nil (MPI_REQUEST_NULL).
func engineOf(reqs []*Request) *Engine {
	for _, r := range reqs {
		if r != nil {
			return r.eng
		}
	}
	return nil
}

// Testall progresses once and reports whether all requests completed. Nil
// requests (MPI_REQUEST_NULL) count as complete.
func Testall(reqs ...*Request) bool {
	eng := engineOf(reqs)
	if eng == nil {
		return true
	}
	eng.Progress()
	for _, r := range reqs {
		if r != nil && !r.ready() {
			return false
		}
	}
	return true
}

// Testany progresses once and returns the index of a completed request, or
// -1 if none. Nil requests (MPI_REQUEST_NULL) are skipped.
func Testany(reqs ...*Request) (int, Status, bool) {
	eng := engineOf(reqs)
	if eng == nil {
		return -1, Status{}, false
	}
	eng.Progress()
	for i, r := range reqs {
		if r != nil && r.ready() {
			st := r.finish()
			return i, st, true
		}
	}
	return -1, Status{}, false
}
