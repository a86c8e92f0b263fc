package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// ackRig is one coalescing process (rank 0, replica 0 of a 2×2 layout)
// whose acknowledgements can be read back off its peers' endpoints.
type ackRig struct {
	nw *transport.Network
	p  *Replicated
}

func newAckRig(t *testing.T, opts Options) *ackRig {
	t.Helper()
	layout := Layout{N: 2, R: 2}
	nw := transport.NewNetwork(layout.Procs(), nil)
	t.Cleanup(func() { nw.Close() })
	proc := mpi.NewProc(nw, 0)
	p := NewReplicated(proc, layout, ModeParallel, detect.NewService(nw), opts)
	if !p.coalesce {
		t.Fatal("coalescing not armed")
	}
	return &ackRig{nw: nw, p: p}
}

// shipped drains q's endpoint and returns the acknowledgement records it
// received, in arrival order, in either wire format.
func (r *ackRig) shipped(t *testing.T, q transport.ProcID) []transport.AckRec {
	t.Helper()
	var out []transport.AckRec
	for _, m := range r.nw.Endpoint(q).Drain() {
		if m.Kind != transport.KindAck {
			t.Fatalf("proc %d got a %v message, want only acks", q, m.Kind)
		}
		if m.Len() > 0 {
			recs, err := transport.DecodeAckRecs(m.Data)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, recs...)
		} else {
			out = append(out, transport.AckRec{Ctx: m.Ctx, Seq: m.Seq})
		}
		transport.FreeMessage(m)
	}
	return out
}

// checkOwed asserts the owed-list invariants: no destination listed
// twice, the listed flag agrees with list membership, and every
// destination with a non-empty batch is listed.
func (r *ackRig) checkOwed(t *testing.T) {
	t.Helper()
	seen := map[transport.ProcID]bool{}
	for _, q := range r.p.ackOwed {
		if seen[q] {
			t.Fatalf("destination %d listed twice: %v", q, r.p.ackOwed)
		}
		seen[q] = true
	}
	for i := range r.p.ackPend {
		aq, q := &r.p.ackPend[i], transport.ProcID(i)
		if aq.listed != seen[q] {
			t.Fatalf("destination %d: listed=%v but on list=%v", q, aq.listed, seen[q])
		}
		if len(aq.recs) > 0 && !aq.listed {
			t.Fatalf("destination %d owes %d acks but is not listed", q, len(aq.recs))
		}
	}
}

func wantRecs(t *testing.T, what string, got []transport.AckRec, seqs ...uint64) {
	t.Helper()
	if len(got) != len(seqs) {
		t.Fatalf("%s: shipped %v, want seqs %v", what, got, seqs)
	}
	for i, s := range seqs {
		if got[i].Ctx != 2 || got[i].Seq != s {
			t.Fatalf("%s: shipped %v, want seqs %v", what, got, seqs)
		}
	}
}

// TestAckOwedList covers every way a coalesced batch leaves the owed
// list — piggyback, full batch, age, force, and a dead-destination drop
// followed by a new batch to the same destination — and checks that each
// acknowledgement is shipped exactly once.
func TestAckOwedList(t *testing.T) {
	const delay = 20 * time.Millisecond
	r := newAckRig(t, Options{AckBatchMax: 3, AckFlushDelay: delay})
	p := r.p

	// Nothing owed: the flush returns with the list untouched.
	p.flushAcks(false)
	p.flushAcks(true)
	if len(p.ackOwed) != 0 {
		t.Fatalf("owed list %v with nothing queued", p.ackOwed)
	}

	// Piggyback: the batch leaves ahead of an application message; the
	// emptied entry is compacted away by the next flush pass.
	p.queueAck(1, 2, 10)
	p.queueAck(1, 2, 11)
	r.checkOwed(t)
	p.flushPendingTo(1)
	wantRecs(t, "piggyback", r.shipped(t, 1), 10, 11)
	r.checkOwed(t)
	p.flushAcks(false)
	if len(p.ackOwed) != 0 {
		t.Fatalf("owed list %v after the piggybacked batch, want empty", p.ackOwed)
	}

	// Full batch: the third record ships the batch at once.
	for s := uint64(20); s < 23; s++ {
		p.queueAck(3, 2, s)
		r.checkOwed(t)
	}
	wantRecs(t, "full batch", r.shipped(t, 3), 20, 21, 22)
	// A new record after the full flush reuses the listing, not a second one.
	p.queueAck(3, 2, 23)
	r.checkOwed(t)

	// Aged: a young batch stays listed through a non-forced flush and
	// ships once it is older than the flush delay.
	p.flushAcks(false)
	if got := r.shipped(t, 3); len(got) != 0 {
		t.Fatalf("young batch shipped early: %v", got)
	}
	r.checkOwed(t)
	time.Sleep(delay + 5*time.Millisecond)
	p.flushAcks(false)
	wantRecs(t, "aged", r.shipped(t, 3), 23)
	r.checkOwed(t)
	if len(p.ackOwed) != 0 {
		t.Fatalf("owed list %v after the aged flush, want empty", p.ackOwed)
	}

	// Forced: every owed batch ships regardless of age.
	p.queueAck(1, 2, 30)
	p.queueAck(3, 2, 31)
	p.flushAcks(true)
	wantRecs(t, "forced to 1", r.shipped(t, 1), 30)
	wantRecs(t, "forced to 3", r.shipped(t, 3), 31)
	if len(p.ackOwed) != 0 {
		t.Fatalf("owed list %v after a forced flush, want empty", p.ackOwed)
	}

	// Dead-destination drop, then a new batch to the same destination:
	// the dropped record never ships, the new one ships once, and the
	// destination is listed once throughout.
	p.queueAck(2, 2, 40)
	p.dropAcksFor(2)
	r.checkOwed(t)
	p.queueAck(2, 2, 41)
	r.checkOwed(t)
	if len(p.ackOwed) != 1 {
		t.Fatalf("owed list %v, want destination 2 once", p.ackOwed)
	}
	p.flushAcks(true)
	wantRecs(t, "after drop", r.shipped(t, 2), 41)
	r.checkOwed(t)
	p.flushAcks(true)
	for q := transport.ProcID(1); q < 4; q++ {
		if got := r.shipped(t, q); len(got) != 0 {
			t.Fatalf("proc %d: %v shipped twice", q, got)
		}
	}
}

// sdrRig is a 2-rank, r=2 SDR world driven from one goroutine: every
// step of a logical send is run explicitly, so no process ever blocks and
// the allocation count of one message is deterministic. Physical layout:
// rank 0 = {0, 2}, rank 1 = {1, 3}.
type sdrRig struct {
	comms [4]*mpi.Comm
}

func newSDRRig(t *testing.T) *sdrRig {
	t.Helper()
	layout := Layout{N: 2, R: 2}
	nw := transport.NewNetwork(layout.Procs(), nil)
	t.Cleanup(func() { nw.Close() })
	det := detect.NewService(nw)
	r := &sdrRig{}
	for i := range r.comms {
		proc := mpi.NewProc(nw, transport.ProcID(i))
		p := NewReplicated(proc, layout, ModeParallel, det, Options{})
		r.comms[i] = mpi.NewWorld(proc, p, layout.N)
	}
	return r
}

// send moves one 8 B logical message from rank 0 to rank 1: both rank-1
// replicas post the receive, both rank-0 replicas Isend, the receivers
// complete (queueing and, before returning, force-flushing their acks to
// the other world's sender), and the senders' ack-gated Waits complete.
func (r *sdrRig) send(buf, rbuf []byte) {
	rr1 := r.comms[1].Irecv(0, 0, rbuf)
	rr3 := r.comms[3].Irecv(0, 0, rbuf)
	s0 := r.comms[0].Isend(1, 0, buf)
	s2 := r.comms[2].Isend(1, 0, buf)
	rr1.Wait()
	rr3.Wait()
	s0.Wait()
	s2.Wait()
}

// TestSDREagerSendAllocs pins the allocation count of one steady-state
// SDR eager message (Isend + ack-gated Wait on both sender replicas, the
// matching Irecv + Wait on both receiver replicas). Per replica pair the
// send side allocates the retention entry, its gate closure, the
// application request and the PML request; the receive side the request,
// the PML request and the rank-match predicate. Payload copies,
// envelopes and drain batches come from the transport pools, the ack set
// lives inline in the retention entry, and the owed-ack list and inbound
// occupancy mask touch no map.
func TestSDREagerSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r := newSDRRig(t)
	buf, rbuf := make([]byte, 8), make([]byte, 8)
	for i := 0; i < 16; i++ { // warm pools, drain buffers and owed lists
		r.send(buf, rbuf)
	}
	got := testing.AllocsPerRun(200, func() { r.send(buf, rbuf) })
	const want = 14 // 2 × (4 send + 3 receive)
	if got > want {
		t.Fatalf("one SDR eager message costs %.1f allocations, want ≤ %d", got, want)
	}
}

// BenchmarkSDRPingPong is the core-layer twin of mpi's NetpipeSmallMsg:
// an 8 B ping-pong between two ranks replicated twice (four goroutines,
// in-process wire, no delay model), so ns/op is one replicated round trip
// and allocs/op counts every replica's protocol allocations for it.
//
// Run with:
//
//	go test ./internal/core -run '^$' -bench SDRPingPong -benchmem
func BenchmarkSDRPingPong(b *testing.B) {
	layout := Layout{N: 2, R: 2}
	nw := transport.NewNetwork(layout.Procs(), nil)
	defer nw.Close()
	det := detect.NewService(nw)
	comms := make([]*mpi.Comm, layout.Procs())
	for i := range comms {
		proc := mpi.NewProc(nw, transport.ProcID(i))
		comms[i] = mpi.NewWorld(proc, NewReplicated(proc, layout, ModeParallel, det, Options{}), layout.N)
	}
	pingPong := func(c *mpi.Comm, iters int) {
		buf := make([]byte, 8)
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 1, buf)
			} else {
				c.Recv(0, 0, buf)
				c.Send(0, 1, buf)
			}
		}
	}
	run := func(iters int) {
		var wg sync.WaitGroup
		for _, c := range comms[1:] {
			wg.Add(1)
			go func(c *mpi.Comm) {
				defer wg.Done()
				pingPong(c, iters)
			}(c)
		}
		pingPong(comms[0], iters)
		wg.Wait()
	}
	run(1) // warm-up round trip: pools, drain buffers, owed lists
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
}
