package core

import (
	"bytes"
	"testing"

	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// TestForkDoesNotStealRendezvous drives a §3.4 recovery by hand, in one
// goroutine, around a rendezvous message the substitute holds unmatched
// at the fork. Layout: rank 0 = {0, 2}, rank 1 = {1, 3}. Both rank-0
// replicas send; replica 1.1 (proc 3) dies before receiving; the
// substitute 1.0 forks a replacement for it, which inherits proc 0's RTS.
// The replacement then matches the inherited RTS and its traffic is
// delivered before the substitute asks for the payload — the order in
// which a CTS from the replacement would reach proc 0 first and take the
// substitute's transfer. Both receivers must complete with the payload:
// the replacement from proc 2's replay, the substitute from its own
// handshake with proc 0. The second case delivers proc 2's replay before
// the replacement posts its receive, so the replay must be adopted by the
// still-unmatched inherited envelope rather than sunk.
func TestForkDoesNotStealRendezvous(t *testing.T) {
	for _, tc := range []struct {
		name         string
		matchInherit bool // replacement matches before the replay arrives
	}{
		{"clone-matches-first", true},
		{"replay-arrives-first", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const eager, tag = 16, 5
			layout := Layout{N: 2, R: 2}
			nw := transport.NewNetwork(layout.Procs(), nil)
			defer nw.Close()
			det := detect.NewService(nw)
			protos := make([]*Replicated, layout.Procs())
			comms := make([]*mpi.Comm, layout.Procs())
			build := func(id transport.ProcID) {
				proc := mpi.NewProc(nw, id)
				proc.Engine().EagerLimit = eager
				protos[id] = NewReplicated(proc, layout, ModeParallel, det, Options{})
				comms[id] = mpi.NewWorld(proc, protos[id], layout.N)
			}
			for id := transport.ProcID(0); id < 4; id++ {
				build(id)
			}
			// progress runs one round of each process's engine, ending
			// with the pre-block flush that ships coalesced acks.
			progress := func(ids ...transport.ProcID) {
				for _, id := range ids {
					protos[id].eng.Progress()
					protos[id].eng.Flush()
				}
			}

			payload := bytes.Repeat([]byte("sdr!"), 16) // 64 B > eager limit
			s0 := comms[0].Isend(1, tag, payload)
			s2 := comms[2].Isend(1, tag, payload)

			// 1.1 dies with proc 2's RTS unread; every survivor processes
			// the notification, and the substitute queues proc 0's RTS as
			// unexpected (no receive posted yet).
			nw.Kill(3)
			progress(0, 1, 2)

			cs := protos[1].ForkFor(3, comms[1].CollSeq())
			nw.Revive(3)
			protos[1].BroadcastRecovered(3)
			build(3)
			protos[3].Restore(cs)

			buf1, buf3 := make([]byte, len(payload)), make([]byte, len(payload))
			var r3 *mpi.Request
			if tc.matchInherit {
				// The replacement matches the inherited RTS, and proc 0
				// handles whatever it sent before the substitute asks.
				r3 = comms[3].Irecv(0, tag, buf3)
				progress(3, 0)
			} else {
				// Proc 2 processes the recovery notice and replays; the
				// replacement sees the replay before posting.
				progress(2, 3)
			}
			r1 := comms[1].Irecv(0, tag, buf1)
			if r3 == nil {
				r3 = comms[3].Irecv(0, tag, buf3)
			}
			for i := 0; i < 20 && !(r1.Done() && r3.Done() && s0.Done() && s2.Done()); i++ {
				progress(0, 1, 2, 3)
			}
			if !r1.Done() {
				t.Fatal("substitute's receive never completed: its transfer was taken")
			}
			if !r3.Done() {
				t.Fatal("replacement's receive never completed")
			}
			if !s0.Done() || !s2.Done() {
				t.Fatalf("senders not completed: %v %v", s0.Done(), s2.Done())
			}
			if !bytes.Equal(buf1, payload) || !bytes.Equal(buf3, payload) {
				t.Fatalf("payloads: substitute %q, replacement %q", buf1, buf3)
			}
			for id, p := range protos {
				if n := p.RetainedCount(); n != 0 {
					t.Errorf("proc %d: %d retained sends after quiescence", id, n)
				}
			}
		})
	}
}
