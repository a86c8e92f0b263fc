package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
)

// The paper's central implementation claim (§4.1): because the protocol
// intercepts communication at the point-to-point layer, every facility
// built on top — collectives, communicators, groups, and by extension
// everything this library added (persistent requests, derived datatypes,
// topologies, inter-communicators) — is covered with no protocol-specific
// code. These tests run each facility under every protocol and, for SDR,
// under a mid-run replica crash.

// runUnderProtocols runs app natively, then under every replication
// protocol, and requires every proc's result to equal the native result
// of its rank (compared via fmt.Sprint).
func runUnderProtocols(t *testing.T, ranks int, app AppFunc) {
	t.Helper()
	var ref *Report
	for _, proto := range []Protocol{Native, SDR, Mirror, Leader} {
		rep := Run(Config{Ranks: ranks, Protocol: proto, Timeout: 30 * time.Second}, app)
		if err := rep.FirstError(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if ref == nil {
			ref = rep
		}
		for _, p := range rep.Procs {
			want := ref.ResultOf(p.Rank, 0)
			if want == nil {
				t.Fatalf("%s rank %d: no native result", proto, p.Rank)
			}
			if fmt.Sprint(p.Result) != fmt.Sprint(want) {
				t.Errorf("%s rank %d rep %d: %v, native %v", proto, p.Rank, p.Rep, p.Result, want)
			}
		}
	}
}

// recvLayout receives a packed payload and scatters it into dst through l
// — the receiving half of an IsendLayout.
func recvLayout(c *mpi.Comm, from mpi.Rank, tag int, l mpi.Layout, dst []byte) {
	wire := make([]byte, l.PackedSize())
	c.Recv(from, tag, wire)
	l.Unpack(wire, dst)
}

func TestPersistentRequestsUnderReplication(t *testing.T) {
	runUnderProtocols(t, 3, func(env *Env) (any, error) {
		c := env.World
		n := c.Size()
		right := (c.Rank() + 1) % mpi.Rank(n)
		left := (c.Rank() - 1 + mpi.Rank(n)) % mpi.Rank(n)
		in := make([]byte, 8)
		out := make([]byte, 8)
		send := c.SendInit(right, 3, out)
		recv := c.RecvInit(left, 3, in)
		total := uint64(0)
		for i := 0; i < 12; i++ {
			out[0] = byte(int(c.Rank()) + i)
			mpi.Startall(recv, send)
			mpi.WaitallPersistent(recv, send)
			total += uint64(in[0])
		}
		return total, nil
	})
}

func TestDerivedDatatypesUnderReplication(t *testing.T) {
	runUnderProtocols(t, 2, func(env *Env) (any, error) {
		c := env.World
		// An 8x8 byte matrix; rank 0 sends a centred 4x4 block and its
		// second column; rank 1 scatters both into a blank matrix.
		block := mpi.Subarray{Sizes: []int{8, 8}, Subsizes: []int{4, 4}, Starts: []int{2, 2}, Elem: mpi.Byte}
		col := mpi.Subarray{Sizes: []int{8, 8}, Subsizes: []int{8, 1}, Starts: []int{0, 1}, Elem: mpi.Byte}
		m := make([]byte, 64)
		if c.Rank() == 0 {
			for i := range m {
				m[i] = byte(i + 1)
			}
			mpi.Waitall(c.IsendLayout(1, 1, block, m), c.IsendLayout(1, 2, col, m))
			return "sent", nil
		}
		recvLayout(c, 0, 1, block, m)
		recvLayout(c, 0, 2, col, m)
		h := 0
		for _, b := range m {
			h = h*31 + int(b)
		}
		return h, nil
	})
}

func TestCartTopologyUnderReplication(t *testing.T) {
	runUnderProtocols(t, 6, func(env *Env) (any, error) {
		c := env.World
		cart := c.CartCreate(mpi.DimsCreate(6, 2, nil), []bool{true, false})
		if cart == nil {
			return "outside", nil
		}
		// A one-value halo along each dimension (periodic, then open)
		// plus a world reduction over what arrived.
		halo := int64(0)
		for dim := 0; dim < cart.Ndims(); dim++ {
			src, dst := cart.CartShift(dim, 1)
			in := make([]byte, 8)
			st := cart.Sendrecv(dst, dim, mpi.Int64Bytes([]int64{int64(cart.Rank()) + 1}), src, dim, in)
			if st.Source != mpi.ProcNull {
				halo = halo*10 + mpi.Int64Value(in)
			}
		}
		sum := c.AllreduceInt64(halo, mpi.OpSum)
		return fmt.Sprintf("%v/%d/%d", cart.Coords(), halo, sum), nil
	})
}

func TestNonblockingCollectivesUnderReplication(t *testing.T) {
	runUnderProtocols(t, 4, func(env *Env) (any, error) {
		c := env.World
		me := int(c.Rank())
		r1, all := c.Ialltoall([]byte{byte(me), byte(me + 1), byte(me + 2), byte(me + 3)})
		r2, red := c.Ireduce(0, mpi.Int64Bytes([]int64{int64(me)}), mpi.Int64T, mpi.OpSum)
		r3, scan := c.Iscan(mpi.Int64Bytes([]int64{1}), mpi.Int64T, mpi.OpSum)
		mpi.Waitall(r1, r2, r3)
		out := fmt.Sprintf("a=%v s=%d", all, mpi.Int64Value(scan))
		if me == 0 {
			out += fmt.Sprintf(" r=%d", mpi.Int64Value(red))
		}
		return out, nil
	})
}

func TestPersistentHaloSurvivesCrash(t *testing.T) {
	// The cartstencil pattern — persistent receives + layout sends on a
	// cart topology — with a replica crash mid-run under SDR.
	app := func(env *Env) (any, error) {
		c := env.World
		cart := c.CartCreate([]int{2, 2}, []bool{true, true})
		upSrc, downDst := cart.CartShift(0, 1)
		in := make([]byte, 8)
		recv := cart.RecvInit(upSrc, 1, in)
		sum := uint64(0)
		for step := 0; step < 10; step++ {
			env.Step(step, nil)
			recv.Start()
			out := mpi.Int64Bytes([]int64{int64(int(cart.Rank())*100 + step)})
			s := cart.Isend(downDst, 1, out)
			recv.Wait()
			s.Wait()
			sum += uint64(mpi.Int64Value(in))
		}
		return sum, nil
	}
	want := Run(Config{Ranks: 4, Protocol: Native, Timeout: 30 * time.Second}, app)
	if err := want.FirstError(); err != nil {
		t.Fatal(err)
	}
	rep := Run(Config{
		Ranks: 4, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{{Rank: 1, Rep: 0, AtStep: 4}},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		wantRes := want.ResultOf(p.Rank, 0)
		if p.Result != wantRes {
			t.Errorf("rank %d rep %d: %v, want %v", p.Rank, p.Rep, p.Result, wantRes)
		}
	}
}

func TestLayoutExchangeSurvivesCrash(t *testing.T) {
	// Subarray-packed halo exchange under SDR with a crash: derived-
	// datatype payloads must replay correctly from the retention buffer.
	const edge = 8
	app := func(env *Env) (any, error) {
		c := env.World
		right := mpi.Subarray{Sizes: []int{edge, edge}, Subsizes: []int{edge, 1},
			Starts: []int{0, edge - 1}, Elem: mpi.Byte}
		left := mpi.Subarray{Sizes: []int{edge, edge}, Subsizes: []int{edge, 1},
			Starts: []int{0, 0}, Elem: mpi.Byte}
		grid := make([]byte, edge*edge)
		for i := range grid {
			grid[i] = byte(int(c.Rank())*7 + i%13)
		}
		var acc uint64
		for step := 0; step < 8; step++ {
			env.Step(step, nil)
			peer := mpi.Rank(1 - c.Rank())
			if c.Rank() == 0 {
				c.IsendLayout(peer, 1, right, grid).Wait()
				recvLayout(c, peer, 2, left, grid)
			} else {
				recvLayout(c, peer, 1, left, grid)
				c.IsendLayout(peer, 2, right, grid).Wait()
			}
			for _, b := range grid {
				acc = acc*31 + uint64(b)
			}
		}
		return acc, nil
	}
	want := Run(Config{Ranks: 2, Protocol: Native, Timeout: 30 * time.Second}, app)
	if err := want.FirstError(); err != nil {
		t.Fatal(err)
	}
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 30 * time.Second,
		Failures: []FailureEvent{{Rank: 0, Rep: 1, AtStep: 3}},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		if wantRes := want.ResultOf(p.Rank, 0); p.Result != wantRes {
			t.Errorf("rank %d rep %d: %v, want %v", p.Rank, p.Rep, p.Result, wantRes)
		}
	}
}

func TestIntercommUnderReplication(t *testing.T) {
	runUnderProtocols(t, 4, func(env *Env) (any, error) {
		c := env.World
		ga := mpi.NewGroup([]mpi.Rank{0, 2})
		gb := mpi.NewGroup([]mpi.Rank{1, 3})
		ic := c.IntercommCreate(ga, gb)
		peer := ic.LocalRank()
		buf := make([]byte, 1)
		var got int
		if int(c.Rank())%2 == 0 {
			ic.Send(peer, 7, []byte{byte(10 + ic.LocalRank())})
			st := ic.Recv(mpi.AnySource, 8, buf)
			got = int(buf[0])*100 + int(st.Source)
		} else {
			st := ic.Recv(mpi.AnySource, 7, buf)
			got = int(buf[0])*100 + int(st.Source)
			ic.Send(peer, 8, []byte{byte(20 + ic.LocalRank())})
		}
		merged := ic.Merge(int(c.Rank())%2 == 0)
		sum := merged.AllreduceInt64(int64(got), mpi.OpSum)
		return sum, nil
	})
}

func TestMirrorRendezvousFinalizeDrain(t *testing.T) {
	// Regression: under the mirror protocol, the receiver gets the same
	// rendezvous message from every sender replica. If the application
	// returns right after its last receive, the *duplicate* RTS can still
	// be in flight — the finalize drain (cluster.runState.drain) must
	// keep the engine responsive so the redundant handshake completes and
	// the other sender replica's blocking send can finish. Before the
	// drain existed this deadlocked.
	for _, size := range []int{1024, 128 << 10} { // eager and rendezvous
		rep := Run(Config{Ranks: 2, Protocol: Mirror, Timeout: 10 * time.Second},
			func(env *Env) (any, error) {
				c := env.World
				buf := make([]byte, size)
				if c.Rank() == 0 {
					buf[0] = 42
					c.Send(1, 1, buf)
					return "sent", nil
				}
				c.Recv(0, 1, buf)
				return int(buf[0]), nil
			})
		if err := rep.FirstError(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for _, p := range rep.Procs {
			if p.Rank == 1 && p.Result != 42 {
				t.Errorf("size %d: receiver got %v", size, p.Result)
			}
		}
	}
}
