package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// Message directions, mixed into each payload's stamp.
const (
	dirPing = 1
	dirPong = 2
)

const (
	tagPing = 1
	tagPong = 2
)

// payloads derives the ping-pong messages from the seed. Large messages
// are one of four seeded random blocks; the first 8 bytes of message i
// carry a stamp unique to (seed, direction, size, i), so a message
// delivered to the wrong iteration or with any byte changed fails the
// receiver's check.
type payloads struct {
	seed   uint64
	blocks [4][]byte
}

func newPayloads(seed uint64, size int) *payloads {
	p := &payloads{seed: seed}
	r := rng{s: seed ^ 0x70617966}
	for k := range p.blocks {
		b := make([]byte, size)
		for i := 0; i+8 <= size; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], r.next())
		}
		p.blocks[k] = b
	}
	return p
}

func (p *payloads) stamp(dir, size, i int) uint64 {
	return splitmix64(p.seed ^ uint64(dir)<<56 ^ uint64(size)<<24 ^ uint64(i))
}

// procBufs is one process slot's buffers, reused by every session so
// the benchmark's own allocation stays out of the measurement: private
// copies of the payload blocks (only the stamp is rewritten per message)
// and two receive buffers.
type procBufs struct {
	send [4][]byte
	recv [2][]byte
}

// maxProcs is the most processes a ping-pong session runs (2 ranks, r=2).
const maxProcs = 4

func (p *payloads) procBufs() *[maxProcs]*procBufs {
	var slots [maxProcs]*procBufs
	for i := range slots {
		pb := &procBufs{}
		for k, b := range p.blocks {
			pb.send[k] = append([]byte(nil), b...)
		}
		for k := range pb.recv {
			pb.recv[k] = make([]byte, len(p.blocks[0]))
		}
		slots[i] = pb
	}
	return &slots
}

// out returns message i of the given size and direction.
func (pb *procBufs) out(p *payloads, dir, size, i int) []byte {
	b := pb.send[i%len(pb.send)][:size]
	binary.LittleEndian.PutUint64(b, p.stamp(dir, size, i))
	return b
}

// check reports whether b is exactly message i of its size and direction.
func (p *payloads) check(b []byte, dir, i int) bool {
	size := len(b)
	if binary.LittleEndian.Uint64(b) != p.stamp(dir, size, i) {
		return false
	}
	return bytes.Equal(b[8:], p.blocks[i%len(p.blocks)][8:size])
}

// pingpong is one session of closed-loop round trips between rank 0 and
// rank 1: one message in flight, small ones for latency, then large ones
// for bandwidth (NetPIPE's measurement, Fig 7a/7b). Only the round trips
// of rank 0 replica 0 are timed; every process checks what it receives.
type pingpong struct {
	pl             *payloads
	bufs           *[maxProcs]*procBufs
	small, large   int
	nSmall, nLarge int
	// plantAt is the small-message iteration whose ping rank 0 replica 0
	// corrupts (one flipped byte), or -1.
	plantAt int
	// traceEvery samples one round trip in that many for spans.
	traceEvery int

	mu    sync.Mutex
	lat   []float64      // guarded by mu; µs one-way, per small iteration
	bw    []float64      // guarded by mu; MB/s one-way, per large iteration
	bad   map[[2]int]int // guarded by mu; (phase, iteration) → failures seen
	solve float64        // guarded by mu; slowest rank-0 replica, small-message phase
}

func newPingpong(pl *payloads, bufs *[maxProcs]*procBufs, small, large, nSmall, nLarge int) *pingpong {
	return &pingpong{
		pl: pl, bufs: bufs, small: small, large: large, nSmall: nSmall, nLarge: nLarge,
		plantAt: -1, traceEvery: 8,
		lat: make([]float64, nSmall), bw: make([]float64, nLarge),
		bad: make(map[[2]int]int),
	}
}

func (pp *pingpong) markBad(phase, i int) {
	pp.mu.Lock()
	pp.bad[[2]int{phase, i}]++
	pp.mu.Unlock()
}

// body runs the session on one process with its slot's buffers. timed
// marks rank 0 replica 0.
func (pp *pingpong) body(c *mpi.Comm, sb *procBufs, timed bool, pt *procTracer, ops uint64, clock *launchClock) {
	c.Barrier()
	clock.leftBarrier()
	// The unit timed as "solve" is the small-message phase: the 1 MiB
	// phase is bimodal under SDR on two cores and is reported as
	// bandwidth instead (README.md).
	t0 := time.Now()
	if c.Rank() == 0 {
		pp.initiate(c, sb, 0, pp.small, pp.nSmall, timed, pt, ops)
		pp.noteSolve(time.Since(t0))
		pp.initiate(c, sb, 1, pp.large, pp.nLarge, timed, pt, ops+uint64(pp.nSmall))
	} else {
		pp.respond(c, sb, 0, pp.small, pp.nSmall, pt, ops)
		pp.respond(c, sb, 1, pp.large, pp.nLarge, pt, ops+uint64(pp.nSmall))
	}
	c.Barrier()
}

// noteSolve records a rank-0 replica's small-message phase; the slowest
// replica's counts.
func (pp *pingpong) noteSolve(d time.Duration) {
	pp.mu.Lock()
	pp.solve = math.Max(pp.solve, d.Seconds())
	pp.mu.Unlock()
}

// initiate is rank 0's side: send ping i, receive pong i, check it after
// the clock stops.
func (pp *pingpong) initiate(c *mpi.Comm, sb *procBufs, phase, size, n int, timed bool, pt *procTracer, ops uint64) {
	rbuf := sb.recv[0][:size]
	for i := 0; i < n; i++ {
		out := sb.out(pp.pl, dirPing, size, i)
		planted := timed && phase == 0 && i == pp.plantAt
		if planted {
			out[size-1] ^= 0xff
		}
		sampled := pt != nil && i%pp.traceEvery == 0
		if sampled {
			pt.beginOp(ops+uint64(i), "bench.roundtrip")
		}
		t0 := time.Now()
		pt.wait(c.Isend(1, tagPing, out))
		pt.wait(c.Irecv(1, tagPong, rbuf))
		d := time.Since(t0).Seconds()
		if sampled {
			pt.end()
		}
		if planted {
			out[size-1] ^= 0xff
		}
		if !pp.pl.check(rbuf, dirPong, i) {
			pp.markBad(phase, i)
		}
		if timed {
			oneWay := d / 2
			pp.mu.Lock()
			if phase == 0 {
				pp.lat[i] = oneWay * 1e6
			} else {
				pp.bw[i] = float64(size) / oneWay / 1e6
			}
			pp.mu.Unlock()
		}
	}
}

// respond is rank 1's side: the next ping's receive is posted before the
// current one is checked, so the check stays off rank 0's clock.
func (pp *pingpong) respond(c *mpi.Comm, sb *procBufs, phase, size, n int, pt *procTracer, ops uint64) {
	rbufs := [2][]byte{sb.recv[0][:size], sb.recv[1][:size]}
	rr := c.Irecv(0, tagPing, rbufs[0])
	for i := 0; i < n; i++ {
		sampled := pt != nil && i%pp.traceEvery == 0
		if sampled {
			pt.beginOp(ops+uint64(i), "bench.roundtrip")
		}
		pt.wait(rr)
		cur := rbufs[i%2]
		pt.wait(c.Isend(0, tagPong, sb.out(pp.pl, dirPong, size, i)))
		if i+1 < n {
			rr = c.Irecv(0, tagPing, rbufs[(i+1)%2])
		}
		if sampled {
			pt.end()
		}
		if !pp.pl.check(cur, dirPing, i) {
			pp.markBad(phase, i)
		}
	}
}

// collect moves the session's good samples into s; a round trip any
// process found wrong is counted as failed and not timed.
func (pp *pingpong) collect(lat, bw *[]float64, s *samples, cfg *config, proto string) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	s.attempted += int64(pp.nSmall + pp.nLarge)
	for i, v := range pp.lat {
		if pp.bad[[2]int{0, i}] > 0 {
			s.fail(cfg.log, "%s: %d B round trip %d carried a wrong payload", proto, pp.small, i)
			continue
		}
		*lat = append(*lat, v)
	}
	for i, v := range pp.bw {
		if pp.bad[[2]int{1, i}] > 0 {
			s.fail(cfg.log, "%s: %d B round trip %d carried a wrong payload", proto, pp.large, i)
			continue
		}
		*bw = append(*bw, v)
	}
}

// ppSizes returns the small size, large size and per-session counts.
func ppSizes(tiny bool) (small, large, nSmall, nLarge int) {
	if tiny {
		return 8, 1 << 20, 40, 2
	}
	return 8, 1 << 20, 500, 8
}

// sessionFunc runs one pingpong session on some stack — SDR r=2 or
// native — and returns the traffic it put on the transport. The clock
// must be finished when it returns.
type sessionFunc func(pp *pingpong, sdr bool, tr *tracer, m *meter, ops uint64, clock *launchClock) (transport.StatsSnapshot, error)

// clusterSession runs the session under the in-process launcher.
func clusterSession(pp *pingpong, sdr bool, tr *tracer, m *meter, ops uint64, clock *launchClock) (transport.StatsSnapshot, error) {
	proto := cluster.Native
	if sdr {
		proto = cluster.SDR
	}
	rep := cluster.Run(cluster.Config{Ranks: 2, Protocol: proto, Timeout: time.Minute}, func(env *cluster.Env) (any, error) {
		clock.entered()
		pt := tr.proc(env.Rank*2 + env.Rep)
		if pt != nil {
			hookWorld(env, &hook{pt: pt, sends: m.sendCounter()})
		}
		pp.body(env.World, pp.bufs[env.Rank*2+env.Rep], env.Rank == 0 && env.Rep == 0, pt, ops, clock)
		if pt != nil {
			tr.maxVal("mpi.unexpected_hw", float64(env.World.Proc().Engine().UnexpectedHighWater()))
		}
		clock.returned()
		return nil, nil
	})
	clock.finish()
	return rep.Stats, rep.FirstError()
}

func preparePingpong(cfg *config, s *samples) (unitFunc, error) {
	return preparePingpongOn(cfg, s, clusterSession)
}

// preparePingpongOn builds a pingpong workload over the given stack: one
// native and one SDR session per unit, in alternating order so drift
// hits both alike.
func preparePingpongOn(cfg *config, s *samples, run sessionFunc) (unitFunc, error) {
	small, large, nSmall, nLarge := ppSizes(cfg.tiny)
	pl := newPayloads(cfg.seed, large)
	bufs := pl.procBufs()

	session := func(sdr, plant bool, s *samples, tr *tracer) {
		pp := newPingpong(pl, bufs, small, large, nSmall, nLarge)
		if plant {
			pp.plantAt = nSmall / 2
		}
		if !sdr {
			tr = nil // spans and counters describe the replicated stack
		}
		ops := tr.newOps(uint64(nSmall + nLarge))
		proto := "native"
		if sdr {
			proto = "sdr"
		}
		m := tr.startLaunch()
		clock := startClock()
		st, err := run(pp, sdr, tr, m, ops, clock)
		m.done(int64(nSmall+nLarge), &st)
		if err != nil {
			s.attempted += int64(nSmall + nLarge)
			s.fail(cfg.log, "%s session: %v", proto, err)
			return
		}
		if !sdr {
			pp.collect(&s.nativeLat, &s.nativeBW, s, cfg, proto)
			s.nativeSolve = append(s.nativeSolve, pp.solve)
			return
		}
		pp.collect(&s.lat, &s.bw, s, cfg, proto)
		s.solve = append(s.solve, pp.solve)
		clock.record(s, tr, true)
	}

	// Warm-up: one session of each, counted but not timed.
	warm := &samples{}
	session(false, false, warm, nil)
	session(true, false, warm, nil)
	s.countOnly(warm)

	return func(i int, s *samples, tr *tracer) {
		plant := cfg.plant && i == 0
		if i%2 == 0 {
			session(false, false, s, tr)
			session(true, plant, s, tr)
		} else {
			session(true, plant, s, tr)
			session(false, false, s, tr)
		}
	}, nil
}
