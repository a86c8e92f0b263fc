package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/cluster"
)

const hpccgRanks = 4

// hpccgParams returns the problem. Work is 0, so the solve is protocol
// and matching CPU rather than sleeps; the iteration count stays well
// before convergence, past which the proxy slows sharply.
func hpccgParams(tiny bool) apps.HPCCGParams {
	if tiny {
		return apps.HPCCGParams{NX: 16, NY: 16, NZ: 4, Iters: 6}
	}
	return apps.HPCCGParams{NX: 16, NY: 16, NZ: 16, Iters: 40}
}

// hpccgOrder returns the seed's stacking of the slabs: world rank r
// holds slab order[r]. Every order does the same flops and moves the same
// halos, but solves a different global problem, so each seed has its own
// checksum.
func hpccgOrder(seed uint64) []int {
	order := make([]int, hpccgRanks)
	for i := range order {
		order[i] = i
	}
	r := rng{s: seed ^ 0x68706363}
	r.shuffle(order)
	return order
}

// hpccgSolve is one fresh solve: a launch of 4 ranks that runs the proxy
// between two barriers.
type hpccgSolve struct {
	mu    sync.Mutex
	solve float64   // guarded by mu; slowest rank-0 replica, barrier to barrier
	iters []float64 // guarded by mu; µs per CG iteration on rank 0 replica 0
}

func prepareHPCCG(cfg *config, s *samples) (unitFunc, error) {
	p := hpccgParams(cfg.tiny)
	order := hpccgOrder(cfg.seed)

	run := func(proto cluster.Protocol, plant bool, tr *tracer) (*hpccgSolve, *launchClock, *cluster.Report) {
		hs := &hpccgSolve{}
		clock := startClock()
		op := tr.newOps(1)
		m := tr.startLaunch()
		rep := cluster.Run(cluster.Config{Ranks: hpccgRanks, Protocol: proto, Timeout: time.Minute}, func(env *cluster.Env) (any, error) {
			clock.entered()
			pt := tr.proc(env.Rank*2 + env.Rep)
			h := &hook{pt: pt, sends: m.sendCounter()}
			hookWorld(env, h)
			env.World.Barrier()
			clock.leftBarrier()
			c := env.World.Split(0, order[env.Rank])
			if c.Rank() == 0 && env.Rep == 0 {
				// The bottom slab posts one wildcard halo receive per
				// iteration, so the gaps between those posts are the
				// iteration times.
				var last time.Time
				h.onAnyRecv = func() {
					now := time.Now()
					if !last.IsZero() {
						hs.mu.Lock()
						hs.iters = append(hs.iters, now.Sub(last).Seconds()*1e6)
						hs.mu.Unlock()
					}
					last = now
				}
			}
			c.Barrier()
			pt.beginOp(op, "bench.solve")
			t0 := time.Now()
			res := apps.HPCCG(c, p)
			c.Barrier()
			d := time.Since(t0).Seconds()
			pt.end()
			if c.Rank() == 0 {
				hs.mu.Lock()
				hs.solve = math.Max(hs.solve, d)
				hs.mu.Unlock()
			}
			if plant && env.Rank == 0 && env.Rep == 0 {
				res.Checksum = math.Nextafter(res.Checksum, math.Inf(1))
			}
			if tr != nil {
				tr.maxVal("mpi.unexpected_hw", float64(env.World.Proc().Engine().UnexpectedHighWater()))
			}
			clock.returned()
			return res, nil
		})
		clock.finish()
		m.done(1, &rep.Stats)
		return hs, clock, rep
	}

	// check compares every process's checksum bit for bit with want.
	check := func(rep *cluster.Report, want float64) error {
		if err := rep.FirstError(); err != nil {
			return err
		}
		for _, pr := range rep.Procs {
			res, ok := pr.Result.(apps.Result)
			if !ok {
				return fmt.Errorf("rank %d rep %d returned %T", pr.Rank, pr.Rep, pr.Result)
			}
			if math.Float64bits(res.Checksum) != math.Float64bits(want) {
				return fmt.Errorf("rank %d rep %d checksum %v, reference %v", pr.Rank, pr.Rep, res.Checksum, want)
			}
		}
		return nil
	}

	// The seed's reference: a native solve, outside the timed loop. Its
	// traffic is the solve's logical payload (one message per send).
	_, _, ref := run(cluster.Native, false, nil)
	s.attempted++
	if err := ref.FirstError(); err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	want := ref.ResultOf(0, 0).(apps.Result).Checksum
	if err := check(ref, want); err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	payloadMB := payloadBytes(ref.Stats) / 1e6

	solve := func(proto cluster.Protocol, plant bool, s *samples, tr *tracer) {
		sdr := proto == cluster.SDR
		if !sdr {
			tr = nil
		}
		hs, clock, rep := run(proto, plant, tr)
		s.attempted++
		if err := check(rep, want); err != nil {
			s.fail(cfg.log, "hpccg %s: %v", proto, err)
			return
		}
		if sdr {
			s.solve = append(s.solve, hs.solve)
			s.lat = append(s.lat, hs.iters...)
			s.bw = append(s.bw, payloadMB/hs.solve)
			clock.record(s, tr, true)
			return
		}
		s.nativeSolve = append(s.nativeSolve, hs.solve)
		s.nativeLat = append(s.nativeLat, hs.iters...)
		s.nativeBW = append(s.nativeBW, payloadMB/hs.solve)
	}

	// Warm-up: one SDR solve, checked but not timed.
	warm := &samples{}
	solve(cluster.SDR, false, warm, nil)
	s.countOnly(warm)

	return func(i int, s *samples, tr *tracer) {
		plant := cfg.plant && i == 0
		if i%2 == 0 {
			solve(cluster.Native, false, s, tr)
			solve(cluster.SDR, plant, s, tr)
		} else {
			solve(cluster.SDR, plant, s, tr)
			solve(cluster.Native, false, s, tr)
		}
	}, nil
}
