package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// The churn workload: a 4-rank resumable ring with rank 1 unreplicated,
// checkpointing every churnEvery steps, run through a seeded kill
// schedule that climbs the recovery ladder: replica substitution and
// global rollback. Every kill of the unreplicated victim exhausts its
// rank, so the epoch is torn down and every process respawns from the
// latest committed wave. The localized-replay rung (RecoveryMode log) and
// §3.4 re-forks are left out because of known defects (README.md).
const (
	churnRanks  = 4
	churnVictim = 1 // the unreplicated rank: each kill is a rollback
	churnEvery  = 4
)

// churnPlan is a seed's kill schedule. Steps are grouped into checkpoint
// intervals of churnEvery steps. Intervals 0 and 1 (before a committed
// wave is certain) and the last interval hold no kill; every other
// interval holds exactly one:
//   - a kill of the victim (exhaustion → global rollback), or
//   - a kill of one replica of a replicated rank (substitution; two of
//     these, on two ranks), or
//   - a kill of the first substituted rank's surviving replica
//     (exhaustion → global rollback), right after the substitutions.
//
// One kill per interval means a rollback never re-executes a kill that
// has not fired yet, so each kill costs exactly one recovery.
type churnPlan struct {
	steps    int
	failures []cluster.FailureEvent
	victim   map[int]bool // kill steps of the victim
	exhaust  cluster.FailureEvent
}

// planChurn draws the schedule from the seed: where the three
// replicated-rank kills land, which ranks and replicas they hit, and the
// order of the victim's kill offsets inside their intervals. The offsets
// are a fixed multiset (1..every-1 in turn), so every seed re-executes
// the same number of steps.
func planChurn(seed uint64, kills int) churnPlan {
	r := rng{s: seed ^ 0x636875726e}
	intervals := kills + 3 + 3
	p := churnPlan{steps: intervals * churnEvery, victim: make(map[int]bool)}
	at := func(iv int) int { return iv*churnEvery + 1 + r.intn(churnEvery-1) }

	// The replicated-rank kills take three consecutive intervals, the
	// exhaustion last: a victim rollback in between would respawn the
	// substituted replica, and the exhaustion would be a substitution.
	first := 2 + r.intn(intervals-5)
	var victims []int
	for iv := 2; iv < intervals-1; iv++ {
		if iv < first || iv > first+2 {
			victims = append(victims, iv)
		}
	}
	replicated := []int{0, 2, 3}
	r.shuffle(replicated)
	ra, rb := replicated[0], replicated[1]
	xa, xb := r.intn(2), r.intn(2)
	subs := []cluster.FailureEvent{{Rank: ra, Rep: xa}, {Rank: rb, Rep: xb}}
	if r.intn(2) == 1 {
		subs[0], subs[1] = subs[1], subs[0]
	}
	subs[0].AtStep, subs[1].AtStep = at(first), at(first+1)
	p.exhaust = cluster.FailureEvent{Rank: ra, Rep: 1 - xa, AtStep: at(first + 2)}

	offsets := make([]int, len(victims))
	for i := range offsets {
		offsets[i] = 1 + i%(churnEvery-1)
	}
	r.shuffle(offsets)
	for i, iv := range victims {
		step := iv*churnEvery + offsets[i]
		p.victim[step] = true
		p.failures = append(p.failures, cluster.FailureEvent{Rank: churnVictim, Rep: 0, AtStep: step})
	}
	p.failures = append(p.failures, subs[0], subs[1], p.exhaust)
	return p
}

// churnRec follows one run from inside the application.
type churnRec struct {
	plan    *churnPlan
	faulted bool // the run carries the plan's failures

	mu          sync.Mutex
	entered     map[int]time.Time // guarded by mu; victim kill step → first entry
	pending     int               // guarded by mu; victim kill step awaiting recovery, -1 if none
	killAt      time.Time         // guarded by mu; entry of the latest exhausting kill step
	exhaustSeen bool              // guarded by mu
	epoch       int               // guarded by mu; newest epoch whose first step was seen
	relaunch    time.Time         // guarded by mu; entry of the victim's pending relaunch
	recovery    []float64         // guarded by mu; s, kill step entry → relaunched victim back at it
	relaunchS   []float64         // guarded by mu; s, kill step entry → relaunched victim's app entry
	reexec      []float64         // guarded by mu; s, relaunched app entry → back at the kill step
	rollback    []float64         // guarded by mu; s, exhausting kill → first step of the next epoch
	reexecN     int               // guarded by mu; victim steps re-executed
	stepT       []float64         // guarded by mu; µs between the victim's step entries
	lastStep    time.Time         // guarded by mu
}

func newChurnRec(plan *churnPlan, faulted bool) *churnRec {
	return &churnRec{plan: plan, faulted: faulted, entered: make(map[int]time.Time), pending: -1}
}

// start notes a process entering the application body.
func (cr *churnRec) start(env *cluster.Env) {
	if env.Rank != churnVictim || env.RestoredStep() < 0 {
		return
	}
	now := time.Now()
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if cr.pending >= 0 {
		cr.relaunch = now
		cr.relaunchS = append(cr.relaunchS, now.Sub(cr.entered[cr.pending]).Seconds())
		cr.reexecN += cr.pending - env.RestoredStep()
	}
	cr.lastStep = time.Time{}
}

// step notes a process reaching step s, before the harness's hook runs.
func (cr *churnRec) step(env *cluster.Env, s int) {
	now := time.Now()
	cr.mu.Lock()
	defer cr.mu.Unlock()
	if e := env.Epoch(); e > cr.epoch {
		cr.epoch = e
		cr.rollback = append(cr.rollback, now.Sub(cr.killAt).Seconds())
	}
	if !cr.faulted {
		if env.Rank == churnVictim {
			if !cr.lastStep.IsZero() {
				cr.stepT = append(cr.stepT, now.Sub(cr.lastStep).Seconds()*1e6)
			}
			cr.lastStep = now
		}
		return
	}
	ex := cr.plan.exhaust
	if env.Rank == ex.Rank && env.Rep == ex.Rep && s == ex.AtStep && !cr.exhaustSeen {
		cr.exhaustSeen = true
		cr.killAt = now
	}
	if env.Rank != churnVictim {
		return
	}
	switch {
	case s == cr.pending:
		cr.recovery = append(cr.recovery, now.Sub(cr.entered[s]).Seconds())
		cr.reexec = append(cr.reexec, now.Sub(cr.relaunch).Seconds())
		cr.pending = -1
	case cr.plan.victim[s]:
		if _, seen := cr.entered[s]; !seen {
			cr.entered[s] = now
			cr.pending = s
			cr.killAt = now
		}
	}
}

// ringValue is what rank me contributes at step i: seeded, so each seed
// has its own result.
func ringValue(seed uint64, me, i int) uint64 {
	return splitmix64(seed ^ uint64(me)<<40 ^ uint64(i))
}

// churnApp is the resumable ring: each step every rank sends a seeded
// value to its successor and adds what its predecessor sent; every
// churnEvery steps the ranks meet at a barrier and checkpoint the sum.
// A resumed process (relaunch or rollback) starts at its wave and skips
// the opening barrier, as Env.RestoredStep requires.
func churnApp(seed uint64, steps int, rec *churnRec, clock *launchClock, tr *tracer, m *meter, op uint64, plant bool) cluster.AppFunc {
	return func(env *cluster.Env) (any, error) {
		fresh := env.RestoredStep() < 0
		if fresh && env.Epoch() == 0 {
			clock.entered()
		}
		rec.start(env)
		pt := tr.proc(env.Rank*2 + env.Rep)
		if pt != nil {
			hookWorld(env, &hook{pt: pt, sends: m.sendCounter()})
		}
		c := env.World
		n, me := c.Size(), int(c.Rank())
		start := 0
		var sum uint64
		if b := env.Restored(); !fresh && len(b) == 8 {
			start = env.RestoredStep()
			sum = binary.LittleEndian.Uint64(b)
		}
		if fresh {
			c.Barrier()
			if env.Epoch() == 0 {
				clock.leftBarrier()
			}
		}
		pt.beginOp(op, "bench.run")
		sbuf, rbuf := make([]byte, 8), make([]byte, 8)
		for i := start; i < steps; i++ {
			rec.step(env, i)
			pt.step(env, i)
			binary.LittleEndian.PutUint64(sbuf, ringValue(seed, me, i))
			sr := c.Isend(mpi.Rank((me+1)%n), 0, sbuf)
			pt.wait(c.Irecv(mpi.Rank((me-1+n)%n), 0, rbuf))
			pt.wait(sr)
			sum += binary.LittleEndian.Uint64(rbuf)
			if (i+1)%churnEvery == 0 {
				c.Barrier()
				state := binary.LittleEndian.AppendUint64(nil, sum)
				if err := pt.checkpoint(env, i+1, state); err != nil {
					return nil, err
				}
			}
		}
		pt.end()
		if plant && env.Rank == 0 && env.Rep == 0 {
			sum ^= 1
		}
		clock.returned()
		return sum, nil
	}
}

func churnKills(tiny bool) int {
	if tiny {
		return 3
	}
	return 25
}

func prepareChurn(cfg *config, s *samples) (unitFunc, error) {
	plan := planChurn(cfg.seed, churnKills(cfg.tiny))
	runs := 0
	launch := func(proto cluster.Protocol, failures []cluster.FailureEvent, rec *churnRec, tr *tracer, plant bool) (*cluster.Report, *launchClock, error) {
		runs++
		dir := filepath.Join(cfg.work, fmt.Sprintf("churn-%d", runs))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
		ccfg := cluster.Config{
			Ranks: churnRanks, Protocol: proto, Timeout: time.Minute,
			CheckpointDir: dir, Failures: failures,
		}
		if proto == cluster.SDR {
			ccfg.UnreplicatedRanks = []int{churnVictim}
		}
		op := tr.newOps(1)
		m := tr.startLaunch()
		clock := startClock()
		rep := cluster.Run(ccfg, churnApp(cfg.seed, plan.steps, rec, clock, tr, m, op, plant))
		clock.finish()
		// The launcher reports traffic for the final epoch only, so the
		// run's transport counts stay out of the per-layer figures.
		m.done(1, nil)
		return rep, clock, nil
	}

	// check compares every surviving process's sum with want.
	check := func(rep *cluster.Report, want map[[2]int]uint64) error {
		if err := rep.FirstError(); err != nil {
			return err
		}
		for _, pr := range rep.Procs {
			if pr.Crashed {
				continue
			}
			got, ok := pr.Result.(uint64)
			if !ok || got != want[[2]int{pr.Rank, 0}] {
				return fmt.Errorf("rank %d rep %d computed %v, fault-free %d", pr.Rank, pr.Rep, pr.Result, want[[2]int{pr.Rank, 0}])
			}
		}
		return nil
	}

	// The seed's reference: the fault-free SDR run, outside the timed loop.
	ref, _, err := launch(cluster.SDR, nil, newChurnRec(&plan, false), nil, false)
	if err != nil {
		return nil, err
	}
	s.attempted++
	if err := ref.FirstError(); err != nil {
		return nil, fmt.Errorf("fault-free reference: %w", err)
	}
	want := make(map[[2]int]uint64)
	for rank := 0; rank < churnRanks; rank++ {
		v, ok := ref.ResultOf(rank, 0).(uint64)
		if !ok {
			return nil, fmt.Errorf("fault-free reference: rank %d returned %T", rank, ref.ResultOf(rank, 0))
		}
		want[[2]int{rank, 0}] = v
	}
	if err := check(ref, want); err != nil {
		return nil, fmt.Errorf("fault-free reference: %w", err)
	}
	var payloadMB float64

	native := func(s *samples) {
		rec := newChurnRec(&plan, false)
		rep, clock, err := launch(cluster.Native, nil, rec, nil, false)
		s.attempted++
		if err == nil {
			err = check(rep, want)
		}
		if err != nil {
			s.fail(cfg.log, "churn native: %v", err)
			return
		}
		secs := clock.done.Sub(clock.call).Seconds()
		payloadMB = payloadBytes(rep.Stats) / 1e6
		s.nativeSolve = append(s.nativeSolve, secs)
		s.nativeLat = append(s.nativeLat, rec.stepT...)
		s.nativeBW = append(s.nativeBW, payloadMB/secs)
	}

	faulted := func(s *samples, tr *tracer, plant bool) {
		rec := newChurnRec(&plan, true)
		rep, clock, err := launch(cluster.SDR, plan.failures, rec, tr, plant)
		s.attempted++
		if err == nil {
			err = check(rep, want)
		}
		if want := len(plan.victim) + 1; err == nil && (rep.Restarts != want || rep.Replays != 0) {
			err = fmt.Errorf("%d restarts and %d replays, schedule has %d and 0", rep.Restarts, rep.Replays, want)
		}
		rec.mu.Lock()
		defer rec.mu.Unlock()
		if err == nil && len(rec.recovery) != len(plan.victim) {
			err = fmt.Errorf("%d recoveries observed, schedule has %d", len(rec.recovery), len(plan.victim))
		}
		if err != nil {
			s.fail(cfg.log, "churn faulted run: %v", err)
			return
		}
		secs := clock.done.Sub(clock.call).Seconds()
		s.solve = append(s.solve, secs)
		s.bw = append(s.bw, payloadMB/secs)
		for _, v := range rec.recovery {
			s.lat = append(s.lat, v*1e6)
		}
		// Set-up counts the first epoch only: it ends in a rollback, not a
		// teardown.
		clock.record(s, tr, false)
		if tr == nil {
			return
		}
		for _, v := range rec.relaunchS {
			tr.addVal("cluster.relaunch", v)
		}
		for _, v := range rec.reexec {
			tr.addVal("core.reexec", v)
		}
		for _, v := range rec.rollback {
			tr.addVal("cluster.rollback", v)
		}
		tr.addVal("cluster.replays", float64(rep.Replays))
		tr.addVal("cluster.restarts", float64(rep.Restarts))
		tr.addVal("core.reexec_steps", float64(rec.reexecN))
	}

	// Warm-up: one native and one faulted run, checked but not timed.
	warm := &samples{}
	native(warm)
	faulted(warm, nil, false)
	s.countOnly(warm)

	return func(i int, s *samples, tr *tracer) {
		plant := cfg.plant && i == 0
		if i%2 == 0 {
			native(s)
			faulted(s, tr, plant)
		} else {
			faulted(s, tr, plant)
			native(s)
		}
	}, nil
}
