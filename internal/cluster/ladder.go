package cluster

import (
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The launcher surface both Run (goroutine processes) and RunDistributed
// (OS processes) share: configuration checks, the recovery ladder's epoch
// loop, and the builder that stands up one physical process's stack. Each
// launcher supplies only "run one epoch from wave w".

// prepare applies the configuration rules both launchers share and opens
// the checkpoint store when one is configured.
func (c Config) prepare() (core.Layout, *ckpt.Store, error) {
	layout, err := c.layout()
	if err == nil {
		err = validateSchedule(layout, c.Failures, c.Recoveries)
	}
	if err == nil {
		err = validateRecoveryMode(c.RecoveryMode, c.Protocol, c.CheckpointDir)
	}
	if err != nil || c.CheckpointDir == "" {
		return layout, nil, err
	}
	store, err := ckpt.NewStore(c.CheckpointDir)
	return layout, store, err
}

// unsupported names the first field set that RunDistributed cannot
// honour: each shapes one goroutine's protocol stack or the simulated
// network, and no worker process receives it.
func (c Config) unsupported() error {
	for _, f := range []struct {
		set  bool
		name string
	}{
		{len(c.Recoveries) > 0, "Recoveries"},
		{c.Delay != nil, "Delay"},
		{c.EagerLimit != 0, "EagerLimit"},
		{c.AckOnWait, "AckOnWait"},
		{c.SDC, "SDC"},
		{c.NoAckCoalesce, "NoAckCoalesce"},
		{c.Corrupt, "Corrupt"},
		{c.CorruptRank != 0, "CorruptRank"},
		{c.CorruptRep != 0, "CorruptRep"},
		{c.CorruptSeq != 0, "CorruptSeq"},
		{c.TraceSends, "TraceSends"},
	} {
		if f.set {
			return fmt.Errorf("cluster: RunDistributed cannot honour Config.%s", f.name)
		}
	}
	return nil
}

// rejected is the report of a run refused before any process started.
func rejected(cfg Config, tr *obs.Trace, err error) *Report {
	return &Report{Config: cfg, RestartWave: -1, ReplayWave: -1, ExhaustErr: err, Trace: tr}
}

// epochEnd is one launcher epoch's outcome as the ladder sees it.
type epochEnd struct {
	// rep describes the epoch alone: its Elapsed, Replays and ReplayWave
	// (-1 without a replay); ExhaustErr set when the launcher failed.
	rep *Report
	// exhausted reports that some rank lost its last replica; rank names
	// it, or is -1 when the launcher could not tell which.
	exhausted bool
	rank      int
}

// ladder is the recovery ladder's epoch loop, shared by both launchers:
// run epochs from the latest committed wave until one completes. When an
// epoch ends with replication exhausted it climbs to the rollback rung —
// it needs a checkpoint store, restart budget (one more than the
// scheduled failures: one-shot event firing bounds the exhaustions, the
// budget keeps a misbehaving store from looping the launcher) and a
// committed wave — then drops the torn-down epoch's replay states and
// respawns everything from that wave. The report accumulates Elapsed,
// EpochsSec, Restarts and Replays across epochs.
func ladder(cfg Config, store *ckpt.Store, tr *obs.Trace, runEpoch func(wave, epoch int) epochEnd) *Report {
	restartWave, restarts := -1, 0
	replays, replayWave := 0, -1
	var total time.Duration
	var epochsSec []float64
	budget := len(cfg.Failures) + 1
	for {
		ep := runEpoch(restartWave, restarts)
		rep := ep.rep
		total += rep.Elapsed
		epochsSec = append(epochsSec, rep.Elapsed.Seconds())
		replays += rep.Replays
		if rep.Replays > 0 {
			replayWave = rep.ReplayWave
		}
		rep.Elapsed, rep.EpochsSec, rep.Trace = total, epochsSec, tr
		rep.Restarts, rep.RestartWave = restarts, restartWave
		rep.Replays, rep.ReplayWave = replays, replayWave
		if !ep.exhausted || rep.TimedOut || rep.ExhaustErr != nil {
			return rep
		}
		lost := "replication exhausted"
		if ep.rank >= 0 {
			lost = fmt.Sprintf("all replicas of rank %d failed", ep.rank)
		}
		fail := func(format string, args ...any) *Report {
			rep.ExhaustErr = fmt.Errorf("cluster: "+lost+format, args...)
			return rep
		}
		if store == nil {
			return fail(" and no CheckpointDir is configured for rollback")
		}
		if restarts >= budget {
			return fail("; restart budget (%d) exhausted", budget)
		}
		wave, err := store.LatestCommon(cfg.Ranks)
		if err != nil {
			return fail("; checkpoint scan: %w", err)
		}
		if wave < 0 {
			return fail(" before any committed checkpoint wave")
		}
		// Replay states are epoch-relative (sequence counters restart with
		// the fresh processes); pre-rollback mlogs must never seed a
		// localized relaunch in the new epoch. Files of waves after the
		// restart line are the torn-down epoch's: the new epoch publishes
		// its own.
		if err := store.PruneLogs(); err != nil {
			return fail("; rollback to wave %d: %w", wave, err)
		}
		if err := store.PruneAbove(wave); err != nil {
			return fail("; rollback to wave %d: %w", wave, err)
		}
		restartWave = wave
		restarts++
		ev := obs.Ev(obs.StageRollback,
			fmt.Sprintf("epoch torn down; respawning all processes from wave %d", wave))
		ev.Wave = wave
		tr.Emit(ev)
	}
}

// procSpec is everything the proc builder needs to stand up one physical
// process. A fork or a relaunch inside a rollback epoch carries the wave
// too; the builder honours replay, then fork, then the rollback wave.
type procSpec struct {
	cfg      Config
	layout   core.Layout
	nw       *transport.Network
	det      *detect.Service // nil: failure notifications arrive in-band
	id       transport.ProcID
	h        harness
	epoch    int // restart epoch (0 for the first execution)
	store    *ckpt.Store
	logRanks []bool
	rec      *trace.Recorder // send recorder (TraceSends), or nil

	replay   *replaySeed      // localized relaunch: checkpoint + replay state
	fork     *core.CloneState // §3.4 recovery: the substitute's fork...
	forkApp  []byte           // ...and its application snapshot
	rollback []byte           // rollback epoch: this rank's checkpoint at wave
	wave     int              // -1 outside a rollback epoch
}

// procEnd classifies how a process's stack and application body ended.
type procEnd struct {
	res       any
	err       error // the application's error, or an untyped panic
	crashed   bool  // the process's own fail-stop unwound it
	exhausted int   // rank that lost its last replica, or -1
}

// runStack builds one physical process from s (see buildProc), runs app on
// it and then after (when non-nil), classifying the library's typed
// unwinds: a fail-stop or an exhaustion observed while after drains the
// engine counts like one observed by app. A replay state that no longer
// restores means the localized rung is gone: it ends as exhaustion of the
// process's own rank, so the caller escalates to the global rollback.
// app is called directly rather than through a launcher's wrapper for the
// reason buildProc gives: on the churn benchmark one more frame under the
// application measurably slowed every rollback epoch's start.
func runStack(s *procSpec, app AppFunc, after func(*Env)) (end procEnd) {
	end.exhausted = -1
	defer func() {
		if r := recover(); r != nil {
			if _, ok := mpi.ErrCrashed(r); ok {
				end.crashed = true
			} else if rk, ok := mpi.ErrExhausted(r); ok {
				end.exhausted = rk
			} else {
				end.err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	env, err := buildProc(s)
	if err != nil {
		end.exhausted = s.layout.RankOf(s.id)
		return end
	}
	end.res, end.err = app(env)
	if after != nil {
		after(env)
	}
	return end
}

// buildProc stands up the stack: Env with its restored bytes, Native or
// Replicated protocol with its replay or fork state restored, the world
// communicator. It is kept out of runStack so its frame is gone before the
// application runs: every process's goroutine starts on a small stack,
// and a deeper base frame under the application makes each one grow (and
// copy) its stack once more on the way into the protocol stack.
func buildProc(s *procSpec) (*Env, error) {
	rank, rep := s.layout.RankOf(s.id), s.layout.RepOf(s.id)
	proc := mpi.NewProc(s.nw, s.id)
	if s.cfg.EagerLimit > 0 {
		proc.Engine().EagerLimit = s.cfg.EagerLimit
	}
	env := &Env{Rank: rank, Rep: rep, h: s.h, epoch: s.epoch, restoredStep: -1, store: s.store,
		logSelf: s.logRanks != nil && s.logRanks[rank]}
	switch {
	case s.replay != nil:
		// Localized relaunch: only this rank rolls back, to its own
		// newest checkpoint wave.
		env.restored, env.restoredStep = s.replay.app, s.replay.wave
	case s.fork != nil:
		env.restored = s.forkApp
	case s.wave >= 0:
		// Rollback epoch: every replica of every rank resumes from the
		// wave the ladder selected.
		env.restored, env.restoredStep = s.rollback, s.wave
	}
	var protocol mpi.Protocol
	var collSeq uint64
	if s.cfg.Protocol == Native {
		protocol = mpi.NewNative(proc)
	} else {
		rp := core.NewReplicated(proc, s.layout, s.cfg.Protocol.coreMode(), s.det, s.cfg.coreOptions(rank, rep, s.logRanks, s.rec))
		switch {
		case s.replay != nil:
			v, err := rp.RestoreReplayState(s.replay.state)
			if err != nil {
				return nil, err
			}
			collSeq = v
			// Announce the relaunch in-band; on this notification every
			// survivor that emits into world 0 re-adds this process as a
			// destination and replays its message log.
			rp.BroadcastRecovered(s.id)
		case s.fork != nil:
			rp.Restore(s.fork)
			collSeq = s.fork.CollSeq
		}
		env.proto = rp
		protocol = rp
	}
	env.World = mpi.NewWorld(proc, protocol, s.cfg.Ranks)
	env.World.SetCollSeq(collSeq)
	return env, nil
}

// coreOptions maps the protocol ablations, the SDC injection and the send
// recorder onto the replication layer's options for replica rep of rank.
func (c *Config) coreOptions(rank, rep int, logRanks []bool, rec *trace.Recorder) core.Options {
	opts := core.Options{
		AckOnWait:     c.AckOnWait,
		SDC:           c.SDC,
		NoAckCoalesce: c.NoAckCoalesce,
		LogDests:      logRanks,
	}
	if rec != nil {
		opts.SendRecorder = rec.RecordSend
	}
	if c.Corrupt && rank == c.CorruptRank && rep == c.CorruptRep {
		opts.Corrupt = func(dstRank int, seq uint64, data []byte) {
			if seq == c.CorruptSeq && len(data) > 0 {
				data[0] ^= 0xFF
			}
		}
	}
	return opts
}
