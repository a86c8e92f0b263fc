package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// The worker environment contract (the Env* names and their typed
// accessors) lives in env.go.

// formatDegrees renders a layout's degree vector for the env contract:
// comma-separated degrees, or "" for a uniform layout.
func formatDegrees(l core.Layout) string {
	ds := l.DegreeVector()
	if ds == nil {
		return ""
	}
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, ",")
}

// WorkerResult is the portable application result a distributed worker
// reports over the control plane (the cross-process counterpart of the
// in-process report's `any` result).
type WorkerResult struct {
	Checksum   float64
	Residual   float64
	Iterations int
}

// coreMode maps a protocol name to the replication scheme.
func (p Protocol) coreMode() core.Mode {
	switch p {
	case Mirror:
		return core.ModeMirror
	case Leader:
		return core.ModeLeader
	default:
		return core.ModeParallel
	}
}

// RunDistributed executes the application as real OS processes — one per
// slot of the (possibly degree-aware) layout — and returns the aggregated
// report. It runs the same recovery ladder as Run (see ladder); its
// epochs are OS processes: the coordinator spawns workers, hands out the
// rendezvous world through the registry, streams their output, SIGKILLs
// scheduled victims at their reported step boundaries, and broadcasts
// failure notifications. Config fields that only shape an in-process
// stack are rejected (see Config.unsupported).
func RunDistributed(cfg Config) *Report {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 20 * time.Second
	}
	if cfg.LogSink == nil {
		cfg.LogSink = os.Stderr
	}
	tr := obs.NewTrace()
	if err := cfg.unsupported(); err != nil {
		return rejected(cfg, tr, err)
	}
	layout, store, err := cfg.prepare()
	if err == nil && len(cfg.WorkerCmd) == 0 {
		var exe string
		if exe, err = os.Executable(); err != nil {
			err = fmt.Errorf("cluster: cannot locate worker binary: %w", err)
		}
		cfg.WorkerCmd = []string{exe}
	}
	if err != nil {
		return rejected(cfg, tr, err)
	}
	fired := make([]bool, len(cfg.Failures))
	return ladder(cfg, store, tr, func(wave, epoch int) epochEnd {
		if epoch > 0 {
			mRestarts.Inc()
		}
		ep := runDistEpoch(cfg, layout, store, fired, wave, epoch, tr)
		mEpochs.Inc()
		gEpochMillis.Set(ep.rep.Elapsed.Milliseconds())
		return ep
	})
}

// distWorker is the coordinator's handle on one spawned worker process.
type distWorker struct {
	proc      int
	rank, rep int
	cmd       *exec.Cmd
}

// procExit reports a worker process's termination.
type procExit struct {
	proc int
	code int // ExitCode(); -1 when signaled (SIGKILL)
}

// runDistEpoch spawns one full set of workers and runs the epoch's event
// loop until completion, exhaustion, or the watchdog.
func runDistEpoch(cfg Config, layout core.Layout, store *ckpt.Store, fired []bool, wave, epoch int, tr *obs.Trace) epochEnd {
	procs := layout.Procs()
	failed := func(err error, elapsed time.Duration) epochEnd {
		return epochEnd{rep: &Report{Config: cfg, Elapsed: elapsed, ReplayWave: -1, ExhaustErr: err}}
	}

	reg, err := newRegistry(procs, cfg.Ranks, store, 0)
	if err != nil {
		return failed(err, 0)
	}
	defer reg.Close()

	sink := &syncWriter{w: cfg.LogSink}
	exitCh := make(chan procExit, 4*procs)
	workers := make([]*distWorker, procs)

	// Per-epoch ring directory: colocated pairs negotiate mmap'd ring
	// files under it at rendezvous. Scoping the directory to one epoch
	// guarantees a rollback never resumes a torn ring stream — the
	// respawned world starts from empty rings.
	ringDir := ""
	if !cfg.NoRing {
		if d, err := os.MkdirTemp("", "sdr-ring-*"); err == nil {
			ringDir = d
			defer os.RemoveAll(d)
		}
	}

	// Fd-budget preflight: the coordinator holds two pipe ends and one
	// registry connection per worker, plus its listener and stdio. Raise
	// the soft RLIMIT_NOFILE toward that budget (or fail with both numbers
	// in hand) BEFORE the spawn loop — at 128–256 workers the default soft
	// limit of 1024 otherwise dies mid-spawn as EMFILE on pipe(2), which
	// presents as a half-built world instead of a clear answer.
	fdBudget := uint64(3*procs + 64)
	if limit, err := transport.EnsureFileLimit(fdBudget); err != nil {
		return failed(fmt.Errorf("cluster: fd preflight for %d workers: %w", procs, err), 0)
	} else {
		fmt.Fprintf(sink, "[coordinator] fd preflight: budget %d for %d workers, soft limit %d\n", fdBudget, procs, limit)
	}

	start := time.Now()
	for p := 0; p < procs; p++ {
		w, err := spawnWorker(cfg, reg.Addr(), layout, p, fired, wave, epoch, sink, exitCh, -1, nil, ringDir)
		if err != nil {
			// Abort the partial epoch: kill what already started.
			for _, prev := range workers {
				if prev != nil {
					_ = prev.cmd.Process.Kill()
				}
			}
			return failed(fmt.Errorf("cluster: spawn worker %d: %w", p, err), time.Since(start))
		}
		workers[p] = w
	}

	var (
		dead       = make(map[int]bool)   // exited (any reason)
		scheduled  = make(map[int]bool)   // SIGKILL sent for a fired event
		done       = make(map[int]ctlMsg) // app results
		exhausted  = false
		lostRank   = -1 // the rank that lost its last replica, once known
		timedOut   = false
		tearing    = false
		exits      = 0
		spawnTotal = procs // grows with localized relaunches
		replays    = 0
		replayWave = -1
		epWorkers  []obs.WorkerStats
	)
	logRanks := logRankVector(cfg.RecoveryMode, layout)
	maxReplays := len(cfg.Failures) + 1
	watchdog := time.NewTimer(cfg.Timeout)
	defer watchdog.Stop()
	health := time.NewTicker(time.Second)
	defer health.Stop()

	teardown := func() {
		if tearing {
			return
		}
		tearing = true
		for p, w := range workers {
			if !dead[p] {
				_ = w.cmd.Process.Kill()
			}
		}
	}
	complete := func() bool {
		for p := 0; p < procs; p++ {
			if !dead[p] {
				if _, ok := done[p]; !ok {
					return false
				}
			}
		}
		return true
	}
	// finish scrapes every live worker's /metrics — they are draining,
	// their obs servers still up — then releases them with the shutdown
	// broadcast. The scrape must come first: after shutdown the workers
	// exit and the endpoints vanish.
	finish := func() {
		tearing = true
		for p := 0; p < procs; p++ {
			if dead[p] {
				continue
			}
			w := workers[p]
			ws := obs.WorkerStats{Proc: p, Rank: w.rank, Rep: w.rep, Addr: reg.obsAddr(p)}
			if ws.Addr == "" {
				ws.Err = "no obs address published"
			} else if m, err := obs.Scrape(ws.Addr, 2*time.Second); err != nil {
				ws.Err = err.Error()
			} else {
				ws.Scraped = true
				ws.Metrics = m
			}
			epWorkers = append(epWorkers, ws)
		}
		reg.broadcast(ctlMsg{Op: opShutdown}, -1)
	}

	// relaunch attempts the localized-replay rung for a dead logging-rank
	// worker: validate the rank's newest (checkpoint, replay-state) pair
	// end to end, then respawn exactly one OS process restored from it.
	// Any failure reports false and the caller escalates to the global
	// rollback rung — fail closed, never garbage.
	relaunch := func(proc int) bool {
		rank := layout.RankOf(transport.ProcID(proc))
		if replays >= maxReplays {
			fmt.Fprintf(sink, "[coordinator] worker %d (rank %d): replay budget (%d) spent; global rollback\n", proc, rank, maxReplays)
			return false
		}
		seed, err := loadReplay(store, rank)
		if err != nil {
			fmt.Fprintf(sink, "[coordinator] worker %d (rank %d): localized replay unavailable (%v); global rollback\n", proc, rank, err)
			return false
		}
		var deadList []int
		for p := range dead {
			if dead[p] && p != proc {
				deadList = append(deadList, p)
			}
		}
		reg.forget(proc)
		w, err := spawnWorker(cfg, reg.Addr(), layout, proc, fired, wave, epoch, sink, exitCh, seed.wave, deadList, ringDir)
		if err != nil {
			fmt.Fprintf(sink, "[coordinator] relaunch worker %d: %v; global rollback\n", proc, err)
			return false
		}
		workers[proc] = w
		dead[proc] = false
		spawnTotal++
		replays++
		replayWave = seed.wave
		mReplays.Inc()
		ev := obs.Ev(obs.StageReplay,
			fmt.Sprintf("relaunched alone from wave %d; survivors replay their logs", seed.wave))
		ev.Proc, ev.Rank, ev.Wave = proc, rank, seed.wave
		tr.Emit(ev)
		fmt.Fprintf(sink, "[coordinator] worker %d (rank %d) relaunched alone from wave %d; survivors replay their logs\n", proc, rank, seed.wave)
		return true
	}

	for exits < spawnTotal {
		select {
		case ev := <-reg.events:
			if ev.kind == evExhausted && lostRank < 0 {
				// Named even mid-teardown: the reporting worker's exit may
				// have started the teardown before its message was read.
				lostRank = ev.msg.Rank
			}
			if tearing {
				continue
			}
			switch ev.kind {
			case evReady:
				// World table broadcast; workers are computing. Publish
				// where each worker's metrics live so a mid-run scraper
				// (CI smoke, an operator) can reach them.
				for p := 0; p < procs; p++ {
					if a := reg.obsAddr(p); a != "" && !dead[p] {
						w := workers[p]
						fmt.Fprintf(sink, "[coordinator] worker %d (r%d.%d) metrics at http://%s/metrics\n",
							p, w.rank, w.rep, a)
					}
				}
			case evKillMe:
				// The victim is parked at its step boundary: realize the
				// scheduled fail-stop with a real SIGKILL.
				w := workers[ev.proc]
				pev := obs.Ev(obs.StagePark, "worker parked at scheduled kill boundary")
				pev.Proc, pev.Rank, pev.Rep, pev.Step = ev.proc, w.rank, w.rep, ev.msg.Step
				tr.Emit(pev)
				for i, f := range cfg.Failures {
					if !fired[i] && f.Rank == w.rank && f.Rep == w.rep && f.AtStep == ev.msg.Step {
						fired[i] = true
						scheduled[ev.proc] = true
						_ = w.cmd.Process.Kill()
						kev := obs.Ev(obs.StageKill, "SIGKILL delivered")
						kev.Proc, kev.Rank, kev.Rep, kev.Step = ev.proc, w.rank, w.rep, ev.msg.Step
						tr.Emit(kev)
						break
					}
				}
			case evExhausted:
				exhausted = true
				teardown()
			case evDone:
				done[ev.proc] = ev.msg
				if complete() {
					finish() // workers exit on their own now
				}
			case evLost:
				// The process exit (right behind the EOF) carries the
				// classification; nothing to do here.
			}
		case ex := <-exitCh:
			exits++
			if dead[ex.proc] {
				continue
			}
			dead[ex.proc] = true
			if tearing {
				continue
			}
			if ex.code == workerExitExhausted {
				exhausted = true
				teardown()
				continue
			}
			if _, finished := done[ex.proc]; finished && ex.code == 0 {
				continue // clean exit after shutdown (rare ordering)
			}
			// A real process death — scheduled or not. Broadcast the
			// failure notification so the survivors' protocol layer can
			// substitute (or, for a logging-enabled rank, park for the
			// localized replay; or report exhaustion).
			reg.announceDead(ex.proc)
			wk := workers[ex.proc]
			dev := obs.Ev(obs.StageDetect, "worker process exited; failure broadcast to survivors")
			dev.Proc, dev.Rank, dev.Rep = ex.proc, wk.rank, wk.rep
			tr.Emit(dev)
			if rank := layout.RankOf(transport.ProcID(ex.proc)); logRanks != nil && logRanks[rank] {
				if !relaunch(ex.proc) {
					exhausted, lostRank = true, rank
					teardown()
				}
				continue
			}
			if complete() {
				finish()
			}
		case <-health.C:
			if tearing {
				continue
			}
			if p, age := reg.stalest(func(p int) bool { return !dead[p] }); p >= 0 && age > cfg.HealthTimeout {
				// Hung worker: the liveness probe treats it as failed.
				fmt.Fprintf(sink, "[coordinator] worker %d silent for %v; killing\n", p, age.Round(time.Second))
				mHealthKills.Inc()
				w := workers[p]
				kev := obs.Ev(obs.StageKill,
					fmt.Sprintf("liveness probe: control channel silent for %v", age.Round(time.Second)))
				kev.Proc, kev.Rank, kev.Rep = p, w.rank, w.rep
				tr.Emit(kev)
				_ = workers[p].cmd.Process.Kill()
			}
		case <-watchdog.C:
			timedOut = true
			teardown()
		}
	}

	elapsed := time.Since(start)
	reports := make([]ProcReport, procs)
	for p := 0; p < procs; p++ {
		w := workers[p]
		pr := ProcReport{Proc: transport.ProcID(p), Rank: w.rank, Rep: w.rep}
		if m, ok := done[p]; ok {
			pr.Result = WorkerResult{Checksum: m.Checksum, Residual: m.Residual, Iterations: m.Iterations}
			if m.Err != "" {
				pr.Err = errors.New(m.Err)
			}
		} else if scheduled[p] {
			pr.Crashed = true
		} else if !timedOut && !exhausted {
			pr.Err = errors.New("worker exited without a result")
		}
		reports[p] = pr
	}
	return epochEnd{
		rep: &Report{Config: cfg, Elapsed: elapsed, Procs: reports, TimedOut: timedOut,
			Replays: replays, ReplayWave: replayWave, Workers: epWorkers},
		exhausted: exhausted,
		rank:      lostRank,
	}
}

// spawnWorker execs one worker process with the env contract filled in and
// its output streamed line-by-line to the sink. replayWave >= 0 marks a
// localized-replay relaunch (the worker restores that wave and announces
// itself in-band); deadProcs lists workers already dead at spawn time.
func spawnWorker(cfg Config, regAddr string, layout core.Layout, proc int, fired []bool, wave, epoch int, sink io.Writer, exitCh chan<- procExit, replayWave int, deadProcs []int, ringDir string) (*distWorker, error) {
	rank := layout.RankOf(transport.ProcID(proc))
	rep := layout.RepOf(transport.ProcID(proc))

	// Steps at which this worker must park and await SIGKILL: its unfired
	// scheduled failures.
	var kills []string
	for i, f := range cfg.Failures {
		if !fired[i] && f.Rank == rank && f.Rep == rep {
			kills = append(kills, strconv.Itoa(f.AtStep))
		}
	}

	var deads []string
	for _, p := range deadProcs {
		deads = append(deads, strconv.Itoa(p))
	}
	cmd := exec.Command(cfg.WorkerCmd[0], cfg.WorkerCmd[1:]...)
	cmd.Env = append(os.Environ(), cfg.WorkerEnv...)
	cmd.Env = append(cmd.Env,
		EnvWorker+"=1",
		EnvRegistry+"="+regAddr,
		fmt.Sprintf("%s=%d", EnvProc, proc),
		fmt.Sprintf("%s=%d", EnvRanks, cfg.Ranks),
		fmt.Sprintf("%s=%d", EnvRepl, layout.R),
		EnvDegrees+"="+formatDegrees(layout),
		EnvProtocol+"="+string(cfg.Protocol),
		EnvCkptDir+"="+cfg.CheckpointDir,
		fmt.Sprintf("%s=%d", EnvWave, wave),
		fmt.Sprintf("%s=%d", EnvEpoch, epoch),
		EnvKills+"="+strings.Join(kills, ","),
		EnvRecovery+"="+string(cfg.RecoveryMode),
		fmt.Sprintf("%s=%d", EnvReplay, replayWave),
		EnvDead+"="+strings.Join(deads, ","),
		EnvRing+"="+ringDir,
	)
	prefix := fmt.Sprintf("[r%d.%d] ", rank, rep)
	stdout := &lineWriter{w: sink, prefix: prefix}
	stderr := &lineWriter{w: sink, prefix: prefix}
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &distWorker{proc: proc, rank: rank, rep: rep, cmd: cmd}
	go func() {
		_ = cmd.Wait()
		// All pipe writes have completed once Wait returns; push out any
		// final unterminated line — often the most interesting bytes of a
		// SIGKILLed worker.
		stdout.flushRemainder()
		stderr.flushRemainder()
		code := -1
		if st := cmd.ProcessState; st != nil {
			code = st.ExitCode()
		}
		exitCh <- procExit{proc: proc, code: code}
	}()
	return w, nil
}

// syncWriter serializes concurrent writers onto one sink.
type syncWriter struct {
	mu sync.Mutex // sdr:lockrank sink
	w  io.Writer  // guarded by mu
}

func (sw *syncWriter) Write(p []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Write(p)
}

// lineWriter prefixes every line of a worker's output stream, so the
// interleaved logs of r·n processes stay attributable.
type lineWriter struct {
	w      io.Writer
	prefix string
	buf    []byte
}

func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.buf = append(lw.buf, p...)
	for {
		i := bytes.IndexByte(lw.buf, '\n')
		if i < 0 {
			break
		}
		fmt.Fprintf(lw.w, "%s%s\n", lw.prefix, lw.buf[:i])
		lw.buf = lw.buf[i+1:]
	}
	return len(p), nil
}

// flushRemainder emits a final unterminated line, if any. Only safe once
// no more Writes can occur (after cmd.Wait).
func (lw *lineWriter) flushRemainder() {
	if len(lw.buf) > 0 {
		fmt.Fprintf(lw.w, "%s%s\n", lw.prefix, lw.buf)
		lw.buf = nil
	}
}
