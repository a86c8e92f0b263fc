// Package cluster is the launcher: it spawns the layout's physical
// processes as goroutines (r·n under uniform replication, Σ degrees
// under a partial-replication degree vector), wires the transport, the
// failure-detection service and the chosen protocol, builds each
// process's application world (the paper's Figure 6 MPI_COMM_WORLD
// separation), and orchestrates crash injection and recovery schedules.
// It is the simulation counterpart of mpirun on the paper's 64-node
// Grid'5000 testbed.
package cluster

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Protocol selects the communication stack configuration for a run.
type Protocol string

// Available protocols.
const (
	// Native runs without replication (r is forced to 1): the baseline
	// whose wall-clock time overheads are measured against.
	Native Protocol = "native"
	// SDR is the paper's protocol (parallel scheme, leaderless).
	SDR Protocol = "sdr"
	// Mirror is the MR-MPI-style baseline.
	Mirror Protocol = "mirror"
	// Leader is the rMPI/redMPI-style semi-active baseline.
	Leader Protocol = "leader"
)

// RecoveryMode selects how the loss of a rank's LAST replica is handled —
// the shape of the recovery ladder above the substitution rung.
type RecoveryMode string

const (
	// RecoveryRollback (the default, also selected by the empty string)
	// escalates straight to the global rung: the epoch is torn down and
	// every process restarts from the latest committed checkpoint wave.
	RecoveryRollback RecoveryMode = "rollback"
	// RecoveryLog arms sender-based message logging for every degree-1
	// rank, inserting the localized-replay rung between substitution and
	// global rollback: each process copies the payloads it sends to a
	// logging-enabled rank into a per-sender log (truncated by the
	// receiver's checkpoint acknowledgements), and when such a rank dies
	// only IT is relaunched — from its own latest checkpoint plus its
	// persisted replay state — while the survivors park on their next
	// dependence and re-send from their logs. Send-determinism makes the
	// relaunched rank's regenerated messages identical, so the sequencer
	// dedup machinery absorbs every overlap. Requires Protocol SDR and a
	// CheckpointDir; if the replay state is missing or fails to decode,
	// the run falls back to the global rollback rung.
	RecoveryLog RecoveryMode = "log"
)

// FailureEvent schedules a fail-stop crash: the victim replica kills
// itself when its application reaches Step(AtStep) — under RunDistributed
// it parks there and the coordinator SIGKILLs it.
type FailureEvent struct {
	Rank, Rep int
	AtStep    int
}

// RecoveryEvent schedules the §3.4 recovery of a previously crashed
// replica, performed by its substitute when the substitute reaches
// Step(AtStep). The application must pass a snapshot function to Step.
type RecoveryEvent struct {
	Rank, Rep int
	AtStep    int
}

// Config describes one run.
type Config struct {
	Ranks       int
	Replication int // ignored (forced to 1) for Native
	Protocol    Protocol

	Delay *transport.DelayModel

	// EagerLimit overrides the eager/rendezvous switch (0 = default).
	EagerLimit int

	// AckOnWait and SDC select the protocol ablations (see core.Options).
	AckOnWait bool
	SDC       bool

	// NoAckCoalesce disables acknowledgement coalescing (see
	// core.Options.NoAckCoalesce); the default is coalescing on.
	NoAckCoalesce bool
	// Corrupt injects payload corruption on replica CorruptRep of rank
	// CorruptRank for message sequence CorruptSeq (SDC experiments).
	Corrupt     bool
	CorruptRank int
	CorruptRep  int
	CorruptSeq  uint64

	// UnreplicatedRanks lists logical ranks that run with a single
	// replica under an otherwise replicated protocol (partial
	// replication — the paper's §5 outlook). The launcher builds a
	// degree-aware layout: only the replicas that exist get physical
	// processes (a dense ID space, no phantom slots), and the world-0
	// instance serves every world through the standard substitution
	// machinery.
	UnreplicatedRanks []int

	// Degrees optionally gives every rank's replication degree
	// explicitly (len == Ranks, each in [1, Replication]); it subsumes
	// UnreplicatedRanks, which further forces the listed ranks to
	// degree 1. Nil means the uniform Replication everywhere.
	Degrees []int

	// TraceSends attaches a send-determinism recorder to every replica.
	TraceSends bool
	KeepEvents int

	Failures   []FailureEvent
	Recoveries []RecoveryEvent

	// CheckpointDir, when set, gives every process access to a shared
	// checkpoint store (Env.Checkpoint / Env.LoadCheckpoint): the
	// paper's combined replication + application-level checkpointing
	// configuration (§1, §4.1). Writes follow redundant-execution I/O
	// rules: one file per (rank, wave), published by whichever replica
	// of the rank reaches the wave first. The harness commits a wave once
	// every rank's file is in place, and prunes superseded waves.
	//
	// CheckpointDir also arms the second rung of the recovery ladder:
	// when the last replica of a rank dies, Run tears the epoch down and
	// restarts every process from the latest committed wave instead of
	// reporting a failure (see Run).
	CheckpointDir string

	// RecoveryMode picks the ladder shape above substitution: "" or
	// RecoveryRollback for global rollback only, RecoveryLog to add the
	// localized-replay rung for degree-1 ranks (see RecoveryMode).
	RecoveryMode RecoveryMode

	// Timeout is the watchdog deadline for one run epoch (default 60s
	// under Run, 2 minutes under RunDistributed).
	Timeout time.Duration

	// The process launcher's own fields, read only by RunDistributed.
	// WorkerCmd is the argv used to exec one worker (default: this
	// binary, re-entered in worker mode via the env contract); WorkerEnv
	// is extra environment for workers (application selection). LogSink
	// receives the line-prefixed stdout/stderr streams of every worker
	// (default os.Stderr).
	WorkerCmd []string
	WorkerEnv []string
	LogSink   io.Writer
	// HealthTimeout kills a worker whose control connection has been
	// silent for this long — the liveness probe backing the failure
	// detector (default 20s; workers ping every 500ms).
	HealthTimeout time.Duration
	// NoRing disables the colocated shared-memory ring transport: every
	// worker pair stays on loopback TCP. Rings are on by default — in a
	// single-host run every pair is colocated.
	NoRing bool
}

// validateRecoveryMode is the shared rule both launchers enforce: the log
// mode needs the SDR protocol (the replay argument rests on
// send-determinism and the ack/sequencer machinery) and a checkpoint
// store (the replay state rides the checkpoint waves).
func validateRecoveryMode(mode RecoveryMode, proto Protocol, ckptDir string) error {
	switch mode {
	case "", RecoveryRollback:
		return nil
	case RecoveryLog:
		if proto != SDR {
			return fmt.Errorf("cluster: RecoveryMode log requires the sdr protocol (got %q)", proto)
		}
		if ckptDir == "" {
			return fmt.Errorf("cluster: RecoveryMode log requires a CheckpointDir (the replay state rides the checkpoint waves)")
		}
		return nil
	default:
		return fmt.Errorf("cluster: unknown RecoveryMode %q (want log or rollback)", mode)
	}
}

// logRankVector marks the logical ranks running with sender-based message
// logging: every degree-1 rank when the log mode is armed, nil otherwise.
func logRankVector(mode RecoveryMode, l core.Layout) []bool {
	if mode != RecoveryLog {
		return nil
	}
	logged := make([]bool, l.N)
	any := false
	for rank := 0; rank < l.N; rank++ {
		if l.Degree(rank) == 1 {
			logged[rank] = true
			any = true
		}
	}
	if !any {
		return nil
	}
	return logged
}

func (c Config) replication() int {
	if c.Protocol == Native {
		return 1
	}
	if c.Replication <= 0 {
		return 2
	}
	return c.Replication
}

// layout builds the (possibly degree-aware) replica layout for the run.
func (c Config) layout() (core.Layout, error) {
	degrees, err := degreeVector(c.Ranks, c.replication(), c.Degrees, c.UnreplicatedRanks)
	if err != nil {
		return core.Layout{}, err
	}
	return core.NewLayout(c.Ranks, c.replication(), degrees)
}

// validateSchedule rejects failure/recovery events that target replicas
// the layout does not contain. Before the degree-aware layout this could
// not happen (every (rank, rep) with rep < r existed); now a -kill of a
// pruned replica would otherwise never fire and the run would silently
// pass without injecting anything.
func validateSchedule(l core.Layout, failures []FailureEvent, recoveries []RecoveryEvent) error {
	check := func(kind string, rank, rep int) error {
		if rank < 0 || rank >= l.N {
			return fmt.Errorf("cluster: %s event targets rank %d outside [0,%d)", kind, rank, l.N)
		}
		if rep < 0 || rep >= l.Degree(rank) {
			return fmt.Errorf("cluster: %s event targets replica %d of rank %d, which runs %d replica(s)",
				kind, rep, rank, l.Degree(rank))
		}
		return nil
	}
	for _, f := range failures {
		if err := check("failure", f.Rank, f.Rep); err != nil {
			return err
		}
	}
	for _, r := range recoveries {
		if err := check("recovery", r.Rank, r.Rep); err != nil {
			return err
		}
	}
	return nil
}

// degreeVector merges an explicit per-rank degree vector with an
// unreplicated-rank list into the form core.NewLayout takes: nil for the
// uniform degree r, else one entry per rank.
func degreeVector(ranks, r int, degrees, unreplicated []int) ([]int, error) {
	if len(degrees) == 0 && len(unreplicated) == 0 {
		return nil, nil
	}
	out := make([]int, ranks)
	if len(degrees) > 0 {
		if len(degrees) != ranks {
			return nil, fmt.Errorf("cluster: %d degrees for %d ranks", len(degrees), ranks)
		}
		copy(out, degrees)
	} else {
		for i := range out {
			out[i] = r
		}
	}
	for _, rank := range unreplicated {
		if rank < 0 || rank >= ranks {
			return nil, fmt.Errorf("cluster: unreplicated rank %d outside [0,%d)", rank, ranks)
		}
		out[rank] = 1
	}
	return out, nil
}

// harness is the launcher-side surface an Env talks back to. Two
// implementations exist: runState (the in-process goroutine launcher) and
// workerState (the distributed worker runtime, which forwards these calls
// to the coordinator over the registry control plane).
type harness interface {
	// noteCkpt records that rank's file for step is in place; the
	// harness commits the wave once every rank's is. Every replica of a
	// rank reports, so it is idempotent per (rank, step).
	noteCkpt(rank, step int) error
	// stepHook realizes the failure/recovery schedule at a step boundary.
	stepHook(e *Env, step int, snapshot func() []byte)
}

// Env is what the application function receives: its world communicator
// plus identity and harness hooks.
type Env struct {
	World *mpi.Comm
	Rank  int // logical rank
	Rep   int // replica index (0 for native)

	h            harness
	epoch        int
	proto        *core.Replicated // nil under Native
	restored     []byte
	restoredStep int // checkpoint wave of a rollback restart, -1 otherwise
	store        *ckpt.Store
	logSelf      bool // this rank persists replay state with each checkpoint
}

// Checkpoint saves the application state for this process's rank at a
// step. Under replication every replica publishes, and the first of the
// rank's replicas to reach the step writes the file; the others find it in
// place, giving exactly-once output as in redundant-execution I/O without
// making the wave wait for any one replica (ckpt.Store.Publish). Once
// every rank's file is in place, the harness stamps the wave with the
// coordinated-commit marker (and prunes superseded waves), making it
// eligible for rollback restart. Requires Config.CheckpointDir.
func (e *Env) Checkpoint(step int, data []byte) error {
	if e.store == nil {
		return fmt.Errorf("cluster: no CheckpointDir configured")
	}
	if _, err := e.store.Publish(e.Rank, step, data); err != nil {
		return err
	}
	if e.logSelf && e.proto != nil && e.isWriter() {
		// Localized-replay bookkeeping for a logging-enabled rank: persist
		// the protocol replay state next to the app checkpoint, then
		// acknowledge the wave so senders truncate their message logs.
		// The broadcast happens ONLY after both files are durable — until
		// then senders keep everything, so a capture or save failure just
		// leaves this wave replay-ineligible (and the logs longer), never
		// unsafe.
		if state, err := e.proto.CaptureReplayState(e.World.CollSeq()); err == nil {
			if err := e.store.SaveLog(e.Rank, step, state); err != nil {
				return err
			}
			e.proto.BroadcastLogTruncate()
		}
	}
	return e.h.noteCkpt(e.Rank, step)
}

// CanCheckpoint reports whether this run has a checkpoint store configured
// — applications use it to checkpoint opportunistically (every run under
// the distributed launcher has one; plain in-process runs only when
// Config.CheckpointDir is set).
func (e *Env) CanCheckpoint() bool { return e.store != nil }

// LoadCheckpoint reads this rank's checkpoint at a step.
func (e *Env) LoadCheckpoint(step int) ([]byte, error) {
	if e.store == nil {
		return nil, fmt.Errorf("cluster: no CheckpointDir configured")
	}
	return e.store.Load(e.Rank, step)
}

// LatestCheckpoint returns the newest step checkpointed by all ranks, or
// -1 (the coordinated restart line).
func (e *Env) LatestCheckpoint() (int, error) {
	if e.store == nil {
		return -1, fmt.Errorf("cluster: no CheckpointDir configured")
	}
	return e.store.LatestCommon(e.World.Size())
}

// isWriter reports whether this replica is its rank's designated writer
// of replay state (the localized-replay bookkeeping Checkpoint persists
// next to a logging-enabled rank's file): the lowest-index replica it
// believes alive.
func (e *Env) isWriter() bool {
	if e.proto == nil {
		return true
	}
	w := writerRep(e.proto.Layout(), e.Rank, e.proto.AliveView)
	if w < 0 {
		// Torn view: this replica believes no replica of its own rank is
		// alive (a transient state around recovery). Electing a writer
		// from such a view is how two concurrent writers happen — stay
		// conservative and write nothing; the commit marker keeps an
		// unwritten wave from ever being chosen for restart.
		return false
	}
	return w == e.Rep
}

// writerRep elects a rank's designated I/O writer under an alive view: the
// lowest-index replica believed alive, or -1 when the view has none.
func writerRep(l core.Layout, rank int, alive func(transport.ProcID) bool) int {
	for rep := 0; rep < l.Degree(rank); rep++ {
		if alive(l.Phys(rep, rank)) {
			return rep
		}
	}
	return -1
}

// Restored returns the application snapshot this process resumes from —
// the substitute's fork in a §3.4 recovery, or this rank's checkpoint in a
// rollback restart — or nil for a normal start.
func (e *Env) Restored() []byte { return e.restored }

// RestoredStep returns the checkpoint wave a rollback restart — or a
// localized-replay relaunch — resumed from, or -1 when this is a normal
// start. It distinguishes the launcher-seeded checkpoint bytes from a
// recovery fork's snapshot, whose format the substitute chose.
//
// Resumable applications must skip work that preceded the restored wave,
// collectives included: under a localized relaunch the survivors do NOT
// re-execute, so a resumed process that repeats a pre-restore Barrier
// (or any collective) double-counts it in the restored collective
// sequence and desynchronizes from them permanently.
func (e *Env) RestoredStep() int { return e.restoredStep }

// Epoch returns the restart epoch: 0 for the first execution, incremented
// by every full rollback restart.
func (e *Env) Epoch() int { return e.epoch }

// Replicated exposes the protocol layer for inspection (nil under Native).
func (e *Env) Replicated() *core.Replicated { return e.proto }

// Step marks an application step boundary. The harness uses it to realize
// scheduled crashes (the calling replica kills itself) and recoveries (the
// substitute forks the replacement using snapshot, which must capture the
// application state at this boundary and may be nil when no recovery is
// scheduled here). Step must be called at quiescent points: all requests
// completed.
func (e *Env) Step(step int, snapshot func() []byte) {
	if e.h == nil {
		return
	}
	e.h.stepHook(e, step, snapshot)
}

// ProcReport describes one physical process's outcome. Under partial
// replication only the replicas the degree vector names exist — the
// physical-ID space is dense, so there are no placeholder entries. Under
// RunDistributed, Result holds the worker's WorkerResult and Elapsed is
// zero.
type ProcReport struct {
	Proc    transport.ProcID
	Rank    int
	Rep     int
	Crashed bool // scheduled fail-stop realized (a SIGKILL under RunDistributed)
	Err     error
	Result  any
	Elapsed time.Duration
}

// Report aggregates a run. After a rollback restart, Procs/Stats/Recorders
// describe the final epoch (the one that ran to completion) while Elapsed
// accumulates across epochs — the restart cost is part of the run.
type Report struct {
	Config  Config
	Elapsed time.Duration
	Procs   []ProcReport
	// Stats is the in-process network's traffic (zero under
	// RunDistributed, whose workers report through Workers).
	Stats transport.StatsSnapshot
	// Recorders maps physical proc → send recorder (TraceSends runs).
	Recorders map[transport.ProcID]*trace.Recorder
	// SDCDetected sums hash mismatches across replicas (SDC runs).
	SDCDetected int
	TimedOut    bool

	// Restarts counts completed full rollback-restart cycles; RestartWave
	// is the checkpoint step the last rollback resumed from (-1 if none).
	Restarts    int
	RestartWave int
	// Replays counts localized replays: logging-enabled ranks relaunched
	// alone from their own checkpoint while the survivors kept their
	// state. ReplayWave is the wave the last such relaunch resumed from
	// (-1 if none).
	Replays    int
	ReplayWave int
	// ExhaustErr is set when the run could not go on: the configuration
	// was rejected, the process launcher failed, or replication was
	// exhausted and rollback was impossible (no store, no committed wave,
	// or the restart budget ran out).
	ExhaustErr error

	// Trace is the recovery-ladder event chain: obs.DefaultTrace under Run;
	// under RunDistributed the coordinator's own chain (park/kill/detect/
	// replay/rollback), while the workers' events surface as TRACE lines
	// in the log sink.
	Trace *obs.Trace
	// Workers holds the end-of-run /metrics scrape of every worker alive
	// when the final epoch completed (RunDistributed only).
	Workers []obs.WorkerStats
	// EpochsSec is each epoch's wall-clock duration, in order.
	EpochsSec []float64
}

// FirstError returns the first non-crash error, if any.
func (r *Report) FirstError() error {
	if r.TimedOut {
		// Report the per-epoch watchdog deadline, not Elapsed: after a
		// rollback restart, Elapsed accumulates across epochs while the
		// watchdog fired within the final one.
		return fmt.Errorf("cluster: run timed out after %v", r.Config.Timeout)
	}
	if r.ExhaustErr != nil {
		return r.ExhaustErr
	}
	for _, p := range r.Procs {
		if p.Err != nil {
			return fmt.Errorf("proc %d (rank %d rep %d): %w", p.Proc, p.Rank, p.Rep, p.Err)
		}
	}
	return nil
}

// ResultOf returns the result of replica rep of rank.
func (r *Report) ResultOf(rank, rep int) any {
	for _, p := range r.Procs {
		if p.Rank == rank && p.Rep == rep {
			return p.Result
		}
	}
	return nil
}

// AppFunc is the application: an SPMD body run by every replica of every
// rank. Its result lands in the report.
type AppFunc func(env *Env) (any, error)

// firedSet tracks which scheduled failure events have been realized. It is
// shared across restart epochs: an injected crash is a physical event that
// happened once — rolling the application back does not resurrect it — so
// a restarted epoch must not re-kill the same replicas and loop forever.
type firedSet struct {
	mu sync.Mutex   // sdr:lockrank fired
	m  map[int]bool // guarded by mu
}

// fire marks event i as realized, reporting whether this call was the one
// that fired it.
func (f *firedSet) fire(i int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m[i] {
		return false
	}
	f.m[i] = true
	return true
}

// runState is the shared coordination state of one run epoch.
type runState struct {
	cfg    Config
	layout core.Layout
	nw     *transport.Network
	det    *detect.Service
	app    AppFunc

	store *ckpt.Store
	fired *firedSet

	// logRanks marks the ranks under sender-based message logging (nil
	// unless Config.RecoveryMode is log and the layout has degree-1
	// ranks); timedOut flags the watchdog teardown so a crash unwind
	// during it is not mistaken for a replayable death.
	logRanks []bool
	timedOut atomic.Bool

	// Rollback seeding: restart[rank] is the checkpoint every replica of
	// rank resumes from in this epoch; restartWave is its step (-1 on the
	// first epoch). epoch counts restarts.
	restart     [][]byte
	restartWave int
	epoch       int

	mu         sync.Mutex                           // sdr:lockrank runstate
	recovered  map[int]bool                         // guarded by mu; recovery event index → done
	ckptSaved  map[int]map[int]bool                 // guarded by mu; step → set of ranks whose file is in place
	reports    []ProcReport                         // guarded by mu
	recorders  map[transport.ProcID]*trace.Recorder // guarded by mu
	wg         sync.WaitGroup
	sdcTotal   int // guarded by mu
	replays    int // guarded by mu; completed localized relaunches this epoch
	replayWave int // guarded by mu; wave of the last localized relaunch

	// exhaustedRank+1 of the first rank observed to lose its last
	// replica; 0 while replication still holds.
	exhausted atomic.Int64

	// spawned counts launched processes; appDone counts those whose
	// application body has returned (or unwound). Their difference
	// drives the finalize drain (see drain).
	spawned atomic.Int64
	appDone atomic.Int64
}

// noteCkpt records that rank's file for step is in place; when every
// rank's is, the wave is committed and superseded waves are pruned. A
// repeated report for the same (rank, step) — the rank's other replicas —
// changes nothing.
func (rs *runState) noteCkpt(rank, step int) error {
	rs.mu.Lock()
	saved := rs.ckptSaved[step]
	if saved == nil {
		saved = make(map[int]bool)
		rs.ckptSaved[step] = saved
	}
	complete := !saved[rank] && len(saved)+1 == rs.cfg.Ranks
	saved[rank] = true
	rs.mu.Unlock()
	if !complete {
		return nil
	}
	if err := rs.store.Commit(step); err != nil {
		return err
	}
	return rs.store.Prune(step)
}

// noteExhausted records the first replication-exhaustion observation and
// tears the epoch down: every process is killed so compute-bound survivors
// unwind promptly, exactly like the watchdog path. Run then escalates to a
// rollback restart (or reports the failure when no checkpoint exists).
func (rs *runState) noteExhausted(rank int) {
	if !rs.exhausted.CompareAndSwap(0, int64(rank)+1) {
		return
	}
	for i := 0; i < rs.layout.Procs(); i++ {
		rs.nw.Kill(transport.ProcID(i))
	}
}

// exhaustedRank returns the rank that lost its last replica this epoch, or
// -1 while replication still holds.
func (rs *runState) exhaustedRank() int {
	return int(rs.exhausted.Load()) - 1
}

// logEnabled reports whether rank runs under sender-based message logging.
func (rs *runState) logEnabled(rank int) bool {
	return rs.logRanks != nil && rs.logRanks[rank]
}

// replaySeed carries everything a localized relaunch restores: the rank's
// own newest checkpoint wave, its application state, and its encoded
// protocol replay state.
type replaySeed struct {
	wave  int
	app   []byte
	state []byte
}

// loadReplay loads rank's newest replay-eligible wave from the store,
// validating the replay state end to end — the shared pre-flight of both
// launchers' localized relaunch. Only the NEWEST (checkpoint, mlog) pair
// is ever usable: the rank's last checkpoint acknowledgement already
// truncated the senders' logs up to it, so any failure here means the
// localized rung is gone and the caller must fall back to a global
// rollback.
func loadReplay(store *ckpt.Store, rank int) (*replaySeed, error) {
	if store == nil {
		return nil, fmt.Errorf("cluster: no checkpoint store for localized replay")
	}
	wave, err := store.LatestLog(rank)
	if err != nil {
		return nil, err
	}
	if wave < 0 {
		return nil, fmt.Errorf("cluster: rank %d has no replay-eligible checkpoint wave", rank)
	}
	app, err := store.Load(rank, wave)
	if err != nil {
		return nil, err
	}
	state, err := store.LoadLog(rank, wave)
	if err != nil {
		return nil, err
	}
	if err := core.ValidateReplayState(state); err != nil {
		return nil, err
	}
	return &replaySeed{wave: wave, app: app, state: state}, nil
}

// relaunchLogged performs the localized-replay rung for the dead process
// of a logging-enabled rank: load its newest checkpoint + replay state,
// revive its network endpoint, and run it again. The survivors replay
// their message logs when the relaunched process announces itself. Any
// load or decode failure fails closed into the global-rollback rung. The
// caller has already reserved the wg/spawned slot this (re)run consumes.
func (rs *runState) relaunchLogged(dead transport.ProcID) {
	rank := rs.layout.RankOf(dead)
	bail := func() {
		rs.finish()
		rs.wg.Done()
	}
	seed, err := loadReplay(rs.store, rank)
	if err != nil {
		// Record the exhaustion BEFORE releasing the reserved WaitGroup
		// slot: the release may be the epoch's last, and Run must observe
		// the escalation when the epoch drains.
		rs.noteExhausted(rank)
		bail()
		return
	}
	if rs.exhausted.Load() != 0 || rs.timedOut.Load() {
		bail() // the epoch is being torn down; don't revive into it
		return
	}
	rs.mu.Lock()
	rs.replays++
	rs.replayWave = seed.wave
	rs.mu.Unlock()
	rev := obs.Ev(obs.StageReplay,
		fmt.Sprintf("relaunched alone from wave %d; survivors replay their logs", seed.wave))
	rev.Proc, rev.Rank, rev.Wave = int(dead), rank, seed.wave
	obs.DefaultTrace.Emit(rev)
	rs.nw.Revive(dead)
	s := rs.spec(dead)
	s.replay = seed
	rs.runProc(s, true)
}

// Run executes the application under the configured protocol, one
// goroutine per physical process, and returns the aggregated report. It
// implements the full recovery ladder (see ladder): replica substitution
// absorbs individual crashes inside an epoch; when the last replica of a
// rank dies the epoch is torn down and — if a committed checkpoint wave
// exists — every process is respawned on a fresh network with
// Env.Restored seeded from that wave, repeating until the application
// completes. Scheduled crashes fire at most once across epochs.
func Run(cfg Config, app AppFunc) *Report {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	layout, store, err := cfg.prepare()
	if err != nil {
		return rejected(cfg, obs.DefaultTrace, err)
	}
	fired := &firedSet{m: make(map[int]bool)}
	return ladder(cfg, store, obs.DefaultTrace, func(wave, epoch int) epochEnd {
		return runOnce(cfg, layout, app, store, fired, wave, epoch)
	})
}

// runOnce executes one epoch from restart wave `wave` (-1: a fresh start):
// seed, spawn, watchdog, aggregate.
func runOnce(cfg Config, layout core.Layout, app AppFunc, store *ckpt.Store, fired *firedSet, wave, epoch int) epochEnd {
	var restart [][]byte
	if wave >= 0 {
		restart = make([][]byte, cfg.Ranks)
		for rank := range restart {
			b, err := store.Load(rank, wave)
			if err != nil {
				return epochEnd{rep: &Report{Config: cfg, ReplayWave: -1,
					ExhaustErr: fmt.Errorf("cluster: rollback to wave %d: %w", wave, err)}}
			}
			restart[rank] = b
		}
	}
	nw := transport.NewNetwork(layout.Procs(), cfg.Delay)
	defer nw.Close()

	rs := &runState{
		cfg:         cfg,
		layout:      layout,
		nw:          nw,
		det:         detect.NewService(nw),
		app:         app,
		store:       store,
		fired:       fired,
		restart:     restart,
		restartWave: wave,
		epoch:       epoch,
		recovered:   make(map[int]bool),
		ckptSaved:   make(map[int]map[int]bool),
		reports:     make([]ProcReport, layout.Procs()),
		recorders:   make(map[transport.ProcID]*trace.Recorder),
		logRanks:    logRankVector(cfg.RecoveryMode, layout),
		replayWave:  -1,
	}

	// Partial replication needs no special casing here: the degree-aware
	// layout's physical-ID space is dense, so every ID names a process
	// that really exists and the spawn loop launches exactly Σ degrees
	// goroutines — no phantom slots, reports, or detector traffic.
	start := time.Now()
	for i := 0; i < layout.Procs(); i++ {
		rs.wg.Add(1)
		rs.spawned.Add(1)
		go rs.runProc(rs.spec(transport.ProcID(i)), false)
	}

	done := make(chan struct{})
	go func() {
		rs.wg.Wait()
		close(done)
	}()
	timedOut := false
	select {
	case <-done:
	case <-time.After(cfg.Timeout):
		timedOut = true
		rs.timedOut.Store(true)
		for i := 0; i < layout.Procs(); i++ {
			nw.Kill(transport.ProcID(i))
		}
		<-done
	}
	elapsed := time.Since(start)

	rs.mu.Lock()
	defer rs.mu.Unlock()
	return epochEnd{
		rep: &Report{
			Config:      cfg,
			Elapsed:     elapsed,
			Procs:       append([]ProcReport(nil), rs.reports...),
			Stats:       nw.Stats().Snapshot(),
			Recorders:   rs.recorders,
			SDCDetected: rs.sdcTotal,
			TimedOut:    timedOut,
			Replays:     rs.replays,
			ReplayWave:  rs.replayWave,
		},
		exhausted: rs.exhausted.Load() != 0,
		rank:      rs.exhaustedRank(),
	}
}

// spec is the proc-builder input for process id in this epoch: a fresh
// start, or the epoch's rollback checkpoint when it restarts from a wave.
func (rs *runState) spec(id transport.ProcID) *procSpec {
	s := &procSpec{cfg: rs.cfg, layout: rs.layout, nw: rs.nw, det: rs.det, id: id,
		h: rs, epoch: rs.epoch, store: rs.store, logRanks: rs.logRanks, wave: -1}
	if rs.restart != nil {
		s.rollback, s.wave = rs.restart[rs.layout.RankOf(id)], rs.restartWave
	}
	if rs.cfg.TraceSends && rs.cfg.Protocol != Native {
		s.rec = trace.NewRecorder(rs.cfg.KeepEvents)
		rs.mu.Lock()
		rs.recorders[id] = s.rec
		rs.mu.Unlock()
	}
	return s
}

// runProc is one physical process's lifetime. A recovered (forked) or
// relaunched replica — extra — reports alongside, not instead of, its
// crashed predecessor.
func (rs *runState) runProc(s *procSpec, extra bool) {
	defer rs.wg.Done()
	pr := ProcReport{Proc: s.id, Rank: rs.layout.RankOf(s.id), Rep: rs.layout.RepOf(s.id)}
	start := time.Now()

	var once sync.Once
	markDone := func() { once.Do(rs.finish) }
	end := runStack(s, rs.app, func(env *Env) {
		if env.proto != nil && env.proto.SDCDetected() > 0 {
			rs.mu.Lock()
			rs.sdcTotal += env.proto.SDCDetected()
			rs.mu.Unlock()
		}
		markDone()
		drain(env.World.Proc(), rs.allDone)
	})
	pr.Result, pr.Err, pr.Crashed = end.res, end.err, end.crashed
	switch {
	case end.crashed && rs.logEnabled(pr.Rank) && rs.exhausted.Load() == 0 && !rs.timedOut.Load():
		// The middle rung: a logging-enabled rank died. Reserve the
		// relaunch slot before this process releases its own, so the
		// epoch's WaitGroup can never drain in between, and relaunch it
		// alone — the survivors keep their state and replay their logs.
		rs.wg.Add(1)
		rs.spawned.Add(1)
		go rs.relaunchLogged(s.id)
	case end.exhausted >= 0:
		// Not an application error: the recovery ladder's second rung.
		// Record it for the launcher, which tears this epoch down and
		// escalates to a rollback restart.
		rs.noteExhausted(end.exhausted)
	}
	markDone()
	pr.Elapsed = time.Since(start)
	rs.mu.Lock()
	if extra {
		rs.reports = append(rs.reports, pr)
	} else {
		rs.reports[int(s.id)] = pr
	}
	rs.mu.Unlock()
}

// allDone is the in-process drain's stop condition: every launched
// process has finished its application body (or crashed).
func (rs *runState) allDone() bool { return rs.appDone.Load() >= rs.spawned.Load() }

// finish counts one more process whose application body has returned (or
// unwound, or whose relaunch bailed). The call that makes allDone true
// wakes every endpoint, so each drain parked in WaitUntil re-checks it at
// once: finalize is event-driven, with no timer floor.
func (rs *runState) finish() {
	rs.appDone.Add(1)
	if rs.allDone() {
		for i := 0; i < rs.nw.Size(); i++ {
			rs.nw.Endpoint(transport.ProcID(i)).Wake()
		}
	}
}

// drain keeps the engine responsive after the application body returns —
// the role MPI_Finalize's implicit synchronization plays in real MPI. A
// peer may still need this process's cooperation to finish: most notably,
// a mirror-protocol rendezvous duplicate arriving after this process's
// last receive needs its CTS/sink handshake, which only engine progress
// provides. The drain ends once done reports true — every launched
// process has finished (or crashed), or the coordinator's shutdown came —
// or when this process itself is killed. It is event-driven: between
// progress rounds it parks until a message arrives or whoever makes done
// true wakes the endpoint, and done must therefore be a level the waker
// sets before its Endpoint.Wake.
func drain(proc *mpi.Proc, done func() bool) {
	eng := proc.Engine()
	ep := eng.Endpoint()
	for !done() {
		if ep.Crashed() {
			return
		}
		eng.Progress()
		// Owed acks and staged frames go out before parking, as in every
		// blocking wait: a peer still in its application may need them.
		eng.Flush()
		ep.WaitUntil(done)
	}
	// One final sweep for anything that raced the last counter update.
	eng.Progress()
}

// stepHook realizes the failure/recovery schedule at an application step
// boundary.
func (rs *runState) stepHook(e *Env, step int, snapshot func() []byte) {
	// Crash injection: the victim kills itself (fail-stop). The network
	// kill triggers the detector broadcast; the panic unwinds the app.
	// Each event fires at most once across restart epochs — a crash is a
	// physical event that rollback does not replay.
	for i, f := range rs.cfg.Failures {
		if f.Rank == e.Rank && f.Rep == e.Rep && f.AtStep == step && rs.fired.fire(i) {
			self := rs.layout.Phys(e.Rep, e.Rank)
			kev := obs.Ev(obs.StageKill, "fail-stop crash injected")
			kev.Proc, kev.Rank, kev.Rep, kev.Step = int(self), e.Rank, e.Rep, step
			obs.DefaultTrace.Emit(kev)
			rs.nw.Kill(self)
			mpi.Crash(self)
		}
	}
	// Recovery: performed by the substitute of the dead replica.
	for i, rec := range rs.cfg.Recoveries {
		if rec.AtStep != step || e.proto == nil {
			continue
		}
		dead := rs.layout.Phys(rec.Rep, rec.Rank)
		if e.Rank != rec.Rank || e.Rep == rec.Rep {
			continue // only a same-rank survivor can fork
		}
		if e.proto.AliveView(dead) {
			continue // not dead (yet): nothing to recover
		}
		rs.mu.Lock()
		already := rs.recovered[i]
		if !already {
			rs.recovered[i] = true
		}
		rs.mu.Unlock()
		if already {
			continue
		}
		if snapshot == nil {
			panic("cluster: recovery scheduled at a step with no snapshot function")
		}
		// §3.4: fork, revive, notify — in this order, with no sends in
		// between on the substitute. The fork carries the world's
		// collective sequence so the replacement's next collective lines
		// up with the survivors'.
		s := rs.spec(dead)
		s.fork = e.proto.ForkFor(dead, e.World.CollSeq())
		s.forkApp = snapshot()
		rs.nw.Revive(dead)
		e.proto.BroadcastRecovered(dead)
		rs.wg.Add(1)
		rs.spawned.Add(1)
		go rs.runProc(s, true)
	}
}
