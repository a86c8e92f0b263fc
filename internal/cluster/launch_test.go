package cluster

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// TestRecoveryEventReforkReachesCollective: a replica re-forked by a §3.4
// RecoveryEvent must resume the world communicator at its substitute's
// collective sequence. Without it, the replacement's next Barrier carries
// a sequence number the survivors passed long ago and the run hangs until
// the watchdog fires.
func TestRecoveryEventReforkReachesCollective(t *testing.T) {
	const steps = 12
	app := func(env *Env) (any, error) {
		c := env.World
		me, n := int(c.Rank()), c.Size()
		start, sum := 0, uint64(0)
		if b := env.Restored(); len(b) == 16 {
			start = int(binary.LittleEndian.Uint64(b))
			sum = binary.LittleEndian.Uint64(b[8:])
		}
		buf := make([]byte, 8)
		for i := start; i < steps; i++ {
			at := i
			env.Step(i, func() []byte {
				b := binary.LittleEndian.AppendUint64(nil, uint64(at))
				return binary.LittleEndian.AppendUint64(b, sum)
			})
			out := binary.LittleEndian.AppendUint64(nil, uint64(me*100+i))
			r := c.Isend(mpi.Rank((me+1)%n), 0, out)
			c.Recv(mpi.Rank((me-1+n)%n), 0, buf)
			r.Wait()
			sum += binary.LittleEndian.Uint64(buf)
			if (i+1)%5 == 0 {
				c.Barrier()
			}
		}
		return sum, nil
	}
	rep := Run(Config{
		Ranks: 2, Protocol: SDR, Timeout: 5 * time.Second,
		Failures:   []FailureEvent{{Rank: 1, Rep: 1, AtStep: 4}},
		Recoveries: []RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 8}},
	}, app)
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
	ref := Run(Config{Ranks: 2, Protocol: SDR, Timeout: 5 * time.Second}, app)
	if err := ref.FirstError(); err != nil {
		t.Fatal(err)
	}
	recovered := false
	for _, p := range rep.Procs {
		if p.Crashed {
			continue
		}
		if want := ref.ResultOf(p.Rank, 0); p.Result != want {
			t.Errorf("rank %d rep %d: %v, fault-free run computes %v", p.Rank, p.Rep, p.Result, want)
		}
		recovered = recovered || p.Rank == 1 && p.Rep == 1
	}
	if !recovered {
		t.Error("re-forked replica did not report a result")
	}
}

// TestLaunchersRejectConfig runs the shared layout, schedule and
// recovery-mode rules through both entry points, and the fields only the
// in-process launcher can honour through RunDistributed, which must name
// the field. Every case is refused before any process starts.
func TestLaunchersRejectConfig(t *testing.T) {
	shared := map[string]func(*Config){
		"degree vector length":      func(c *Config) { c.Degrees = []int{2} },
		"degree above r":            func(c *Config) { c.Degrees = []int{3, 1} },
		"unreplicated out of range": func(c *Config) { c.UnreplicatedRanks = []int{5} },
		"kill out of range":         func(c *Config) { c.Failures = []FailureEvent{{Rank: 2}} },
		"kill of a pruned replica": func(c *Config) {
			c.UnreplicatedRanks = []int{1}
			c.Failures = []FailureEvent{{Rank: 1, Rep: 1}}
		},
		"log mode without store": func(c *Config) { c.RecoveryMode = RecoveryLog },
		"log mode under native": func(c *Config) {
			c.RecoveryMode, c.Protocol, c.CheckpointDir = RecoveryLog, Native, t.TempDir()
		},
		"unknown recovery mode": func(c *Config) { c.RecoveryMode = "bogus" },
	}
	inProcessOnly := map[string]func(*Config){
		"Recoveries":    func(c *Config) { c.Recoveries = []RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 3}} },
		"Delay":         func(c *Config) { c.Delay = &transport.DelayModel{} },
		"EagerLimit":    func(c *Config) { c.EagerLimit = 64 },
		"AckOnWait":     func(c *Config) { c.AckOnWait = true },
		"SDC":           func(c *Config) { c.SDC = true },
		"NoAckCoalesce": func(c *Config) { c.NoAckCoalesce = true },
		"Corrupt":       func(c *Config) { c.Corrupt = true },
		"CorruptRank":   func(c *Config) { c.CorruptRank = 1 },
		"CorruptRep":    func(c *Config) { c.CorruptRep = 1 },
		"CorruptSeq":    func(c *Config) { c.CorruptSeq = 1 },
		"TraceSends":    func(c *Config) { c.TraceSends = true },
	}
	launchers := map[string]func(Config) *Report{
		"Run": func(cfg Config) *Report {
			return Run(cfg, func(*Env) (any, error) {
				t.Error("application started under a rejected configuration")
				return nil, nil
			})
		},
		"RunDistributed": RunDistributed,
	}
	refused := func(launcher, name string, mutate func(*Config), field string) {
		cfg := Config{Ranks: 2, Protocol: SDR}
		mutate(&cfg)
		rep := launchers[launcher](cfg)
		err := rep.FirstError()
		switch {
		case err == nil:
			t.Errorf("%s accepted %s", launcher, name)
		case len(rep.Procs) != 0:
			t.Errorf("%s: %s started %d processes before refusing", launcher, name, len(rep.Procs))
		case field != "" && !strings.Contains(err.Error(), "Config."+field):
			t.Errorf("%s: %s refused without naming the field: %v", launcher, name, err)
		}
	}
	for launcher := range launchers {
		for name, mutate := range shared {
			refused(launcher, name, mutate, "")
		}
		// A §3.4 re-fork needs the survivors' re-sends: mirror and native
		// runs must refuse it by name, not hang or skip it.
		for _, proto := range []Protocol{Mirror, Native} {
			refused(launcher, "Recoveries under "+string(proto), func(c *Config) {
				c.Protocol, c.Recoveries = proto, []RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 3}}
			}, "Recoveries")
		}
	}
	for field, mutate := range inProcessOnly {
		refused("RunDistributed", field, mutate, field)
	}
}

// barrierApp is the smallest launch that still synchronizes: an empty body
// plus one world Barrier.
func barrierApp(env *Env) (any, error) {
	env.World.Barrier()
	return nil, nil
}

// TestLaunchStorm runs thousands of back-to-back 2-rank launches through
// finalize. The drain parks on its endpoint until the last process to
// finish wakes it; a wake lost between a drain's stop check and its park
// would leave that process asleep until the watchdog, so any TimedOut
// launch here is a lost wakeup.
func TestLaunchStorm(t *testing.T) {
	const launches = 2000
	for _, proto := range []Protocol{Native, SDR} {
		for i := 0; i < launches; i++ {
			rep := Run(Config{Ranks: 2, Protocol: proto, Timeout: 10 * time.Second}, barrierApp)
			if rep.TimedOut {
				t.Fatalf("%s launch %d timed out in finalize", proto, i)
			}
			if err := rep.FirstError(); err != nil {
				t.Fatalf("%s launch %d: %v", proto, i, err)
			}
		}
	}
}

// BenchmarkLaunch is the launcher's own layer: one in-process launch of an
// empty body plus a Barrier, through finalize and teardown, per op. What
// it times is spawn, the proc stack build, one collective and the drain —
// the setup cost a replicated run pays once, apart from steady state.
func BenchmarkLaunch(b *testing.B) {
	for _, proto := range []Protocol{Native, SDR} {
		for _, ranks := range []int{2, 4} {
			b.Run(fmt.Sprintf("%s/ranks=%d", proto, ranks), func(b *testing.B) {
				cfg := Config{Ranks: ranks, Protocol: proto, Timeout: 10 * time.Second}
				for i := 0; i < b.N; i++ {
					rep := Run(cfg, barrierApp)
					if err := rep.FirstError(); err != nil || rep.TimedOut {
						b.Fatalf("launch %d: err=%v timedOut=%v", i, err, rep.TimedOut)
					}
				}
			})
		}
	}
}

// TestDrainFlushesOwedAcks: a receive that completes only during the
// finalize drain (rank 1 returns without waiting on its Irecv) queues a
// coalesced ack the sender's Wait is gated on. The drain must force-flush
// it before parking, or the sender — and with it the whole launch —
// sleeps until the watchdog.
func TestDrainFlushesOwedAcks(t *testing.T) {
	app := func(env *Env) (any, error) {
		c := env.World
		if c.Rank() == 0 {
			time.Sleep(5 * time.Millisecond) // let rank 1 reach its drain first
			c.Send(1, 0, []byte{1})
		} else {
			c.Irecv(0, 0, make([]byte, 1))
		}
		return nil, nil
	}
	rep := Run(Config{Ranks: 2, Protocol: SDR, Timeout: 5 * time.Second}, app)
	if rep.TimedOut {
		t.Fatal("sender never got the ack owed from the receiver's drain")
	}
	if err := rep.FirstError(); err != nil {
		t.Fatal(err)
	}
}
