package cluster

import (
	"encoding/binary"
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
	}
	for field, mutate := range inProcessOnly {
		refused("RunDistributed", field, mutate, field)
	}
}
