package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// Repros of the known defects README.md records, run with
//
//	go run . --repro refork
//	go run . --repro replay-after-substitution
//
// Each prints one line per attempt and a summary, and exits 0 whether or
// not the defect shows (it is a repro, not a gate).

// reproRefork: a replica re-forked by a §3.4 RecoveryEvent hangs at its
// next collective on the world communicator. Two ranks under SDR, rank 1
// replica 1 killed at step 4 and recovered at step 8, a Barrier every 5
// steps.
func reproRefork(w io.Writer) {
	rep := cluster.Run(cluster.Config{
		Ranks: 2, Protocol: cluster.SDR, Timeout: 5 * time.Second,
		Failures:   []cluster.FailureEvent{{Rank: 1, Rep: 1, AtStep: 4}},
		Recoveries: []cluster.RecoveryEvent{{Rank: 1, Rep: 1, AtStep: 8}},
	}, func(env *cluster.Env) (any, error) {
		c := env.World
		me, n := int(c.Rank()), c.Size()
		start, sum := 0, uint64(0)
		if b := env.Restored(); len(b) == 16 {
			start = int(binary.LittleEndian.Uint64(b))
			sum = binary.LittleEndian.Uint64(b[8:])
		}
		buf := make([]byte, 8)
		for i := start; i < 12; i++ {
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
	})
	fmt.Fprintf(w, "refork: error=%v\n", rep.FirstError())
}

// reproReplayAfterSubstitution: on the churn ring (rank 1 unreplicated,
// RecoveryMode log), once replica 0 of rank 2 — the victim's successor —
// has been substituted, a later localized replay of rank 1 can hang. The
// victim is killed once per checkpoint interval; a run of 100 replays
// hangs in roughly one run out of ten on a 2-core host.
func reproReplayAfterSubstitution(w io.Writer, dir string, runs int) {
	hangs := 0
	for k := 0; k < runs; k++ {
		seed := uint64(k + 1)
		plan := planChurn(seed, 100)
		var failures []cluster.FailureEvent
		for _, f := range plan.failures {
			if f.Rank == churnVictim && f.AtStep != 2*churnEvery+1 {
				failures = append(failures, f)
			}
		}
		failures = append(failures, cluster.FailureEvent{Rank: 2, Rep: 0, AtStep: 2*churnEvery + 1})
		ckpt, err := os.MkdirTemp(dir, "repro-")
		if err != nil {
			fmt.Fprintf(w, "replay-after-substitution: %v\n", err)
			return
		}
		rep := cluster.Run(cluster.Config{
			Ranks: churnRanks, Protocol: cluster.SDR, Timeout: 5 * time.Second,
			UnreplicatedRanks: []int{churnVictim}, RecoveryMode: cluster.RecoveryLog,
			CheckpointDir: ckpt, Failures: failures,
		}, churnApp(seed, plan.steps, newChurnRec(&plan, false), startClock(), nil, nil, 0, false))
		os.RemoveAll(ckpt)
		if err := rep.FirstError(); err != nil {
			hangs++
			fmt.Fprintf(w, "replay-after-substitution: run %d: %d replays, then %v\n", k, rep.Replays, err)
		}
	}
	fmt.Fprintf(w, "replay-after-substitution: %d of %d runs failed\n", hangs, runs)
}

// runRepro dispatches --repro.
func runRepro(name, dir string, w io.Writer) error {
	switch name {
	case "refork":
		reproRefork(w)
	case "replay-after-substitution":
		reproReplayAfterSubstitution(w, dir, 30)
	default:
		return fmt.Errorf("unknown repro %q (refork | replay-after-substitution)", name)
	}
	return nil
}
