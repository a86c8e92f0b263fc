package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// The wire workload: the pingpong session over an in-process mesh of
// PeerWires with shared-memory rings armed for every pair — the path
// distributed workers take on one host, composed the way the cluster
// worker composes it (one network and wire per process, peers and ring
// peers set from the world table, the protocol and world on top).

// mesh is one network and peer wire per process.
type mesh struct {
	nws []*transport.Network
	pws []*transport.PeerWire
	dir string
}

func newMesh(n int, ringDir string) (*mesh, error) {
	m := &mesh{nws: make([]*transport.Network, n), pws: make([]*transport.PeerWire, n), dir: ringDir}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		nw, pw, err := transport.NewPeerNetwork(n, transport.ProcID(i), "")
		if err != nil {
			m.close()
			return nil, err
		}
		m.nws[i], m.pws[i] = nw, pw
		addrs[i] = pw.Addr()
	}
	if err := os.MkdirAll(ringDir, 0o755); err != nil {
		m.close()
		return nil, err
	}
	for i := 0; i < n; i++ {
		m.pws[i].SetPeers(addrs)
		colocated := make([]bool, n)
		for p := range colocated {
			colocated[p] = p != i
		}
		m.pws[i].SetRingPeers(transport.RingConfig{Dir: ringDir}, colocated)
	}
	return m, nil
}

func (m *mesh) close() {
	for i := len(m.pws) - 1; i >= 0; i-- {
		if m.pws[i] != nil {
			m.pws[i].Close()
		}
		if m.nws[i] != nil {
			m.nws[i].Close()
		}
	}
	if m.dir != "" {
		os.RemoveAll(m.dir)
	}
}

// stats sums the traffic every process put on the mesh.
func (m *mesh) stats() transport.StatsSnapshot {
	var sum transport.StatsSnapshot
	for _, nw := range m.nws {
		s := nw.Stats().Snapshot()
		for k := range s.Msgs {
			sum.Msgs[k] += s.Msgs[k]
			sum.Bytes[k] += s.Bytes[k]
		}
	}
	return sum
}

// wireSession runs one pingpong session on a fresh mesh: SDR r=2 (4
// processes) or native (2). Each process drains its engine after its
// body until every process has finished, as the launchers do, so late
// acknowledgements still flow.
func wireSession(pp *pingpong, sdr bool, ringDir string, tr *tracer, m *meter, ops uint64, clock *launchClock) (transport.StatsSnapshot, error) {
	ranks, r := 2, 1
	if sdr {
		r = 2
	}
	layout, err := core.NewLayout(ranks, r, nil)
	if err != nil {
		return transport.StatsSnapshot{}, err
	}
	n := layout.Procs()
	ms, err := newMesh(n, ringDir)
	if err != nil {
		return transport.StatsSnapshot{}, err
	}
	defer func() {
		ms.close()
		clock.finish()
	}()

	var done atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := transport.ProcID(i)
			rank, rep := layout.RankOf(id), layout.RepOf(id)
			proc := mpi.NewProc(ms.nws[i], id)
			finished := false
			finish := func() {
				if !finished {
					finished = true
					done.Add(1)
				}
			}
			defer func() {
				if v := recover(); v != nil {
					errs[i] = fmt.Errorf("proc %d: %v", i, v)
				}
				finish()
			}()
			clock.entered()
			var protocol mpi.Protocol
			if sdr {
				protocol = core.NewReplicated(proc, layout, core.ModeParallel, nil, core.Options{})
			} else {
				protocol = mpi.NewNative(proc)
			}
			var pt *procTracer
			if sdr {
				pt = tr.proc(i)
			}
			c := mpi.NewWorld(proc, &hook{inner: protocol, pt: pt, sends: m.sendCounter()}, ranks)
			pp.body(c, pp.bufs[i], rank == 0 && rep == 0, pt, ops, clock)
			if pt != nil {
				tr.maxVal("mpi.unexpected_hw", float64(proc.Engine().UnexpectedHighWater()))
			}
			clock.returned()
			finish()
			eng := proc.Engine()
			for done.Load() < int64(n) {
				eng.Progress()
				eng.Endpoint().WaitActivity(200 * time.Microsecond)
			}
			eng.Progress()
		}(i)
	}

	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		// Watchdog: kill every process so the session unwinds.
		for i := 0; i < n; i++ {
			ms.nws[i].Kill(transport.ProcID(i))
		}
		<-finished
		return ms.stats(), fmt.Errorf("wire session timed out")
	}
	for _, err := range errs {
		if err != nil {
			return ms.stats(), err
		}
	}
	return ms.stats(), nil
}

func prepareWire(cfg *config, s *samples) (unitFunc, error) {
	meshes := 0
	return preparePingpongOn(cfg, s, func(pp *pingpong, sdr bool, tr *tracer, m *meter, ops uint64, clock *launchClock) (transport.StatsSnapshot, error) {
		meshes++
		return wireSession(pp, sdr, filepath.Join(cfg.work, fmt.Sprintf("rings-%d", meshes)), tr, m, ops, clock)
	})
}
