package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/transport"
)

// layer is one of the repository's modules a span is charged to; bench
// is the benchmark's own code (the application body between calls).
type layer int

const (
	layerBench layer = iota
	layerCluster
	layerCkpt
	layerCore
	layerMPI
	nLayers
)

var layerNames = [nLayers]string{"bench", "cluster", "ckpt", "core", "mpi"}

// span is one timed call across a layer boundary. Spans of one operation
// (a round trip, a solve, a faulted run) share Op; Parent is the span
// that was open on the same process when this one began (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Proc   int    `json:"proc"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept for the trace file; aggregates (self
// time, per-name durations) cover every span regardless.
const maxSpans = 200_000

// tracer collects spans and counters for the traced units of a run. It
// is fed by procTracers (one per process goroutine) when their root span
// closes, and by the workloads' own recordings.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu      sync.Mutex
	spans   []span               // guarded by mu
	dropped int                  // guarded by mu
	self    [nLayers]float64     // guarded by mu; seconds
	root    float64              // guarded by mu; seconds under root spans
	durs    map[string][]float64 // guarded by mu; seconds per span name
	vals    map[string][]float64 // guarded by mu; workload-recorded samples
	maxes   map[string]float64   // guarded by mu; workload-recorded maxima

	// Counters of the traced SDR launches, accumulated by meter.done
	// (launches run one at a time, so the process-wide counters are
	// theirs). Traffic is known only where the launcher reports it for
	// the whole launch; netOps and sends cover those launches.
	launches  int
	ops       int64 // operations attempted in traced launches
	obs       map[string]float64
	net       transport.StatsSnapshot
	netOps    int64
	sends     int64   // application Isend calls in those launches
	cpu       float64 // s of user+system time
	mallocs   uint64  // in launches with known traffic
	allocB    uint64  // in launches with known traffic
	gcPauseNs uint64
	heapPeak  uint64
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		durs:  make(map[string][]float64),
		vals:  make(map[string][]float64),
		maxes: make(map[string]float64),
		obs:   make(map[string]float64),
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// meter measures one traced SDR launch: the process-wide counters, CPU
// time and allocation around it, and the Isend calls its hooks see.
type meter struct {
	t     *tracer
	sends atomic.Int64
	obs   map[string]float64
	cpu   float64
	mem   runtime.MemStats
}

// startLaunch begins metering a launch (nil when t is nil).
func (t *tracer) startLaunch() *meter {
	if t == nil {
		return nil
	}
	m := &meter{t: t, obs: obs.Default.Snapshot()}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuSeconds()
	return m
}

// sendCounter is what a hook counts Isend calls into (nil when m is nil).
func (m *meter) sendCounter() *atomic.Int64 {
	if m == nil {
		return nil
	}
	return &m.sends
}

// done adds the launch's deltas: ops operations attempted, and net, its
// transport traffic, when the launcher reported it for the whole launch.
func (m *meter) done(ops int64, net *transport.StatsSnapshot) {
	if m == nil {
		return
	}
	cpu := cpuSeconds()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	after := obs.Default.Snapshot()
	t := m.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.launches++
	t.ops += ops
	t.cpu += cpu - m.cpu
	t.gcPauseNs += mem.PauseTotalNs - m.mem.PauseTotalNs
	if mem.HeapAlloc > t.heapPeak {
		t.heapPeak = mem.HeapAlloc
	}
	for k, v := range after {
		if d := v - m.obs[k]; d != 0 {
			t.obs[k] += d
		}
	}
	if net == nil {
		return
	}
	for k := range net.Msgs {
		t.net.Msgs[k] += net.Msgs[k]
		t.net.Bytes[k] += net.Bytes[k]
	}
	t.netOps += ops
	t.sends += m.sends.Load()
	t.mallocs += mem.Mallocs - m.mem.Mallocs
	t.allocB += mem.TotalAlloc - m.mem.TotalAlloc
}

// addVal records one workload-level sample under name.
func (t *tracer) addVal(name string, v float64) {
	t.mu.Lock()
	t.vals[name] = append(t.vals[name], v)
	t.mu.Unlock()
}

// maxVal raises the maximum recorded under name.
func (t *tracer) maxVal(name string, v float64) {
	t.mu.Lock()
	if v > t.maxes[name] {
		t.maxes[name] = v
	}
	t.mu.Unlock()
}

// newOps allocates n consecutive operation ids and returns the first (0
// when t is nil).
func (t *tracer) newOps(n uint64) uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(n) - n + 1
}

// proc returns a span recorder for one process goroutine (nil when t is
// nil, which makes every recording a no-op).
func (t *tracer) proc(id int) *procTracer {
	if t == nil {
		return nil
	}
	return &procTracer{t: t, proc: id, durs: make(map[string][]float64)}
}

// frame is an open span on a process's stack.
type frame struct {
	id, parent uint64
	name       string
	layer      layer
	start      time.Time
	child      time.Duration // time covered by this span's children
}

// procTracer records the spans of one process goroutine. Calls on one
// process never overlap, so a span's children tile disjoint parts of it
// and its self time is its duration minus theirs. Everything is buffered
// locally and merged into the tracer when the root span closes.
type procTracer struct {
	t     *tracer
	proc  int
	op    uint64
	stack []frame

	spans []span
	self  [nLayers]float64
	root  float64
	durs  map[string][]float64
}

// active reports whether a span is open, i.e. whether calls are traced.
func (p *procTracer) active() bool { return p != nil && len(p.stack) > 0 }

// beginOp opens a root span for operation op.
func (p *procTracer) beginOp(op uint64, name string) {
	if p == nil {
		return
	}
	p.op = op
	p.begin(name, layerBench)
}

// begin opens a span.
func (p *procTracer) begin(name string, l layer) {
	if p == nil {
		return
	}
	var parent uint64
	if n := len(p.stack); n > 0 {
		parent = p.stack[n-1].id
	}
	p.stack = append(p.stack, frame{id: p.t.ids.Add(1), parent: parent, name: name, layer: l, start: time.Now()})
}

// end closes the innermost span.
func (p *procTracer) end() {
	if p == nil || len(p.stack) == 0 {
		return
	}
	now := time.Now()
	f := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	d := now.Sub(f.start)
	self := (d - f.child).Seconds()
	p.self[f.layer] += self
	p.durs[f.name] = append(p.durs[f.name], d.Seconds())
	p.spans = append(p.spans, span{
		ID: f.id, Parent: f.parent, Op: p.op, Name: f.name, Proc: p.proc,
		Start: f.start.Sub(p.t.epoch).Nanoseconds(), End: now.Sub(p.t.epoch).Nanoseconds(),
	})
	if n := len(p.stack); n > 0 {
		p.stack[n-1].child += d
		return
	}
	p.root += d.Seconds()
	p.flush()
}

// flush merges the buffered spans and aggregates into the tracer.
func (p *procTracer) flush() {
	t := p.t
	t.mu.Lock()
	for l := range p.self {
		t.self[l] += p.self[l]
	}
	t.root += p.root
	for name, ds := range p.durs {
		t.durs[name] = append(t.durs[name], ds...)
	}
	room := maxSpans - len(t.spans)
	if room > len(p.spans) {
		room = len(p.spans)
	}
	if room < 0 {
		room = 0
	}
	t.spans = append(t.spans, p.spans[:room]...)
	t.dropped += len(p.spans) - room
	t.mu.Unlock()
	p.spans = p.spans[:0]
	p.self = [nLayers]float64{}
	p.root = 0
	clear(p.durs)
}

// checkpoint is env.Checkpoint as a ckpt span.
func (p *procTracer) checkpoint(env *cluster.Env, step int, data []byte) error {
	p.begin("ckpt.save", layerCkpt)
	err := env.Checkpoint(step, data)
	p.end()
	return err
}

// step is env.Step as a cluster span.
func (p *procTracer) step(env *cluster.Env, step int) {
	p.begin("cluster.step", layerCluster)
	env.Step(step, nil)
	p.end()
}

// wait is Request.Wait as an mpi span.
func (p *procTracer) wait(r *mpi.Request) mpi.Status {
	if !p.active() {
		return r.Wait()
	}
	p.begin("mpi.wait", layerMPI)
	st := r.Wait()
	p.end()
	return st
}

// hook is the benchmark's mpi.Protocol decorator around the protocol a
// world is built on. While its process has a span open it times every
// call as a core span; it counts Isend calls into sends when that is set,
// and calls onAnyRecv when a wildcard receive is posted (the hpccg
// iteration probe). Only SDR processes are traced, so the spans are the
// replication protocol's.
type hook struct {
	inner     mpi.Protocol
	pt        *procTracer
	sends     *atomic.Int64
	onAnyRecv func()
}

func (h *hook) Name() string         { return h.inner.Name() }
func (h *hook) MyBaseRank() mpi.Rank { return h.inner.MyBaseRank() }

func (h *hook) Isend(c *mpi.Comm, ctx uint32, to mpi.Rank, tag int, data []byte) *mpi.Request {
	if h.sends != nil {
		h.sends.Add(1)
	}
	if !h.pt.active() {
		return h.inner.Isend(c, ctx, to, tag, data)
	}
	h.pt.begin("core.isend", layerCore)
	r := h.inner.Isend(c, ctx, to, tag, data)
	h.pt.end()
	return r
}

func (h *hook) Irecv(c *mpi.Comm, ctx uint32, from mpi.Rank, tag int, buf []byte) *mpi.Request {
	if from == mpi.AnySource && h.onAnyRecv != nil {
		h.onAnyRecv()
	}
	if !h.pt.active() {
		return h.inner.Irecv(c, ctx, from, tag, buf)
	}
	h.pt.begin("core.irecv", layerCore)
	r := h.inner.Irecv(c, ctx, from, tag, buf)
	h.pt.end()
	return r
}

// hookWorld rebuilds env.World on the decorator, carrying the collective
// sequence over (a relaunched process resumes it from its replay state).
// Env.Checkpoint reads env.World, so the replacement stays authoritative.
func hookWorld(env *cluster.Env, h *hook) {
	old := env.World
	h.inner = old.Protocol()
	w := mpi.NewWorld(old.Proc(), h, old.Size())
	w.SetCollSeq(old.CollSeq())
	env.World = w
}

// writeSpans writes the kept spans, the run's stamp first, as JSON.
func (t *tracer) writeSpans(dir, name string, stamp fingerprint) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	spans := t.spans
	dropped := t.dropped
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Stamp   fingerprint `json:"stamp"`
		Dropped int         `json:"dropped_spans"`
		Spans   []span      `json:"spans"`
	}{stamp, dropped, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
