package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/transport"
)

// config is what a workload receives: the generated-input seed plus the
// knobs the benchmark's own tests turn.
type config struct {
	seed uint64
	// tiny shrinks every input so a test can run each workload in well
	// under a second.
	tiny bool
	// plant, when set, makes the first measured unit produce one wrong
	// payload byte or checksum, so a test can check that the gate counts
	// it as a failure and keeps it out of the timings.
	plant bool
	// work is a scratch directory inside the checkout (checkpoint
	// stores, ring files).
	work string
	// log receives progress lines; the result line goes elsewhere.
	log io.Writer
}

// samples collects one run's end-to-end measurements. Every workload
// fills every list, so each end-to-end metric is defined on each of them
// (see README.md for the per-workload meaning of "solve" and "op").
type samples struct {
	setup       []float64 // s, one per SDR launch
	solve       []float64 // s, one SDR unit of work
	nativeSolve []float64 // s, the same unit without replication
	lat         []float64 // µs, one SDR operation
	nativeLat   []float64 // µs, one native operation
	bw          []float64 // MB/s, SDR payload bandwidth
	nativeBW    []float64 // MB/s, native payload bandwidth

	attempted, failed int64
}

// fail counts one failed operation and says why on the progress log.
func (s *samples) fail(log io.Writer, format string, args ...any) {
	s.failed++
	fmt.Fprintf(log, "FAIL "+format+"\n", args...)
}

// countOnly adds w's operation counts to s and drops its timings (a
// warm-up's failures still count).
func (s *samples) countOnly(w *samples) {
	s.attempted += w.attempted
	s.failed += w.failed
}

// payloadBytes is the application payload a launch moved: eager messages
// plus rendezvous data. Under native MPI that is each send once.
func payloadBytes(st transport.StatsSnapshot) float64 {
	return float64(st.Bytes[transport.KindEager] + st.Bytes[transport.KindData])
}

// unitFunc runs the i-th unit of a workload, appending its measurements
// to s. tr is nil for an untraced unit.
type unitFunc func(i int, s *samples, tr *tracer)

// workload builds a workload's inputs, runs its reference and warm-up
// work outside the timed loop, and returns the unit to repeat.
type workload struct {
	name    string
	prepare func(cfg *config, s *samples) (unitFunc, error)
}

var workloads = []workload{
	{"pingpong", preparePingpong},
	{"hpccg", prepareHPCCG},
	{"churn", prepareChurn},
	{"wire", prepareWire},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// drive repeats unit until budget has passed (and at least minUnits ran).
// Without a tracer every unit is untraced. With one, units alternate
// untraced/traced, so both sets see the same drift and the difference
// between them is the cost of tracing.
func drive(budget time.Duration, minUnits int, unit unitFunc, tr *tracer) (plain, traced *samples) {
	plain, traced = &samples{}, &samples{}
	start := time.Now()
	for i := 0; i < minUnits || time.Since(start) < budget; i++ {
		if tr != nil && i%2 == 1 {
			unit(i, traced, tr)
			continue
		}
		unit(i, plain, nil)
	}
	return plain, traced
}

// launchClock times one launch from outside the launcher: the call until
// every process has left its first barrier, and the last application
// return until the launcher returns. Their sum is the launch's set-up.
type launchClock struct {
	call time.Time
	done time.Time

	mu          sync.Mutex
	lastEntry   time.Time // guarded by mu
	lastBarrier time.Time // guarded by mu
	lastReturn  time.Time // guarded by mu
}

func startClock() *launchClock { return &launchClock{call: time.Now()} }

func (c *launchClock) mark(p *time.Time) {
	now := time.Now()
	c.mu.Lock()
	if now.After(*p) {
		*p = now
	}
	c.mu.Unlock()
}

// entered marks a process entering the application body.
func (c *launchClock) entered() { c.mark(&c.lastEntry) }

// leftBarrier marks a process leaving its first barrier.
func (c *launchClock) leftBarrier() { c.mark(&c.lastBarrier) }

// returned marks a process returning from the application body.
func (c *launchClock) returned() { c.mark(&c.lastReturn) }

// finish marks the launcher's return.
func (c *launchClock) finish() { c.done = time.Now() }

// toBarrier is the call until every process left its first barrier.
func (c *launchClock) toBarrier() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastBarrier.Sub(c.call)
}

// spawn is the call until the last process entered the application.
func (c *launchClock) spawn() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastEntry.Sub(c.call)
}

// teardown is the last application return until the launcher returned.
func (c *launchClock) teardown() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done.Sub(c.lastReturn)
}

// record adds the launch's set-up sample, with the teardown when
// withTeardown, and its spawn and teardown to the tracer when the unit is
// traced.
func (c *launchClock) record(s *samples, tr *tracer, withTeardown bool) {
	setup := c.toBarrier()
	if withTeardown {
		setup += c.teardown()
	}
	s.setup = append(s.setup, setup.Seconds())
	if tr != nil {
		tr.addVal("cluster.spawn", c.spawn().Seconds())
		tr.addVal("cluster.teardown", c.teardown().Seconds())
	}
}

// splitmix64 is the benchmark's input generator: every payload byte and
// schedule choice derives from the seed through it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a seeded splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes xs in place (Fisher–Yates).
func (r *rng) shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
