package transport

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Stats aggregates transport-level traffic counters. All fields are updated
// atomically; Snapshot returns a consistent-enough copy for reporting.
type Stats struct {
	Msgs  [8]atomic.Uint64 // indexed by Kind
	Bytes [8]atomic.Uint64
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Msgs  [8]uint64
	Bytes [8]uint64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	var out StatsSnapshot
	for i := range s.Msgs {
		out.Msgs[i] = s.Msgs[i].Load()
		out.Bytes[i] = s.Bytes[i].Load()
	}
	return out
}

// AppMsgs returns the number of application-payload-bearing messages
// (eager + rendezvous data). This is the quantity the paper's O(q*r) vs
// O(q*r^2) comparison counts.
func (s StatsSnapshot) AppMsgs() uint64 {
	return s.Msgs[KindEager] + s.Msgs[KindData]
}

// AckMsgs returns the number of protocol acknowledgements. With ack
// coalescing one KindAck message may carry many acknowledgement records;
// this counts messages on the wire, which is exactly what coalescing is
// meant to reduce.
func (s StatsSnapshot) AckMsgs() uint64 { return s.Msgs[KindAck] }

// TotalMsgs returns all messages of every kind.
func (s StatsSnapshot) TotalMsgs() uint64 {
	var t uint64
	for _, v := range s.Msgs {
		t += v
	}
	return t
}

// Wire is the mechanism that moves an already-enveloped message to the
// destination endpoint's inbound queue. The contract is batch-first:
// Deliver stages (or immediately forwards) one message, Flush emits
// whatever a source has staged. The in-process wire forwards on Deliver
// and has nothing to flush; the socket-backed wires stage frames per
// destination and emit them as single vectored writes at flush points
// (see batch.go for the trigger set).
//
// Ownership: Deliver takes ownership of m (envelope and payload). From
// that point the message has exactly one owner — the wire's staged batch,
// then either the destination queue or the pool (via FreeMessage after
// serializing, or when delivery is impossible). A staged batch slice is
// exactly one ownership handoff per element: the flush that empties it
// serializes-and-releases or drops-and-releases each frame, once.
//
// FIFO: implementations must preserve per ordered-pair FIFO across flush
// boundaries — staging order is emission order, and a batch never
// overtakes an earlier batch for the same pair.
type Wire interface {
	// Deliver stages m toward its destination. It must preserve per
	// ordered-pair FIFO ordering and must not block indefinitely.
	Deliver(m *Message) error
	// Flush emits frames staged by source endpoint src (NoProc = every
	// source this wire serves): all of them when force is true, only
	// batches older than the age threshold otherwise. The engine calls
	// it on the same schedule as Engine.OnFlush — non-forced from
	// Progress, forced immediately before blocking.
	Flush(src ProcID, force bool) error
	// Close releases wire resources.
	Close() error
}

// Network connects a fixed set of physical processes with reliable FIFO
// links. It provides fail-stop fault injection (Kill) and process
// resurrection for the recovery protocol (Revive).
type Network struct {
	n     int
	delay *DelayModel
	wire  Wire
	eps   []*Endpoint
	stats Stats

	// Monitors to notify on kill/revive (the failure detection service).
	mu       sync.Mutex                   // sdr:lockrank netmon
	monitors []func(p ProcID, alive bool) // guarded by mu
}

// NewNetwork creates a network of n endpoints with the given delay model
// (nil for none) using the in-process wire.
func NewNetwork(n int, delay *DelayModel) *Network {
	nw := &Network{n: n, delay: delay}
	nw.wire = inprocWire{nw}
	nw.eps = make([]*Endpoint, n)
	for i := range nw.eps {
		nw.eps[i] = newEndpoint(ProcID(i), nw)
	}
	return nw
}

// installWire installs the delivery mechanism. It is unexported by design:
// wires are injected at construction (NewPeerWire or the combined
// NewPeerNetwork constructor), never swapped on a network that already
// carried traffic — the old exported SetWire made
// that mutate-after-construct mistake expressible, and silently dropped
// any frames the previous wire still had staged.
func (nw *Network) installWire(w Wire) {
	if _, ok := nw.wire.(inprocWire); !ok && nw.wire != nil {
		panic("transport: network already has a wire installed")
	}
	nw.wire = w
}

// FlushWire flushes traffic staged on the wire by source endpoint src
// (NoProc = all sources): everything when force is true, only aged batches
// otherwise. The MPI engine calls this alongside its OnFlush hook —
// non-forced on every Progress, forced immediately before blocking — so
// staged frames never outlive the window in which batching helps. The
// in-process wire delivers immediately and this is a no-op.
func (nw *Network) FlushWire(src ProcID, force bool) error {
	return nw.wire.Flush(src, force)
}

// Size returns the number of endpoints.
func (nw *Network) Size() int { return nw.n }

// Endpoint returns the endpoint for process p.
func (nw *Network) Endpoint(p ProcID) *Endpoint {
	return nw.eps[int(p)]
}

// Stats exposes the global traffic counters.
func (nw *Network) Stats() *Stats { return &nw.stats }

// Delay returns the configured delay model (nil if none).
func (nw *Network) Delay() *DelayModel { return nw.delay }

// Monitor registers a callback invoked on every Kill and Revive. The
// failure-detection service uses this as its (assumed-perfect) sensor.
func (nw *Network) Monitor(f func(p ProcID, alive bool)) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.monitors = append(nw.monitors, f)
}

func (nw *Network) notify(p ProcID, alive bool) {
	nw.mu.Lock()
	ms := make([]func(ProcID, bool), len(nw.monitors))
	copy(ms, nw.monitors)
	nw.mu.Unlock()
	for _, f := range ms {
		f(p, alive)
	}
}

// Kill marks process p as crashed (fail-stop). Messages already delivered
// to other processes' queues remain deliverable — they model traffic that
// was on the wire when the crash happened. Messages sent to p after the
// kill are dropped. The process goroutine itself observes the kill at its
// next library entry via Endpoint.Crashed.
func (nw *Network) Kill(p ProcID) {
	ep := nw.eps[int(p)]
	ep.dead.Store(true)
	ep.lockBarrier()
	ep.Wake()
	nw.notify(p, false)
}

// lockBarrier acquires and releases every shard lock. After it returns,
// every injector either completed its append before the barrier or will
// observe the dead flag under its shard lock (see injectAt).
func (ep *Endpoint) lockBarrier() {
	for i := range ep.shards {
		ep.shards[i].mu.Lock()
		//lint:ignore SA2001 the empty critical section is the barrier
		ep.shards[i].mu.Unlock()
	}
}

// Revive resurrects process p with a fresh, empty endpoint state. The
// recovery protocol (paper §3.4) uses this to model the substitute forking
// a replacement replica.
func (nw *Network) Revive(p ProcID) {
	ep := nw.eps[int(p)]
	// Clear first, then flip alive: injections observe the dead flag, so
	// everything cleared here predates the kill and nothing injected after
	// the flip is lost.
	ep.clearQueues()
	ep.dead.Store(false)
	ep.Wake()
	nw.notify(p, true)
}

// Inject delivers an out-of-band message directly to dst's inbound queue,
// bypassing any endpoint (and the delay model). System services — the
// failure detector the paper assumes — use this to notify processes.
func (nw *Network) Inject(dst ProcID, m *Message) {
	if dst < 0 || int(dst) >= nw.n {
		return
	}
	m.Dst = dst
	nw.stats.Msgs[m.Kind].Add(1)
	nw.stats.Bytes[m.Kind].Add(uint64(len(m.Data)))
	nw.eps[int(dst)].inject(m)
}

// Alive reports whether process p is currently alive.
func (nw *Network) Alive(p ProcID) bool {
	return !nw.eps[int(p)].dead.Load()
}

// Close shuts down the wire.
func (nw *Network) Close() error {
	if nw.wire != nil {
		return nw.wire.Close()
	}
	return nil
}

// inprocWire delivers messages by appending them directly to the
// destination endpoint queue under its (sharded) lock.
type inprocWire struct{ nw *Network }

func (w inprocWire) Deliver(m *Message) error {
	dst := w.nw.eps[int(m.Dst)]
	dst.inject(m)
	return nil
}

// Flush is a no-op: in-process delivery is immediate, nothing stages.
func (w inprocWire) Flush(ProcID, bool) error { return nil }

func (w inprocWire) Close() error { return nil }

// queued is an inbound message annotated with its simulated arrival time.
type queued struct {
	m         *Message
	deliverAt time.Time
}

// Inbound queue shard sizing. Senders hash by source process, so with many
// ranks concurrent deliveries no longer serialize on one lock; per-
// ordered-pair FIFO is preserved because one source always lands in the
// same shard. The count is sized from the world at endpoint construction —
// the next power of two covering the peer count — so 8 ranks get the old 8
// shards while a 256-rank world no longer funnels 32 sources through each
// lock. The floor keeps small worlds at the tuned PR 8 geometry; the cap
// bounds per-endpoint footprint (wirescale builds hundreds of endpoints in
// one process) — above it, sources wrap around shards evenly.
const (
	minQueueShards = 8
	maxQueueShards = 64
)

// shardCountFor returns the shard count for a world of n processes: the
// next power of two ≥ n, clamped to [minQueueShards, maxQueueShards].
func shardCountFor(n int) int {
	c := minQueueShards
	for c < n && c < maxQueueShards {
		c <<= 1
	}
	return c
}

// qshard is one slice of an endpoint's inbound queue, with its own lock.
// The pad keeps hot shard headers on distinct cache lines.
type qshard struct {
	mu sync.Mutex // sdr:lockrank epshard
	q  []queued   // guarded by mu
	_  [32]byte
}

// Endpoint is one process's attachment point to the network. All methods
// are safe for concurrent use; the owning process goroutine receives, any
// goroutine may send to it.
type Endpoint struct {
	id ProcID
	nw *Network

	// Inbound path: per-source shards plus atomic coordination state, so
	// delivery does not serialize every sender on one endpoint lock. The
	// shard slice is sized from the world at construction (shardCountFor)
	// and never resized, so shardMask needs no synchronization.
	//
	// occupied has bit i set whenever shard i holds a message: the bit is
	// set and cleared only under that shard's lock (set by the append that
	// makes the shard non-empty, cleared by the drain that empties it), so
	// Drain and scanArrivals lock only the shards that may hold traffic.
	// maxQueueShards ≤ 64 keeps it one word.
	shards    []qshard
	shardMask uint
	occupied  atomic.Uint64
	dead      atomic.Bool
	nq        atomic.Int64 // queued messages across all shards
	sleepers  atomic.Int32 // receivers blocked in WaitActivity/WaitUntil

	// mu/cond only coordinate blocking receivers with (rare) wakeups; the
	// delivery hot path never takes mu when nobody sleeps.
	mu   sync.Mutex // sdr:lockrank epwake
	cond *sync.Cond

	// drainBuf backs the slice returned by Drain; owned by the receiving
	// goroutine and reused across calls.
	drainBuf []*Message

	// sender-side link serialization state: for each destination, when
	// the previous transfer finishes occupying the link, and the next
	// transport sequence number (dense, indexed by destination ID).
	sendMu   sync.Mutex           // sdr:lockrank epsend
	linkFree map[ProcID]time.Time // guarded by sendMu
	tseq     []uint64             // guarded by sendMu
	lastOut  time.Time            // guarded by sendMu; end of this process's previous send overhead
}

func newEndpoint(id ProcID, nw *Network) *Endpoint {
	shards := shardCountFor(nw.n)
	ep := &Endpoint{
		id:        id,
		nw:        nw,
		shards:    make([]qshard, shards),
		shardMask: uint(shards - 1),
		linkFree:  make(map[ProcID]time.Time),
		tseq:      make([]uint64, nw.n),
	}
	ep.cond = sync.NewCond(&ep.mu)
	gQueueShards.Set(int64(shards))
	return ep
}

// ID returns the endpoint's process ID.
func (ep *Endpoint) ID() ProcID { return ep.id }

// Crashed reports whether this process has been killed. The owning
// goroutine checks this at library entries to realize its own crash.
func (ep *Endpoint) Crashed() bool { return ep.dead.Load() }

// shardOf maps a source process to its inbound shard, masking with this
// endpoint's world-sized shard count. Src may be NoProc (-1) for
// service-injected messages.
func (ep *Endpoint) shardOf(src ProcID) int {
	return int(uint(int(src)+1) & ep.shardMask)
}

// Send transmits m to m.Dst. Sends to dead destinations are silently
// dropped (fail-stop model: the bytes fall off the wire). Send applies the
// network delay model: the sender pays the per-message software overhead,
// and the message is stamped with its simulated arrival time.
//
// The caller's envelope is copied into a pooled Message before it enters
// the network, so the caller may immediately reuse m. Ownership of the
// payload transfers with the send: if m.Data was attached with
// SetPooledData, the transport (and ultimately the final consumer) releases
// it, and the caller must not touch the buffer after Send returns.
func (ep *Endpoint) Send(m *Message) error {
	if m.Dst < 0 || int(m.Dst) >= ep.nw.n {
		// The send fails before ownership transfers; release a pooled
		// payload so erroneous sends do not leak it.
		if m.pflags&flagPooledData != 0 {
			FreeBuf(m.Data)
			m.Data = nil
			m.pflags &^= flagPooledData
		}
		return fmt.Errorf("transport: send to invalid proc %d", m.Dst)
	}
	m.Src = ep.id

	st := &ep.nw.stats
	st.Msgs[m.Kind].Add(1)
	st.Bytes[m.Kind].Add(uint64(len(m.Data)))

	ep.sendMu.Lock()
	m.tseq = ep.tseq[m.Dst]
	ep.tseq[m.Dst]++

	var deliverAt time.Time
	if d := ep.nw.delay; d != nil {
		now := time.Now()
		// Consecutive sends from one process serialize on its CPU.
		start := now
		if ep.lastOut.After(start) {
			start = ep.lastOut
		}
		ready := start.Add(d.SendOverhead)
		ep.lastOut = ready
		// The link to this destination serializes payload transfer.
		free := ep.linkFree[m.Dst]
		if ready.After(free) {
			free = ready
		}
		free = free.Add(d.transferTime(len(m.Data)))
		ep.linkFree[m.Dst] = free
		deliverAt = free.Add(d.Latency)
		ep.sendMu.Unlock()
		// The sender's CPU is busy until the overhead is paid.
		spinUntil(ready)
	} else {
		ep.sendMu.Unlock()
	}

	// Copy the envelope into a pooled message so the caller can reuse m;
	// payload-pool ownership travels with the copy.
	q := GetMessage()
	env := q.pflags
	*q = *m
	q.pflags = (m.pflags & flagPooledData) | env
	m.pflags &^= flagPooledData // ownership moved to q

	if !deliverAt.IsZero() {
		return ep.nw.deliverDelayed(q, deliverAt)
	}
	return ep.nw.wire.Deliver(q)
}

func (nw *Network) deliverDelayed(m *Message, at time.Time) error {
	dst := nw.eps[int(m.Dst)]
	dst.injectAt(m, at)
	return nil
}

// inject appends m to the inbound queue (immediate arrival).
func (ep *Endpoint) inject(m *Message) { ep.injectAt(m, time.Time{}) }

func (ep *Endpoint) injectAt(m *Message, at time.Time) {
	i := ep.shardOf(m.Src)
	sh := &ep.shards[i]
	sh.mu.Lock()
	// The dead check happens under the shard lock, and Kill passes a
	// lock barrier over every shard after setting the flag: an append
	// that raced the flag therefore completed before the barrier and
	// models in-flight traffic, while anything after the barrier
	// observes the flag and is dropped — exactly the fail-stop
	// semantics a single-lock queue had.
	if ep.dead.Load() {
		sh.mu.Unlock()
		FreeMessage(m) // fail-stop: the bytes fall off the wire
		return
	}
	sh.q = append(sh.q, queued{m: m, deliverAt: at})
	if len(sh.q) == 1 {
		ep.occupied.Or(uint64(1) << uint(i))
	}
	sh.mu.Unlock()
	ep.nq.Add(1)
	if ep.sleepers.Load() > 0 {
		ep.Wake()
	}
}

// Wake broadcasts to blocked receivers, which then re-evaluate their wait
// conditions. Taking mu orders the broadcast against a receiver that is
// between registering as a sleeper and calling cond.Wait (it holds mu for
// that whole window, re-checking its conditions inside it), so wakeups
// cannot be lost. Whoever changes the state a WaitUntil stop predicate
// reads calls Wake after the change.
func (ep *Endpoint) Wake() {
	ep.mu.Lock()
	ep.cond.Broadcast()
	ep.mu.Unlock()
}

// clearQueues removes (and releases) everything queued, for Revive.
func (ep *Endpoint) clearQueues() {
	removed := 0
	for i := range ep.shards {
		sh := &ep.shards[i]
		sh.mu.Lock()
		for j := range sh.q {
			FreeMessage(sh.q[j].m)
			sh.q[j] = queued{}
		}
		removed += len(sh.q)
		sh.q = sh.q[:0]
		ep.occupied.And(^(uint64(1) << uint(i)))
		sh.mu.Unlock()
	}
	ep.nq.Add(int64(-removed))
}

// Drain removes and returns all inbound messages whose simulated arrival
// time has passed, preserving per-source FIFO order. It never blocks.
//
// The returned slice is backed by a per-endpoint buffer owned by the
// receiving goroutine: it is valid until the next Drain call. Ownership of
// the returned messages transfers to the caller, which releases each with
// FreeMessage once consumed.
func (ep *Endpoint) Drain() []*Message {
	n := ep.nq.Load()
	gInqDepth.Set(n)
	if n == 0 {
		return nil
	}
	var out []*Message
	if pooling.Load() {
		// Reuse the drain buffer (part of the pooled fast path; the
		// unpooled baseline allocates per call, as the seed did).
		out = ep.drainBuf[:0]
	}
	var now time.Time
	removed := 0
	for occ := ep.occupied.Load(); occ != 0; occ &= occ - 1 {
		i := bits.TrailingZeros64(occ)
		sh := &ep.shards[i]
		sh.mu.Lock()
		keep := sh.q[:0]
		for _, q := range sh.q {
			if !q.deliverAt.IsZero() {
				if now.IsZero() {
					now = time.Now()
				}
				if q.deliverAt.After(now) {
					keep = append(keep, q)
					continue
				}
			}
			out = append(out, q.m)
			removed++
		}
		for j := len(keep); j < len(sh.q); j++ {
			sh.q[j] = queued{} // unpin handed-off messages
		}
		sh.q = keep
		if len(keep) == 0 {
			ep.occupied.And(^(uint64(1) << uint(i)))
		}
		sh.mu.Unlock()
	}
	ep.nq.Add(int64(-removed))
	ep.drainBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// WaitActivity blocks until at least one message is deliverable, the
// process is killed, or the timeout elapses. It returns false if the
// process was killed. A zero timeout means wait indefinitely.
func (ep *Endpoint) WaitActivity(timeout time.Duration) bool {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	return ep.wait(deadline, nil)
}

// WaitUntil blocks until stop reports true, at least one message is
// deliverable, or the process is killed; it returns false if the process
// was killed. stop is level-triggered: it is re-evaluated under the wake
// lock after this receiver registers as a sleeper, so a state change
// followed by Wake can never fall between the check and the park. stop
// runs with the endpoint's wake lock held and must not block.
func (ep *Endpoint) WaitUntil(stop func() bool) bool {
	return ep.wait(time.Time{}, stop)
}

// wait is the shared body of WaitActivity and WaitUntil: a zero deadline
// waits indefinitely, a nil stop never stops early. A timed wait parks on
// the condition variable like an untimed one and is woken at the deadline
// by a timer, so an arrival mid-wait is seen at once.
func (ep *Endpoint) wait(deadline time.Time, stop func() bool) bool {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if ep.dead.Load() {
			return false
		}
		if stop != nil && stop() {
			return true
		}
		if ep.nq.Load() > 0 {
			ready, earliest := ep.scanArrivals()
			if ready {
				return true
			}
			if earliest.IsZero() {
				// Counter raced ahead of a visible message; retry.
				continue
			}
			// Only delayed arrivals are queued: sleep (off the locks)
			// until the earliest, bounded by the deadline.
			if !deadline.IsZero() && earliest.After(deadline) {
				earliest = deadline
			}
			spinUntil(earliest)
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return true
			}
			continue
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return true
		}
		// Nothing queued: block. Register as a sleeper before re-checking
		// the counter (and stop) so a concurrent injector either sees the
		// sleeper and broadcasts (under mu, ordered with our Wait) or
		// published its message before our re-check observes it.
		ep.mu.Lock()
		ep.sleepers.Add(1)
		if ep.nq.Load() > 0 || ep.dead.Load() || (stop != nil && stop()) {
			ep.sleepers.Add(-1)
			ep.mu.Unlock()
			continue
		}
		if !deadline.IsZero() && timer == nil {
			// The timer's Wake blocks on mu until this Wait releases
			// it, so even an already-expired deadline cannot be missed.
			timer = time.AfterFunc(time.Until(deadline), ep.Wake)
		}
		// sdr:holdblock-ok condition wait: Wait releases mu while parked; a timed wait is woken by its deadline timer
		ep.cond.Wait()
		ep.sleepers.Add(-1)
		ep.mu.Unlock()
	}
}

// scanArrivals reports whether any queued message is deliverable now and,
// if not, the earliest future arrival time among the delayed ones.
func (ep *Endpoint) scanArrivals() (ready bool, earliest time.Time) {
	var now time.Time
	for occ := ep.occupied.Load(); occ != 0; occ &= occ - 1 {
		sh := &ep.shards[bits.TrailingZeros64(occ)]
		sh.mu.Lock()
		for _, q := range sh.q {
			if q.deliverAt.IsZero() {
				sh.mu.Unlock()
				return true, time.Time{}
			}
			if now.IsZero() {
				now = time.Now()
			}
			if !q.deliverAt.After(now) {
				sh.mu.Unlock()
				return true, time.Time{}
			}
			if earliest.IsZero() || q.deliverAt.Before(earliest) {
				earliest = q.deliverAt
			}
		}
		sh.mu.Unlock()
	}
	return false, earliest
}
