package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Dialing policy of the peer wire. A dead remote peer must never
// hang a sender forever: every dial carries a hard timeout, and the retry
// loop is bounded — after it, the message is treated as fallen off the
// wire (fail-stop) or the error surfaces to the caller.
const (
	// DialTimeout bounds one connection attempt.
	DialTimeout = 2 * time.Second
	// DialAttempts bounds the redial loop.
	DialAttempts = 3
	// dialBackoff is the initial sleep between attempts (doubled each
	// retry, so the total worst-case stall is bounded and small).
	dialBackoff = 25 * time.Millisecond
)

// dialRetry dials addr with DialTimeout per attempt and full-jitter
// backoff between attempts. It returns the first successful connection or
// the last error once the attempt budget is spent.
//
// The jitter matters at scale: a 256-worker rendezvous has every worker
// dialing every exchange peer in the same instant, and a deterministic
// 25/50/100 ms ladder re-aligns the whole herd on each retry — the
// listeners that dropped the first SYN flood get the identical flood again.
// Full jitter (uniform in (0, ceiling], ceiling doubling per retry) spreads
// each wave across the whole window while keeping the worst-case stall
// identical to the old deterministic ladder.
func dialRetry(addr string) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(jitteredBackoff(attempt))
		}
		c, err := net.DialTimeout("tcp", addr, DialTimeout)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// jitteredBackoff returns the sleep before retry `attempt` (1-based):
// uniform in (0, dialBackoff·2^(attempt-1)].
func jitteredBackoff(attempt int) time.Duration {
	ceiling := dialBackoff << (attempt - 1)
	return time.Duration(rand.Int64N(int64(ceiling))) + 1
}

// RingConfig arms the colocated shared-memory ring transport on a peer
// wire: Dir is the coordinator-provided per-epoch directory holding one
// ring file per ordered pair, Bytes the per-pair capacity (0 =
// DefaultRingBytes). See ring.go for the transport itself.
type RingConfig struct {
	Dir   string
	Bytes int
}

// PeerWire is the socket transport: one instance lives in each worker OS
// process, listens on its own port for inbound traffic, and dials its
// *peers'* listeners (looked up in the rendezvous table the registry
// distributed).
//
// Outbound traffic is batch-first: Deliver stages frames per destination
// and Flush emits each staged batch as one net.Buffers vectored write (or
// one ring push for colocated peers) — see batch.go for the triggers.
//
// Delivery semantics:
//   - messages addressed to the local process are injected directly into
//     its endpoint queue (no socket round-trip);
//   - messages to a peer are staged and flushed onto a lazily dialed,
//     cached connection (one per destination, preserving per-pair FIFO
//     across flush boundaries) — or onto the pair's shared-memory ring
//     when rendezvous negotiated one (same host, ring directory armed);
//   - messages to a peer declared dead — or one that stays unreachable
//     after the bounded dial budget — are dropped: the fail-stop model's
//     bytes-fall-off-the-wire rule, exactly like Endpoint.Send to a killed
//     in-process endpoint. The failure detector (the coordinator's control
//     plane) is the authority on death; the wire never invents liveness
//     information, it only stops burning dial budgets once told. Every
//     drop is counted on sdr_transport_dropped_total with its reason.
type PeerWire struct {
	nw   *Network
	self ProcID
	ln   net.Listener

	mu      sync.Mutex            // sdr:lockrank peer
	addrs   []string              // guarded by mu; proc → listener address ("" = unknown/local)
	conns   map[ProcID]*tcpConn   // guarded by mu
	down    map[ProcID]bool       // guarded by mu; peers declared dead by the control plane
	inbound map[net.Conn]struct{} // guarded by mu

	// Outbound staging, indexed by destination; staged counts frames
	// across all batches so engine-driven flushes are a cheap no-op when
	// nothing is pending.
	batches []*outBatch
	staged  atomic.Int64

	// Ring transport state: ringTo[dst] true selects the ring path for
	// the pair — set for colocated peers at SetRingPeers time,
	// permanently cleared on death/revive or any ring failure (open
	// failure, stalled or interrupted push).
	ringCfg  RingConfig    // guarded by mu
	ringTo   []bool        // guarded by mu
	ringWr   []*ringWriter // guarded by mu
	readers  atomic.Pointer[[]*ringReader]
	scanOnce sync.Once

	// ringIO fences producer-side ring access against Close's unmap:
	// flushRing holds it shared across its writes (application goroutines
	// flushing inline are not tracked by wg), and Close takes it
	// exclusively — after done is closed, so no writer parks on a full
	// ring while holding it — before releasing the mappings.
	ringIO sync.RWMutex // sdr:lockrank ringio

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// tcpConn is one established outbound stream to a peer. The scratch is
// the per-connection vectored-write assembly area, guarded by mu together
// with the socket itself.
type tcpConn struct {
	mu      sync.Mutex // sdr:lockrank conn
	c       net.Conn
	scratch batchScratch // guarded by mu
}

// NewPeerWire creates a peer wire for local process self, listening on
// listenAddr (host:0 picks a free port), and installs it on the network
// (constructor injection; there is no post-construction wire swap). Peer
// addresses must be provided via SetPeers before any remote traffic
// flows; the rendezvous registry guarantees that ordering by broadcasting
// the world table only after every worker has registered its listener.
func NewPeerWire(nw *Network, self ProcID, listenAddr string) (*PeerWire, error) {
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: peer wire listen: %w", err)
	}
	return newPeerWire(nw, self, ln), nil
}

// newPeerWire builds the wire around an already bound listener and starts
// its accept and flush loops.
func newPeerWire(nw *Network, self ProcID, ln net.Listener) *PeerWire {
	pw := &PeerWire{
		nw:      nw,
		self:    self,
		ln:      ln,
		addrs:   make([]string, nw.Size()),
		conns:   make(map[ProcID]*tcpConn),
		down:    make(map[ProcID]bool),
		inbound: make(map[net.Conn]struct{}),
		batches: make([]*outBatch, nw.Size()),
		done:    make(chan struct{}),
	}
	for i := range pw.batches {
		pw.batches[i] = &outBatch{}
	}
	pw.wg.Add(1)
	go pw.acceptLoop()
	pw.wg.Add(1)
	go pw.flushLoop()
	nw.installWire(pw)
	return pw
}

// NewPeerNetwork builds a full-size network whose only live endpoint is
// self, wired to its peers through a PeerWire injected at construction —
// the one-step replacement for the retired NewNetwork-then-SetWire
// two-step used by the distributed worker.
func NewPeerNetwork(n int, self ProcID, listenAddr string) (*Network, *PeerWire, error) {
	nw := NewNetwork(n, nil)
	pw, err := NewPeerWire(nw, self, listenAddr)
	if err != nil {
		return nil, nil, err
	}
	return nw, pw, nil
}

// Addr returns the local listener address — what the worker registers with
// the rendezvous registry.
func (pw *PeerWire) Addr() string { return pw.ln.Addr().String() }

// SetPeers installs the ProcID → address table (the registry's world
// broadcast). The local process's own entry is ignored.
func (pw *PeerWire) SetPeers(addrs []string) {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	for p, a := range addrs {
		if p < len(pw.addrs) && ProcID(p) != pw.self {
			pw.addrs[p] = a
		}
	}
}

// SetRingPeers arms the colocated ring transport: colocated[p] marks the
// peers sharing this worker's host (from the registry's world broadcast).
// For each of them the pair's outbound traffic switches from loopback TCP
// to the shared-memory ring, and a scan goroutine starts draining the
// inbound rings. Must be called alongside SetPeers, before remote traffic
// flows; peers already declared dead stay banned. A no-op when the
// platform has no ring support or cfg.Dir is empty.
func (pw *PeerWire) SetRingPeers(cfg RingConfig, colocated []bool) {
	if !ringSupported() || cfg.Dir == "" {
		return
	}
	if cfg.Bytes <= 0 {
		cfg.Bytes = DefaultRingBytes
	}
	n := pw.nw.Size()
	pw.mu.Lock()
	pw.ringCfg = cfg
	pw.ringTo = make([]bool, n)
	pw.ringWr = make([]*ringWriter, n)
	for p := 0; p < n && p < len(colocated); p++ {
		if colocated[p] && ProcID(p) != pw.self && !pw.down[ProcID(p)] {
			pw.ringTo[p] = true
		}
	}
	pw.mu.Unlock()

	// Attach the inbound side eagerly: the producer may start writing the
	// moment its world table lands, and the ring file buffers until this
	// consumer attaches. An attach failure leaves that pair on TCP —
	// inbound TCP is always accepted, so the asymmetry is harmless.
	var rs []*ringReader
	for p := 0; p < n && p < len(colocated); p++ {
		if !colocated[p] || ProcID(p) == pw.self {
			continue
		}
		rr, err := newRingReader(ringPath(cfg.Dir, ProcID(p), pw.self), cfg.Bytes, ProcID(p))
		if err != nil {
			continue
		}
		rs = append(rs, rr)
	}
	if len(rs) > 0 {
		pw.readers.Store(&rs)
		pw.scanOnce.Do(func() {
			pw.wg.Add(1)
			go pw.ringScanLoop()
		})
	}
}

// ringPath names the ring file for the ordered pair src→dst.
func ringPath(dir string, src, dst ProcID) string {
	return filepath.Join(dir, fmt.Sprintf("ring-%d-%d", src, dst))
}

// MarkDead records that peer p has failed (control-plane notification):
// its cached connection is dropped, its ring (if any) is permanently
// banned, and every later Deliver to it becomes an immediate fail-stop
// drop instead of a doomed dial.
func (pw *PeerWire) MarkDead(p ProcID) {
	pw.mu.Lock()
	pw.down[p] = true
	pw.banRingLocked(p)
	tc := pw.conns[p]
	delete(pw.conns, p)
	pw.mu.Unlock()
	if tc != nil {
		tc.c.Close()
	}
	// Frames already staged for p are dropped now rather than at the next
	// flush: the control plane said the bytes have nowhere to go. The drop
	// happens under b.mu — takeLocked's slice aliases the batch's backing
	// array, so it must be fully consumed before a concurrent Deliver can
	// stage into the same slots.
	if int(p) < len(pw.batches) {
		b := pw.batches[p]
		b.mu.Lock()
		if frames := b.takeLocked(); len(frames) > 0 {
			pw.staged.Add(int64(-len(frames)))
			dropFrames(frames, mDroppedDead)
		}
		b.mu.Unlock()
	}
}

// banRingLocked permanently disables the ring pair to p. The ring's SPSC
// stream cannot survive an incarnation change (a producer killed mid-frame
// leaves a torn stream), so death is a one-way switch back to TCP — and
// the revived incarnation starts with rings disabled for the same reason.
func (pw *PeerWire) banRingLocked(p ProcID) {
	if int(p) < len(pw.ringTo) {
		pw.ringTo[p] = false
	}
}

// Revive reverses MarkDead for a relaunched peer: its new listener address
// replaces the stale one and later flushes dial it again. Any cached
// connection is dropped — it pointed at the dead incarnation — and the
// ring ban stays: the new incarnation talks TCP.
func (pw *PeerWire) Revive(p ProcID, addr string) {
	pw.mu.Lock()
	delete(pw.down, p)
	pw.banRingLocked(p)
	if int(p) < len(pw.addrs) && p != pw.self && addr != "" {
		pw.addrs[p] = addr
	}
	tc := pw.conns[p]
	delete(pw.conns, p)
	pw.mu.Unlock()
	if tc != nil {
		tc.c.Close()
	}
}

func (pw *PeerWire) acceptLoop() {
	defer pw.wg.Done()
	backoff := time.Millisecond
	for {
		c, err := pw.ln.Accept()
		if err != nil {
			select {
			case <-pw.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (ECONNABORTED, EMFILE, ...): a
			// single error must not silently kill the listener for the
			// rest of the run. Back off — doubling so a persistent error
			// does not become a busy loop — and keep accepting.
			time.Sleep(backoff)
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = time.Millisecond
		pw.mu.Lock()
		pw.inbound[c] = struct{}{}
		pw.mu.Unlock()
		pw.wg.Add(1)
		go pw.readLoop(c)
	}
}

// flushLoop is the liveness backstop: traffic staged by callers that never
// drive an engine flush still goes out within a flush tick.
func (pw *PeerWire) flushLoop() {
	defer pw.wg.Done()
	tick := time.NewTicker(flushTick)
	defer tick.Stop()
	for {
		select {
		case <-pw.done:
			return
		case <-tick.C:
			_ = pw.Flush(NoProc, true)
		}
	}
}

// ringScanLoop multiplexes every inbound ring through one goroutine: a
// non-blocking poll pass over all readers, with backoff while every ring
// is idle. One goroutine (not one per ring) keeps 64-rank colocated
// worlds at one scanner per process.
//
// The idle backoff parks almost immediately (no Gosched spin phase,
// unlike the producer's ringBackoff): the scanner covers every inbound
// ring at once, so a hot spin here burns a core whenever ANY peer is
// quiet — and a process hosting many wires (the in-process scaling
// bench) would melt under one spinner per wire. A 20µs nap per idle pass
// is far below the loopback TCP round trip the ring replaces.
func (pw *PeerWire) ringScanLoop() {
	defer pw.wg.Done()
	idle := 0
	for {
		select {
		case <-pw.done:
			return
		default:
		}
		progressed := false
		if rs := pw.readers.Load(); rs != nil {
			for _, rr := range *rs {
				if rr.poll(pw.ringInject) {
					progressed = true
				}
			}
		}
		if progressed {
			idle = 0
			continue
		}
		idle++
		switch {
		case idle < 2:
			runtime.Gosched()
		case idle < 512:
			time.Sleep(20 * time.Microsecond)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// ringInject hands one ring-delivered frame to the local endpoint,
// mirroring readLoop's misrouted-frame rejection.
func (pw *PeerWire) ringInject(m *Message) {
	mRingFramesIn.Inc()
	mBytesIn.Add(uint64(wireHeaderLen + len(m.Data)))
	if m.Dst != pw.self {
		FreeMessage(m)
		return
	}
	pw.nw.eps[int(m.Dst)].inject(m)
}

// readLoop decodes inbound peer traffic and injects it into the local
// endpoint. A decode error or EOF (peer died, connection reset) simply
// ends the connection: retransmission is the sender's protocol-level
// concern, not the wire's.
func (pw *PeerWire) readLoop(c net.Conn) {
	defer pw.wg.Done()
	defer func() {
		c.Close()
		pw.mu.Lock()
		delete(pw.inbound, c)
		pw.mu.Unlock()
	}()
	r := bufio.NewReaderSize(c, 256<<10)
	var pre [8]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return
	}
	for {
		m, err := decodeMessagePooled(r)
		if err != nil {
			return
		}
		mBytesIn.Add(uint64(wireHeaderLen + len(m.Data)))
		if m.Dst != pw.self {
			// Misrouted frame: this listener only serves the local
			// process. Drop it rather than corrupting a foreign queue.
			FreeMessage(m)
			continue
		}
		pw.nw.eps[int(m.Dst)].inject(m)
	}
}

// Deliver implements Wire. Local destinations bypass the sockets entirely;
// remote ones are staged on the destination's batch — dead ones are
// dropped at stage time (counted, reason "dead"). The batch that fills
// past a threshold is flushed inline.
func (pw *PeerWire) Deliver(m *Message) error {
	if m.Dst == pw.self {
		pw.nw.eps[int(m.Dst)].inject(m)
		return nil
	}
	if int(m.Dst) >= len(pw.batches) {
		dropFrames([]*Message{m}, mDroppedUnreachable)
		return nil
	}
	pw.mu.Lock()
	dead := pw.down[m.Dst]
	pw.mu.Unlock()
	if dead {
		dropFrames([]*Message{m}, mDroppedDead)
		return nil
	}
	b := pw.batches[m.Dst]
	b.mu.Lock()
	// The shutdown check lives under b.mu so it serializes with Close's
	// drain sweep: any frame staged before the sweep takes the batch lock
	// is swept, any Deliver arriving after it lands here and drops.
	select {
	case <-pw.done:
		b.mu.Unlock()
		dropFrames([]*Message{m}, mDroppedClosed)
		return nil
	default:
	}
	full := b.stageLocked(m)
	pw.staged.Add(1)
	if full {
		pw.flushBatchLocked(m.Dst, b)
	}
	b.mu.Unlock()
	return nil
}

// Flush implements Wire: emit batches staged by this process — all when
// force is true, only aged ones otherwise. The src parameter is ignored:
// a peer wire serves exactly one source, its own process. Delivery
// failures never surface as errors here; they are fail-stop drops, counted
// by reason.
func (pw *PeerWire) Flush(_ ProcID, force bool) error {
	if pw.staged.Load() == 0 {
		return nil
	}
	for dst, b := range pw.batches {
		b.mu.Lock()
		if b.dueLocked(force) {
			pw.flushBatchLocked(ProcID(dst), b)
		}
		b.mu.Unlock()
	}
	return nil
}

// flushBatchLocked emits dst's staged frames: one ring push for a
// colocated pair, otherwise one net.Buffers vectored write on the cached
// connection (redialing once on a fresh stream after a write error, as a
// mid-batch failure leaves the old one misframed). Caller holds the
// batch's mutex — the per-pair serialization that makes staging order the
// emission order.
func (pw *PeerWire) flushBatchLocked(dst ProcID, b *outBatch) {
	frames := b.takeLocked()
	if len(frames) == 0 {
		return
	}
	pw.staged.Add(int64(-len(frames)))

	// A flush racing with Close must not dial or touch ring mappings the
	// teardown is about to release; its frames are shutdown drops.
	select {
	case <-pw.done:
		dropFrames(frames, mDroppedClosed)
		return
	default:
	}

	pw.mu.Lock()
	if pw.down[dst] {
		pw.mu.Unlock()
		dropFrames(frames, mDroppedDead)
		return
	}
	ring := int(dst) < len(pw.ringTo) && pw.ringTo[dst]
	pw.mu.Unlock()

	if ring && pw.flushRing(dst, frames) {
		return
	}
	pw.flushTCP(dst, frames)
}

// flushRing pushes a batch through the pair's shared-memory ring. It
// reports false — leaving the frames for the TCP path — only when the
// ring could not be opened at all (nothing was ever written to it, so
// switching transports preserves FIFO). After the first successful open, a
// push failure is a fail-stop drop AND a permanent ban of the pair: the
// consumer stopped draining, which from this side is indistinguishable
// from death, and without the ban every later flush would re-pay the full
// stall timeout under the batch lock — freezing the sender's progress
// loop until the control plane declares the peer dead.
func (pw *PeerWire) flushRing(dst ProcID, frames []*Message) bool {
	pw.mu.Lock()
	wr := pw.ringWr[dst]
	if wr == nil {
		cfg := pw.ringCfg
		pw.mu.Unlock()
		pipe, err := openRing(ringPath(cfg.Dir, pw.self, dst), cfg.Bytes)
		pw.mu.Lock()
		if err != nil {
			pw.banRingLocked(dst)
			pw.mu.Unlock()
			return false
		}
		wr = &ringWriter{pipe: pipe, done: pw.done}
		pw.ringWr[dst] = wr
	}
	pw.mu.Unlock()

	// The shared fence keeps Close from unmapping the ring while this
	// (wg-untracked) goroutine is copying into it: a writer that observes
	// done open here finishes its writes before Close can take the fence
	// exclusively; one that observes it closed never touches the mapping.
	pw.ringIO.RLock()
	defer pw.ringIO.RUnlock()
	select {
	case <-pw.done:
		dropFrames(frames, mDroppedClosed)
		return true
	default:
	}

	total := 0
	for i, m := range frames {
		if err := wr.writeFrame(m); err != nil {
			pw.mu.Lock()
			pw.banRingLocked(dst)
			pw.mu.Unlock()
			dropFrames(frames[i:], mDroppedWrite)
			frames = frames[:i]
			break
		}
		total += wireHeaderLen + len(m.Data)
	}
	if len(frames) > 0 {
		mFlushes.Inc()
		mFlushFrames.Add(uint64(len(frames)))
		mRingFramesOut.Add(uint64(len(frames)))
		mBytesOut.Add(uint64(total))
		freeFrames(frames)
	}
	return true
}

// flushTCP emits a batch as one vectored write on the cached connection to
// dst. A write error drops the connection (the stream is mid-batch and
// every later write would be misframed) and retries the whole batch once
// on a fresh dial; if the peer stays unreachable the frames are released —
// fail-stop, counted by reason.
func (pw *PeerWire) flushTCP(dst ProcID, frames []*Message) {
	for attempt := 0; attempt < 2; attempt++ {
		tc, err := pw.conn(dst)
		if err != nil {
			dropFrames(frames, mDroppedUnreachable)
			return
		}
		tc.mu.Lock()
		bufs, total := tc.scratch.build(frames)
		// sdr:holdblock-ok per-pair FIFO: the conn lock must cover the vectored write so flushes never interleave
		_, err = bufs.WriteTo(tc.c)
		tc.mu.Unlock()
		if err == nil {
			mFlushes.Inc()
			mFlushFrames.Add(uint64(len(frames)))
			mBytesOut.Add(uint64(total))
			freeFrames(frames)
			return
		}
		pw.dropConn(dst, tc)
		mRedials.Inc()
	}
	dropFrames(frames, mDroppedWrite)
}

// conn returns the cached connection to dst, dialing it on first use.
func (pw *PeerWire) conn(dst ProcID) (*tcpConn, error) {
	pw.mu.Lock()
	if pw.down[dst] {
		pw.mu.Unlock()
		return nil, fmt.Errorf("transport: peer %d is dead", dst)
	}
	if tc, ok := pw.conns[dst]; ok {
		pw.mu.Unlock()
		return tc, nil
	}
	addr := ""
	if int(dst) < len(pw.addrs) {
		addr = pw.addrs[int(dst)]
	}
	pw.mu.Unlock()
	if addr == "" {
		return nil, fmt.Errorf("transport: no address for peer %d", dst)
	}

	// Dial outside the wire lock: a slow or dead peer must not stall
	// deliveries to every other destination.
	c, err := dialRetry(addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial peer %d (%s): %w", dst, addr, err)
	}
	var pre [8]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(int32(pw.self)))
	binary.LittleEndian.PutUint32(pre[4:], uint32(int32(dst)))
	if _, err := c.Write(pre[:]); err != nil {
		c.Close()
		return nil, err
	}
	tc := &tcpConn{c: c}

	pw.mu.Lock()
	if pw.down[dst] {
		pw.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("transport: peer %d died during dial", dst)
	}
	if prev, ok := pw.conns[dst]; ok {
		// A concurrent flush won the dial race; keep its connection so
		// the (self,dst) stream stays a single FIFO.
		pw.mu.Unlock()
		c.Close()
		return prev, nil
	}
	pw.conns[dst] = tc
	pw.mu.Unlock()
	return tc, nil
}

// dropConn closes tc and forgets it, provided dst's slot still holds it.
func (pw *PeerWire) dropConn(dst ProcID, tc *tcpConn) {
	pw.mu.Lock()
	if pw.conns[dst] == tc {
		delete(pw.conns, dst)
	}
	pw.mu.Unlock()
	tc.c.Close()
}

// Close shuts the wire down: a final forced flush pushes out anything
// staged, then listener, inbound readers, outbound connections and rings
// close; frames staged by a Deliver racing the shutdown are dropped and
// freed (counted, reason "closed") rather than stranded. Inbound
// connections must be closed here too — they are peers' outbound conns,
// and waiting for the peer to close its side first would deadlock two
// wires closing in sequence. Idempotent.
func (pw *PeerWire) Close() error {
	pw.closeOnce.Do(func() {
		_ = pw.Flush(NoProc, true)
		close(pw.done)
		pw.ln.Close()
		pw.mu.Lock()
		for _, tc := range pw.conns {
			tc.c.Close()
		}
		for c := range pw.inbound {
			c.Close()
		}
		pw.mu.Unlock()
		pw.wg.Wait()
		// Frames staged between the final flush snapshot and the done
		// signal have no emitter left (flushLoop has exited): drop and
		// free them rather than stranding pooled buffers. The sweep
		// serializes with Deliver's under-lock shutdown check, so nothing
		// can stage after it.
		for _, b := range pw.batches {
			b.mu.Lock()
			if frames := b.takeLocked(); len(frames) > 0 {
				pw.staged.Add(int64(-len(frames)))
				dropFrames(frames, mDroppedClosed)
			}
			b.mu.Unlock()
		}
		// The scan goroutine has exited (readers idle) and the ringIO
		// fence drains in-flight producer writes: unmap the rings.
		pw.ringIO.Lock()
		if rs := pw.readers.Load(); rs != nil {
			for _, rr := range *rs {
				rr.close()
			}
		}
		pw.mu.Lock()
		for _, wr := range pw.ringWr {
			if wr != nil {
				wr.pipe.close()
			}
		}
		pw.mu.Unlock()
		pw.ringIO.Unlock()
	})
	return nil
}
