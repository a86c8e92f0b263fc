package transport

import (
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// Outbound batching for the socket-backed wire (PeerWire).
//
// Deliver no longer pays a syscall per message: frames are staged per
// destination and emitted as one net.Buffers vectored write (writev) at a
// flush point. The flush triggers mirror the ones ack coalescing already
// uses through Engine.OnFlush:
//
//   - batch-full: staging the frame that crosses batchMaxFrames or
//     batchMaxBytes flushes the batch inline (bounded memory, and a burst
//     still goes out in large writes);
//   - age: Wire.Flush(src, force=false) — called from Engine.Progress —
//     flushes batches older than batchMaxAge;
//   - pre-block: Wire.Flush(src, force=true) — called before an engine
//     blocks in WaitUntil/Request.Wait — flushes everything staged, so a
//     process never sleeps on bytes a peer needs;
//   - backstop: a per-wire flusher goroutine force-flushes on a flushTick
//     period, keeping callers that drive Endpoint.Send without an engine
//     loop (tests, drain loops) live without an explicit Flush call.
//
// Ownership: a staged batch slice holds exactly one reference to each
// message; the flush that empties it is the one ownership handoff for every
// element — each frame is either serialized and then released, or dropped
// (dead peer, unreachable peer, write failure) and released, exactly once.
var (
	batchMaxFrames = 64
	batchMaxBytes  = 256 << 10
	batchMaxAge    = 200 * time.Microsecond
)

// flushTick is the period of the background flusher goroutine each batched
// wire runs as a liveness backstop.
const flushTick = 500 * time.Microsecond

// SetBatchLimits overrides the staging thresholds; frames <= 1 degrades to
// per-message writes (the pre-batching behavior, kept as a benchmark
// baseline). It must be called before any batched wire is created and is
// not safe to change while traffic flows. It returns a function restoring
// the previous limits.
func SetBatchLimits(frames, bytes int, age time.Duration) (restore func()) {
	pf, pb, pa := batchMaxFrames, batchMaxBytes, batchMaxAge
	if frames < 1 {
		frames = 1
	}
	batchMaxFrames, batchMaxBytes, batchMaxAge = frames, bytes, age
	return func() { batchMaxFrames, batchMaxBytes, batchMaxAge = pf, pb, pa }
}

// outBatch is the staged outbound traffic for one destination. The mutex
// is held across the vectored write that empties the batch: staging and
// flushing serialize per destination, which is what preserves per
// ordered-pair FIFO across flush boundaries.
type outBatch struct {
	// sdr:lockrank batch < ringio < peer
	// sdr:lockrank batch < conn
	mu     sync.Mutex
	frames []*Message // guarded by mu
	bytes  int        // guarded by mu
	since  time.Time  // guarded by mu; when the oldest staged frame arrived
}

// stageLocked appends m and reports whether the batch is now due for an
// inline flush. Caller holds b.mu.
func (b *outBatch) stageLocked(m *Message) bool {
	if len(b.frames) == 0 {
		b.since = time.Now()
	}
	b.frames = append(b.frames, m)
	b.bytes += wireHeaderLen + len(m.Data)
	return len(b.frames) >= batchMaxFrames || b.bytes >= batchMaxBytes
}

// takeLocked empties the batch, returning the staged frames. The returned
// slice aliases the batch's storage, which is reused after resetLocked;
// the caller must finish with it (serialize or drop every element) before
// releasing b.mu. Caller holds b.mu.
func (b *outBatch) takeLocked() []*Message {
	frames := b.frames
	b.frames = b.frames[:0]
	b.bytes = 0
	b.since = time.Time{}
	return frames
}

// dueLocked reports whether the batch has frames old enough for a
// non-forced flush. Caller holds b.mu.
func (b *outBatch) dueLocked(force bool) bool {
	if len(b.frames) == 0 {
		return false
	}
	return force || time.Since(b.since) >= batchMaxAge
}

// batchScratch is the reusable assembly area for one connection's vectored
// writes: a header arena and the net.Buffers segment list. One scratch per
// connection (guarded by the batch/conn lock) keeps flushes allocation-free
// in steady state.
type batchScratch struct {
	hdrs []byte
	bufs net.Buffers
}

// build assembles the vectored write for frames: one header segment per
// frame, followed by its payload segment when non-empty. The returned
// buffers alias the scratch arena and the frames' payloads — valid until
// the next build call — and net.Buffers.WriteTo consumes the slice it is
// invoked on, so the segment list is rebuilt here on every flush. The
// second result is the total byte count.
func (s *batchScratch) build(frames []*Message) (net.Buffers, int) {
	need := len(frames) * wireHeaderLen
	if cap(s.hdrs) < need {
		s.hdrs = make([]byte, need)
	}
	hdrs := s.hdrs[:need]
	bufs := s.bufs[:0]
	total := 0
	for i, m := range frames {
		hd := hdrs[i*wireHeaderLen : (i+1)*wireHeaderLen]
		putMessageHeader(hd, m)
		bufs = append(bufs, hd)
		if len(m.Data) > 0 {
			bufs = append(bufs, m.Data)
		}
		total += wireHeaderLen + len(m.Data)
	}
	s.bufs = bufs
	return bufs, total
}

// freeFrames releases every staged frame after a successful serialization —
// the single ownership handoff for the batch's elements.
func freeFrames(frames []*Message) {
	for i, m := range frames {
		FreeMessage(m)
		frames[i] = nil
	}
}

// dropFrames fail-stop-drops a batch: every frame is counted against the
// reason-labeled drop counter and released. The bytes fall off the wire.
func dropFrames(frames []*Message, reason *obs.Counter) {
	if len(frames) == 0 {
		return
	}
	reason.Add(uint64(len(frames)))
	freeFrames(frames)
}
