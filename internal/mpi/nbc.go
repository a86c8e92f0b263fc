package mpi

// Non-blocking collectives (MPI_Ibarrier, MPI_Ibcast, MPI_Iallreduce,
// MPI_Iallgather, MPI_Igather, MPI_Iscatter, MPI_Ialltoall, MPI_Iscan,
// MPI_Ireduce). Each call lays out its whole schedule up front as stages of
// plain point-to-point operations, using the same algorithm as its
// blocking counterpart, and returns an ordinary Request whose gate posts
// the next stage once the previous one completes. The schedule progresses
// whenever the application waits or tests (the paper's no-asynchronous-
// progress model), and the replication protocols cover it exactly as they
// cover the blocking collectives.

// nbcStage is one round of a schedule: its receives and sends are posted
// together under the round's tag, and then runs once all have completed.
type nbcStage struct {
	round        int
	recvs, sends []nbcXfer
	then         func()
}

type nbcXfer struct {
	peer Rank
	buf  []byte
}

func (s *nbcStage) recv(peer Rank, buf []byte) *nbcStage {
	s.recvs = append(s.recvs, nbcXfer{peer, buf})
	return s
}

func (s *nbcStage) send(peer Rank, buf []byte) *nbcStage {
	s.sends = append(s.sends, nbcXfer{peer, buf})
	return s
}

// nbcSchedule is the stage list of one non-blocking collective call.
type nbcSchedule struct {
	c      *Comm
	seq    uint64
	stages []*nbcStage
}

func (c *Comm) newSchedule() *nbcSchedule {
	return &nbcSchedule{c: c, seq: c.nextCollSeq()}
}

// stage appends an empty stage tagged with round.
func (b *nbcSchedule) stage(round int) *nbcStage {
	s := &nbcStage{round: round}
	b.stages = append(b.stages, s)
	return s
}

// start wraps the schedule into a Request. The gate keeps posting stages
// while they complete at once: a stage of eager sends finishes on posting,
// and stopping there would strand the schedule until some unrelated
// message happened to wake the waiter.
func (b *nbcSchedule) start() *Request {
	var pending []*Request
	next := 0
	return NewRequest(b.c, true, nil, func() bool {
		for {
			for _, r := range pending {
				if r != nil && !r.ready() {
					return false
				}
			}
			pending = pending[:0]
			if next > 0 && b.stages[next-1].then != nil {
				b.stages[next-1].then()
				b.stages[next-1].then = nil
			}
			if next == len(b.stages) {
				return true
			}
			s := b.stages[next]
			next++
			tag := collTag(b.seq, s.round)
			for _, x := range s.recvs {
				pending = append(pending, b.c.irecvColl(x.peer, tag, x.buf))
			}
			for _, x := range s.sends {
				pending = append(pending, b.c.isendColl(x.peer, tag, x.buf))
			}
		}
	})
}

// Ibarrier starts a non-blocking barrier (dissemination rounds).
func (c *Comm) Ibarrier() *Request {
	b := c.newSchedule()
	size, rank := c.Size(), int(c.rank)
	token := make([]byte, 1)
	for round, dist := 0, 1; dist < size; round, dist = round+1, dist*2 {
		b.stage(round).recv(Rank((rank-dist+size)%size), token).send(Rank((rank+dist)%size), nil)
	}
	return b.start()
}

// Ibcast starts a non-blocking broadcast (binomial tree). On non-roots,
// data holds the payload once the request completes.
func (c *Comm) Ibcast(root Rank, data []byte) *Request {
	b := c.newSchedule()
	size := c.Size()
	vrank := (int(c.rank) - int(root) + size) % size
	mask := 1
	for ; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			b.stage(0).recv(Rank((vrank-mask+int(root))%size), data)
			break
		}
	}
	s := b.stage(0)
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < size {
			s.send(Rank((vrank+mask+int(root))%size), data)
		}
	}
	return b.start()
}

// Iallreduce starts a non-blocking allreduce (Allreduce's recursive
// doubling with the non-power-of-two fold, so results match it bit for
// bit). The returned buffer holds the result once the request completes.
func (c *Comm) Iallreduce(data []byte, dt Datatype, op Op) (*Request, []byte) {
	b := c.newSchedule()
	size, rank := c.Size(), int(c.rank)
	acc := append([]byte(nil), data...)
	tmp := make([]byte, len(data))
	fold := func() { op.Apply(dt, acc, tmp) }
	pow2 := 1
	for pow2*2 <= size {
		pow2 *= 2
	}
	rem := size - pow2
	last := 1 + log2ceil(pow2) // round of the surplus ranks' return leg
	switch {
	case rank >= pow2:
		b.stage(0).send(Rank(rank-pow2), acc)
		b.stage(last).recv(Rank(rank-pow2), acc)
		return b.start(), acc
	case rank < rem:
		b.stage(0).recv(Rank(rank+pow2), tmp).then = fold
	}
	for round, dist := 1, 1; dist < pow2; round, dist = round+1, dist*2 {
		b.stage(round).recv(Rank(rank^dist), tmp).send(Rank(rank^dist), acc).then = fold
	}
	if rank < rem {
		b.stage(last).send(Rank(rank+pow2), acc)
	}
	return b.start(), acc
}

// Iallgather starts a non-blocking allgather (ring). The returned buffer
// holds all blocks once the request completes.
func (c *Comm) Iallgather(data []byte) (*Request, []byte) {
	b := c.newSchedule()
	size, rank, bl := c.Size(), int(c.rank), len(data)
	out := make([]byte, size*bl)
	copy(out[rank*bl:], data)
	block := func(i int) []byte { i = (i + size) % size; return out[i*bl : (i+1)*bl] }
	for step := 0; step < size-1; step++ {
		b.stage(step).recv(Rank((rank-1+size)%size), block(rank-step-1)).send(Rank((rank+1)%size), block(rank-step))
	}
	return b.start(), out
}

// Igather starts a non-blocking linear gather to root. The returned buffer
// (nil except on the root) holds all blocks, in rank order, once the
// request completes.
func (c *Comm) Igather(root Rank, data []byte) (*Request, []byte) {
	b := c.newSchedule()
	s := b.stage(0)
	if c.rank != root {
		s.send(root, data)
		return b.start(), nil
	}
	bl := len(data)
	out := make([]byte, c.Size()*bl)
	copy(out[int(root)*bl:], data)
	for r := 0; r < c.Size(); r++ {
		if Rank(r) != root {
			s.recv(Rank(r), out[r*bl:(r+1)*bl])
		}
	}
	return b.start(), out
}

// Iscatter starts a non-blocking linear scatter from root: block r of the
// root's data goes to rank r's recvBuf. data is only read on the root.
func (c *Comm) Iscatter(root Rank, data []byte, recvBuf []byte) *Request {
	b := c.newSchedule()
	s := b.stage(0)
	if c.rank != root {
		s.recv(root, recvBuf)
		return b.start()
	}
	bl := len(recvBuf)
	copy(recvBuf, data[int(root)*bl:])
	for r := 0; r < c.Size(); r++ {
		if Rank(r) != root {
			s.send(Rank(r), data[r*bl:(r+1)*bl])
		}
	}
	return b.start()
}

// Ialltoall starts a non-blocking all-to-all exchange, every pair posted
// in one round. Block r of data goes to rank r; the returned buffer holds
// one block from every rank once the request completes.
func (c *Comm) Ialltoall(data []byte) (*Request, []byte) {
	b := c.newSchedule()
	size, rank := c.Size(), int(c.rank)
	bl := len(data) / size
	out := make([]byte, len(data))
	copy(out[rank*bl:(rank+1)*bl], data[rank*bl:])
	s := b.stage(0)
	for d := 1; d < size; d++ {
		src, dst := (rank-d+size)%size, (rank+d)%size
		s.recv(Rank(src), out[src*bl:(src+1)*bl]).send(Rank(dst), data[dst*bl:(dst+1)*bl])
	}
	return b.start(), out
}

// Iscan starts a non-blocking inclusive prefix reduction (Scan's linear
// chain). The returned buffer holds the fold over ranks 0..me once the
// request completes.
func (c *Comm) Iscan(data []byte, dt Datatype, op Op) (*Request, []byte) {
	b := c.newSchedule()
	rank := int(c.rank)
	acc := append([]byte(nil), data...)
	if rank > 0 {
		left := make([]byte, len(data))
		b.stage(0).recv(Rank(rank-1), left).then = func() { op.Apply(dt, acc, left) }
	}
	if rank < c.Size()-1 {
		b.stage(0).send(Rank(rank+1), acc)
	}
	return b.start(), acc
}

// Ireduce starts a non-blocking reduction to root (Reduce's binomial
// tree). The returned buffer is meaningful on the root once complete.
func (c *Comm) Ireduce(root Rank, data []byte, dt Datatype, op Op) (*Request, []byte) {
	b := c.newSchedule()
	size := c.Size()
	vrank := (int(c.rank) - int(root) + size) % size
	acc := append([]byte(nil), data...)
	tmp := make([]byte, len(data))
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			b.stage(0).send(Rank((vrank-mask+int(root))%size), acc)
			break
		}
		if peer := vrank | mask; peer < size {
			b.stage(0).recv(Rank((peer+int(root))%size), tmp).then = func() { op.Apply(dt, acc, tmp) }
		}
	}
	return b.start(), acc
}
