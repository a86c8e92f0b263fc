package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
)

// The distributed control plane: one rendezvous registry lives in the
// coordinator process; every worker keeps a single TCP connection to it
// for the whole epoch. The connection carries newline-delimited JSON
// control messages (ctlMsg) and doubles as the worker's health channel —
// its death is itself a failure signal.
//
// Handshake (per epoch):
//
//	worker → registry   {"op":"hello","proc":P,"addr":"host:port"}
//	registry → worker   {"op":"world","addrs":[addr0, addr1, ...]}
//
// The registry broadcasts the world table only once all r·n workers have
// registered their peer-wire listeners, so no worker ever dials a peer
// that is not yet listening. After the handshake:
//
//	worker → registry   {"op":"ping"}                       liveness
//	worker → registry   {"op":"ckpt","rank":R,"step":S}     rank's file in place
//	worker → registry   {"op":"killme","proc":P,"step":S}   at a scheduled
//	                    kill boundary; the worker then blocks awaiting
//	                    SIGKILL from the coordinator
//	worker → registry   {"op":"exhausted","rank":R}         last replica of
//	                    R died; worker exits with code 3
//	worker → registry   {"op":"done","proc":P,...}          app finished
//	registry → worker   {"op":"dead","proc":P}              failure
//	                    notification (the paper's external detector)
//	registry → worker   {"op":"shutdown"}                   all done; exit
type ctlMsg struct {
	Op    string   `json:"op"`
	Proc  int      `json:"proc,omitempty"`
	Rank  int      `json:"rank,omitempty"`
	Step  int      `json:"step,omitempty"`
	Addr  string   `json:"addr,omitempty"`
	Addrs []string `json:"addrs,omitempty"`
	// Host is the worker's host identity (op == "hello") and Hosts the
	// per-proc identity table (op == "world"): the same-host detection
	// that lets pairs of colocated workers negotiate the shared-memory
	// ring transport instead of loopback TCP at rendezvous time. The
	// identity is hostIdentity() — hostname hardened with machine/boot
	// IDs, since a bare hostname collides across cloned images.
	Host  string   `json:"host,omitempty"`
	Hosts []string `json:"hosts,omitempty"`
	// For carries the subject of an acknowledgement when it differs from
	// the sender (op == "reviveok": the revived proc being acked). Without
	// it, concurrent rejoins could not credit acks to the right handshake.
	For int `json:"for,omitempty"`
	// Obs is the worker's observability address (op == "hello"): the
	// loopback host:port serving /healthz and /metrics.
	Obs string `json:"obs,omitempty"`

	// Result payload (op == "done").
	Checksum   float64 `json:"checksum,omitempty"`
	Residual   float64 `json:"residual,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Err        string  `json:"err,omitempty"`
}

// Control-plane ops.
const (
	opHello     = "hello"
	opWorld     = "world"
	opPing      = "ping"
	opCkpt      = "ckpt"
	opKillMe    = "killme"
	opExhausted = "exhausted"
	opDone      = "done"
	opDead      = "dead"
	opShutdown  = "shutdown"
	// opRevive announces a relaunched worker's new listener address to the
	// survivors (localized replay); each replies with opReviveAck once its
	// peer wire points at the new incarnation, and only when every live
	// worker has acknowledged does the registry hand the joiner the world
	// table — so the joiner's in-band recovery broadcast can never race a
	// survivor's stale dead-marking.
	opRevive    = "revive"
	opReviveAck = "reviveok"
)

// Worker exit codes (the launcher's failure ladder reads them).
const (
	// workerExitConfig signals a setup/config error before the app ran.
	workerExitConfig = 2
	// workerExitExhausted signals replication exhaustion: the worker
	// observed the last replica of some rank die and the run must roll
	// back to the latest committed checkpoint wave.
	workerExitExhausted = 3
)

// regEventKind discriminates registry events surfaced to the coordinator.
type regEventKind int

const (
	evReady     regEventKind = iota // all workers joined; world broadcast sent
	evKillMe                        // worker reached a scheduled kill boundary
	evExhausted                     // worker reported replication exhaustion
	evDone                          // worker finished its application body
	evLost                          // worker control connection dropped
)

// regEvent is one control-plane observation.
type regEvent struct {
	kind regEventKind
	proc int
	msg  ctlMsg
}

// regConn is the registry's handle on one worker connection.
type regConn struct {
	mu  sync.Mutex    // sdr:lockrank regconn
	c   net.Conn      // closed without mu to interrupt a blocked serve
	enc *json.Encoder // guarded by mu
}

func (rc *regConn) send(m ctlMsg) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	// sdr:holdblock-ok control-plane framing: the encoder lock is what keeps concurrent ctl messages unmixed
	return rc.enc.Encode(m)
}

// registry is the rendezvous + control service for one distributed epoch.
type registry struct {
	ln    net.Listener
	procs int
	ranks int
	store *ckpt.Store

	events chan regEvent

	// done is closed by Close; wg joins the accept loop and every serve /
	// rejoinFlow goroutine, so Close returns only once the control plane
	// is fully quiescent.
	done chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex           // sdr:lockrank regmu
	open   map[net.Conn]bool    // guarded by mu; every accepted conn, registered or not
	conns  []*regConn           // guarded by mu; indexed by proc; nil until hello
	addrs  []string             // guarded by mu
	hosts  []string             // guarded by mu; per-proc host identities (hello's host field)
	joined int                  // guarded by mu
	saved  map[int]map[int]bool // guarded by mu; step → ranks whose file is in place
	closed bool                 // guarded by mu

	// lastSeen[proc] is the unix-nano stamp of the worker's last decoded
	// control message. Atomic, not mu-guarded: every serve goroutine
	// stamps it on every message — at 256 workers pinging twice a second
	// that is the control plane's hottest write, and funneling it through
	// regmu made liveness bookkeeping contend with rendezvous and
	// checkpoint traffic. The health probe batches its reads off the same
	// atomics (see stalest), so probe fan-out stays off the serve path.
	lastSeen []atomic.Int64

	// Rejoin (localized replay) state: worldSent marks the epoch's world
	// broadcast done, after which a hello is a relaunched worker. Each
	// in-flight rejoin waits on its own entry, keyed by the revived proc;
	// survivor acks carry that key (ctlMsg.For), so concurrent rejoins
	// proceed in parallel without cross-crediting — a hung survivor only
	// delays the joiners still missing ITS ack, never unrelated ones.
	worldSent   bool                // guarded by mu
	reviveWaits map[int]*reviveWait // guarded by mu

	// rejoinTimeout bounds how long a rejoin waits for survivor acks
	// before proceeding anyway (a hung survivor is the health probe's
	// problem); newRegistry defaults it when zero.
	rejoinTimeout time.Duration

	// obsAddrs mirrors addrs for the workers' observability endpoints
	// (hello's obs field); "" when a worker did not publish one.
	obsAddrs []string
}

// reviveWait tracks one rejoin handshake: the acks still owed and the
// channel closed when the count reaches zero.
type reviveWait struct {
	left int
	ch   chan struct{}
}

// newRegistry starts the rendezvous registry for an epoch of `procs`
// workers over `ranks` logical ranks, committing checkpoint waves into
// store as workers report published files. rejoinTimeout bounds each rejoin
// handshake's wait for survivor acks (0 = the 10s default).
func newRegistry(procs, ranks int, store *ckpt.Store, rejoinTimeout time.Duration) (*registry, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: registry listen: %w", err)
	}
	if rejoinTimeout <= 0 {
		rejoinTimeout = 10 * time.Second
	}
	r := &registry{
		ln:            ln,
		procs:         procs,
		ranks:         ranks,
		store:         store,
		events:        make(chan regEvent, 4*procs+16),
		done:          make(chan struct{}),
		open:          make(map[net.Conn]bool),
		conns:         make([]*regConn, procs),
		addrs:         make([]string, procs),
		hosts:         make([]string, procs),
		obsAddrs:      make([]string, procs),
		lastSeen:      make([]atomic.Int64, procs),
		saved:         make(map[int]map[int]bool),
		reviveWaits:   make(map[int]*reviveWait),
		rejoinTimeout: rejoinTimeout,
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// emit surfaces one event to the coordinator, giving up if the registry
// is shutting down (the coordinator has stopped draining by then).
func (r *registry) emit(ev regEvent) {
	select {
	case r.events <- ev:
	case <-r.done:
	}
}

// Addr returns the registry's listen address (the worker env contract's
// SDR_DIST_REGISTRY value).
func (r *registry) Addr() string { return r.ln.Addr().String() }

func (r *registry) acceptLoop() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return // listener closed: epoch over
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			c.Close()
			continue
		}
		// Track the raw conn so Close can unblock a serve goroutine still
		// stuck in its hello decode (it is not in r.conns yet). Adding to
		// the WaitGroup here is safe against a concurrent Close: the
		// accept loop holds its own count, so the group cannot have hit
		// zero, and r.closed (checked above under mu) gates the race.
		r.open[c] = true
		r.wg.Add(1)
		r.mu.Unlock()
		go r.serve(c)
	}
}

// serve handles one worker connection: hello, then the event stream.
func (r *registry) serve(c net.Conn) {
	defer r.wg.Done()
	defer func() {
		r.mu.Lock()
		delete(r.open, c)
		r.mu.Unlock()
	}()
	dec := json.NewDecoder(c)
	var hello ctlMsg
	if err := dec.Decode(&hello); err != nil || hello.Op != opHello {
		c.Close()
		return
	}
	proc := hello.Proc
	if proc < 0 || proc >= r.procs {
		c.Close()
		return
	}

	rc := &regConn{c: c, enc: json.NewEncoder(c)}
	r.mu.Lock()
	if r.conns[proc] != nil {
		r.mu.Unlock()
		c.Close() // duplicate registration
		return
	}
	rejoin := r.worldSent
	r.conns[proc] = rc
	r.addrs[proc] = hello.Addr
	r.hosts[proc] = hello.Host
	r.obsAddrs[proc] = hello.Obs
	r.lastSeen[proc].Store(time.Now().UnixNano())
	ready := false
	var world, hosts []string
	if !rejoin {
		r.joined++
		if ready = r.joined == r.procs; ready {
			r.worldSent = true
			world = append([]string(nil), r.addrs...)
			hosts = append([]string(nil), r.hosts...)
		}
	}
	r.mu.Unlock()

	if ready {
		// Every worker's listener is up: publish the world table (with the
		// hostname table for ring negotiation). From this moment peers may
		// dial each other.
		r.broadcast(ctlMsg{Op: opWorld, Addrs: world, Hosts: hosts}, -1)
		r.emit(regEvent{kind: evReady})
	}
	if rejoin {
		// A relaunched worker (localized replay). Point every survivor's
		// peer wire at the new incarnation and wait for their acks before
		// handing over the world table — the joiner must not start its
		// recovery broadcast while any survivor still fail-stop-drops
		// traffic to it. Each handshake waits on its own per-proc entry
		// (acks carry the revived proc in ctlMsg.For), so concurrent
		// rejoins run in parallel: a survivor hung on one joiner's ack
		// never stalls another joiner whose acks are all in. The wait runs
		// in its own goroutine so THIS goroutine can keep decoding the
		// joiner's traffic — a still-handshaking joiner must be able to
		// acknowledge OTHER rejoins (its control stream carries reviveok
		// messages while it waits for its own world table).
		r.wg.Add(1)
		go r.rejoinFlow(proc, rc, hello.Addr)
	}

	for {
		var m ctlMsg
		if err := dec.Decode(&m); err != nil {
			r.mu.Lock()
			if r.conns[proc] == rc {
				r.conns[proc] = nil
			}
			r.mu.Unlock()
			r.emit(regEvent{kind: evLost, proc: proc})
			return
		}
		r.lastSeen[proc].Store(time.Now().UnixNano())
		switch m.Op {
		case opPing:
			// liveness only
		case opReviveAck:
			// Credit the ack to the handshake it names. A late ack for a
			// handshake already released by its deadline finds no entry
			// and is dropped.
			r.mu.Lock()
			if w := r.reviveWaits[m.For]; w != nil {
				w.left--
				if w.left == 0 {
					close(w.ch)
					delete(r.reviveWaits, m.For)
				}
			}
			r.mu.Unlock()
		case opCkpt:
			r.noteCkpt(m.Rank, m.Step)
		case opKillMe:
			r.emit(regEvent{kind: evKillMe, proc: proc, msg: m})
		case opExhausted:
			r.emit(regEvent{kind: evExhausted, proc: proc, msg: m})
		case opDone:
			r.emit(regEvent{kind: evDone, proc: proc, msg: m})
		}
	}
}

// rejoinFlow runs one relaunched worker's revive handshake: broadcast the
// new address, wait (bounded by rejoinTimeout) for every live peer's
// For-keyed ack, then hand the joiner its world table. Runs concurrently
// with the joiner's serve loop.
func (r *registry) rejoinFlow(proc int, rc *regConn, addr string) {
	defer r.wg.Done()
	r.mu.Lock()
	live := 0
	for p, other := range r.conns {
		if other != nil && p != proc {
			live++
		}
	}
	var ch chan struct{}
	if live > 0 {
		ch = make(chan struct{})
		r.reviveWaits[proc] = &reviveWait{left: live, ch: ch}
	}
	r.mu.Unlock()
	if live > 0 {
		r.broadcast(ctlMsg{Op: opRevive, Proc: proc, Addr: addr}, proc)
		timer := time.NewTimer(r.rejoinTimeout)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			// A hung survivor; the coordinator's health probe will deal
			// with it. Proceed — worst case its traffic to the joiner is
			// dropped a little longer.
			mRejoinTimeouts.Inc()
		case <-r.done:
			// Registry shutting down mid-handshake: nobody is left to
			// receive the world table, stop here.
			timer.Stop()
			r.mu.Lock()
			delete(r.reviveWaits, proc)
			r.mu.Unlock()
			return
		}
		r.mu.Lock()
		delete(r.reviveWaits, proc)
		r.mu.Unlock()
	}
	// The world table must reflect peers revived while this handshake
	// waited. The hostname table rides along for contract uniformity,
	// though a relaunched joiner never arms rings (its peers banned the
	// pair when the previous incarnation died).
	r.mu.Lock()
	world := append([]string(nil), r.addrs...)
	hosts := append([]string(nil), r.hosts...)
	r.mu.Unlock()
	_ = rc.send(ctlMsg{Op: opWorld, Addrs: world, Hosts: hosts})
}

// noteCkpt mirrors runState.noteCkpt across process boundaries: count
// each rank's published file once per wave (every replica reports it),
// commit and prune once every rank reported.
func (r *registry) noteCkpt(rank, step int) {
	if r.store == nil || rank < 0 || rank >= r.ranks {
		return
	}
	r.mu.Lock()
	saved := r.saved[step]
	if saved == nil {
		saved = make(map[int]bool)
		r.saved[step] = saved
	}
	complete := !saved[rank] && len(saved)+1 == r.ranks
	saved[rank] = true
	r.mu.Unlock()
	if !complete {
		return
	}
	// Commit/prune failures are not fatal to the epoch: the wave simply
	// stays uncommitted and rollback selects an older one.
	if err := r.store.Commit(step); err == nil {
		_ = r.store.Prune(step)
	}
}

// broadcast sends m to every connected worker except `skip` (-1 = none).
func (r *registry) broadcast(m ctlMsg, skip int) {
	r.mu.Lock()
	conns := append([]*regConn(nil), r.conns...)
	r.mu.Unlock()
	for p, rc := range conns {
		if rc == nil || p == skip {
			continue
		}
		_ = rc.send(m) // a dead worker's send failure is handled via evLost
	}
}

// obsAddr returns proc's published observability address ("" if none).
func (r *registry) obsAddr(proc int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if proc < 0 || proc >= len(r.obsAddrs) {
		return ""
	}
	return r.obsAddrs[proc]
}

// forget clears a dead worker's registration so a relaunched incarnation
// can register under the same proc ID. The old serve goroutine's cleanup
// compares the connection pointer before nil-ing the slot, so a slow EOF
// cannot clobber the replacement.
func (r *registry) forget(proc int) {
	r.mu.Lock()
	r.conns[proc] = nil
	r.mu.Unlock()
}

// announceDead broadcasts the failure notification for proc to every other
// worker — the distributed incarnation of detect.Service.broadcastFailure.
func (r *registry) announceDead(proc int) {
	r.broadcast(ctlMsg{Op: opDead, Proc: proc}, proc)
}

// stalest returns the proc with the oldest lastSeen among `live` and how
// stale it is. Used by the coordinator's health check. The probe batches:
// one short mu window snapshots which procs are registered, then the whole
// fan-out scan reads the atomic stamps off the lock — the serve goroutines
// stamping liveness never wait behind it.
func (r *registry) stalest(live func(int) bool) (int, time.Duration) {
	registered := make([]bool, r.procs)
	r.mu.Lock()
	for p := 0; p < r.procs; p++ {
		registered[p] = r.conns[p] != nil
	}
	r.mu.Unlock()
	proc, worst := -1, time.Duration(0)
	now := time.Now().UnixNano()
	for p := 0; p < r.procs; p++ {
		if !registered[p] || !live(p) {
			continue
		}
		if age := time.Duration(now - r.lastSeen[p].Load()); age > worst {
			proc, worst = p, age
		}
	}
	return proc, worst
}

// Close shuts the registry down: closes the listener and every accepted
// connection (registered or still in its hello), releases any rejoin
// handshake still waiting, and joins every control-plane goroutine.
func (r *registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	open := make([]net.Conn, 0, len(r.open))
	for c := range r.open {
		open = append(open, c)
	}
	r.mu.Unlock()
	close(r.done)
	r.ln.Close()
	for _, c := range open {
		c.Close()
	}
	r.wg.Wait()
}
