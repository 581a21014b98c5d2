package crane

import (
	"fmt"
	"sync"

	"crane/internal/seq"
	"crane/internal/simnet"
)

// proxy is a CRANE instance's gateway (§2.1): it accepts client socket
// requests, invokes Paxos consensus on each incoming call (connect, data,
// close), and forwards the server program's responses back to clients. A
// backup's proxy refuses client connections and never invokes consensus;
// after failover the new primary's proxy starts accepting.
type proxy struct {
	r *Replica

	// subChs holds one submission queue per Paxos group, each drained by
	// its own submitLoop proposing to that group's consensus node, so the
	// groups run their Accept rounds in parallel.
	subChs []chan submitReq //crane:pergroup
	stopCh chan struct{}

	mu        sync.Mutex
	listeners []*simnet.Listener
	conns     map[uint64]*simnet.Conn
	nextConn  uint64
	closed    bool
	wg        sync.WaitGroup
}

// submitReq is one entry awaiting consensus submission; done reports
// whether the burst containing it was accepted for ordering.
type submitReq struct {
	e    *seq.Entry
	done chan bool
}

// maxProxyBurst caps how many queued socket calls one ProposeBatch carries
// (the paxos batcher enforces its own MaxBatch/MaxBatchBytes downstream).
const maxProxyBurst = 64

func newProxy(r *Replica) *proxy {
	p := &proxy{
		r:      r,
		subChs: make([]chan submitReq, r.groups),
		stopCh: make(chan struct{}),
		conns:  make(map[uint64]*simnet.Conn),
	}
	for g := range p.subChs {
		p.subChs[g] = make(chan submitReq, 4*maxProxyBurst)
	}
	return p
}

// start binds the program's ports on this replica's host and begins
// accepting.
func (p *proxy) start() error {
	p.r.ro.reg.GaugeFunc("proxy_queue_depth",
		"socket calls queued for consensus submission", func() float64 {
			n := 0
			for _, ch := range p.subChs {
				n += len(ch)
			}
			return float64(n)
		})
	for g := range p.subChs {
		p.wg.Add(1)
		go p.submitLoop(g)
	}
	for _, port := range p.r.prog.Ports {
		l, err := p.r.net.Listen(simnet.Addr(fmt.Sprintf("%s:%d", p.r.host, port)))
		if err != nil {
			return fmt.Errorf("crane: proxy listen: %w", err)
		}
		p.mu.Lock()
		p.listeners = append(p.listeners, l)
		p.mu.Unlock()
		p.wg.Add(1)
		go p.acceptLoop(l, port)
	}
	return nil
}

func (p *proxy) acceptLoop(l *simnet.Listener, port int) {
	defer p.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		if !p.r.IsPrimary() {
			// Backups' proxies do not accept client connections (§2.1).
			c.Close()
			continue
		}
		// Connection ids must stay unique across primary changes, so the
		// replica id is folded into the high bits.
		p.mu.Lock()
		p.nextConn++
		id := uint64(p.r.id+1)<<48 | p.nextConn
		p.conns[id] = c
		p.mu.Unlock()
		if !p.propose(&seq.Entry{Kind: seq.KindConnect, Conn: id, Port: port}) {
			p.dropConn(id)
			continue
		}
		p.wg.Add(1)
		go p.readLoop(c, id)
	}
}

// readLoop turns the client's byte stream into SEND consensus requests and
// its EOF into a CLOSE request.
func (p *proxy) readLoop(c *simnet.Conn, id uint64) {
	defer p.wg.Done()
	buf := make([]byte, 16*1024)
	for {
		n, err := c.Read(buf)
		if n > 0 {
			data := make([]byte, n)
			copy(data, buf[:n])
			if !p.propose(&seq.Entry{Kind: seq.KindSend, Conn: id, Data: data}) {
				p.dropConn(id)
				return
			}
		}
		if err != nil {
			p.propose(&seq.Entry{Kind: seq.KindClose, Conn: id})
			return
		}
	}
}

// propose submits a client socket call for consensus through the burst
// submitter of its connection's group; it reports false when
// this replica is no longer primary (the client should reconnect to the new
// primary). Callers block until the burst containing their entry is
// accepted for ordering, so the per-producer flow stays synchronous while
// concurrent connections share one ProposeBatch.
func (p *proxy) propose(e *seq.Entry) bool {
	// Admission is where a request id is born: it rides the entry across
	// the wire so every replica's lifecycle trace keys the same stages by
	// the same id. (A bubble gets its id where it is minted, bubbleRound,
	// and no admit record.)
	e.Req = p.r.ro.assignReq(p.r.id)
	p.r.ro.recordAdmit(e.Req, e.Conn)
	return p.submit(e, p.r.groupForConn(e.Conn))
}

// submit queues an entry into group g's burst submitter and waits for the
// verdict on the burst that carried it. Client calls arrive via propose,
// which routes by connection id; the bubbles of a starvation round name their
// group explicitly.
func (p *proxy) submit(e *seq.Entry, g int) bool {
	req := submitReq{e: e, done: make(chan bool, 1)}
	select {
	case p.subChs[g] <- req:
	case <-p.stopCh:
		p.r.ro.rejectAdmit(e.Req)
		return false
	}
	select {
	case ok := <-req.done:
		if !ok {
			p.r.ro.rejectAdmit(e.Req)
		}
		return ok
	case <-p.stopCh:
		p.r.ro.rejectAdmit(e.Req)
		return false
	}
}

// submitLoop coalesces group g's queued socket calls into ProposeBatch
// bursts for that group's consensus node. A time bubble terminates the
// burst it rides in: no later socket call is packaged after it, keeping the
// per-burst logical-time consensus of §4 intact (the bubble's clocks elapse
// before any call queued behind it is even submitted). A bubble gets there
// one of two ways: a starvation round queued it like a socket call
// (maybeRequestBubble), or the burst delivers data into an idle pipeline and
// carries its own (tailRound). Each group's loop runs its Accept rounds
// independently — the pipelining win — and stamps every entry with the shared
// admission counter the cross-group merge sorts by.
func (p *proxy) submitLoop(g int) {
	defer p.wg.Done()
	subCh := p.subChs[g]
	reqs := make([]submitReq, 0, maxProxyBurst)
	for {
		reqs = reqs[:0]
		select { //crane:detflow-ok leader-side batching choice; composition is replicated through consensus before execution
		case r := <-subCh:
			reqs = append(reqs, r)
		case <-p.stopCh:
			return
		}
	drain:
		for len(reqs) < maxProxyBurst && reqs[len(reqs)-1].e.Kind != seq.KindBubble {
			select {
			case r := <-subCh:
				reqs = append(reqs, r)
			default:
				break drain
			}
		}
		ents := make([]*seq.Entry, len(reqs), len(reqs)+1)
		for i, r := range reqs {
			ents[i] = r.e
		}
		// The tail bubble has no submitReq: nobody waits on it, and a failed
		// propose below has only its round's claim to give back.
		round := p.tailRound(g, ents[len(ents)-1])
		if round != nil {
			ents = append(ents, round[g])
		}
		// Stamp in burst order from the shared counter: globally monotone
		// at assignment, hence strictly monotone within the group. The
		// counter is floored at the merge's own max watermark first: a
		// replica that just took over leadership has a fresh counter, and
		// stamps regressing far below the watermarks the cluster already
		// emitted would leave the merge crawling — every effective stamp
		// collapses to W+1, so an idle group's watermark closes the
		// pre-failover gap one bubble round at a time. Flooring restores
		// eff == stamp at once; any stamp value is replica-consistent
		// because stamps ride the committed payload. A bubble asserts its
		// own stamp as every group's watermark: anything any group admitted
		// before this bubble carries a smaller stamp, so once the bubble
		// emits, the merge may pass idle groups up to it. An
		// admitted-but-uncommitted straggler below the vector is
		// effective-stamp-bumped past it — identically on every replica,
		// since the vector rides the committed payload.
		floor := p.r.gm.MaxWatermark()
		for {
			cur := p.r.stampCtr.Load()
			if cur >= floor || p.r.stampCtr.CompareAndSwap(cur, floor) {
				break
			}
		}
		for _, e := range ents {
			e.Stamp = p.r.stampCtr.Add(1)
			if e.Kind == seq.KindBubble {
				vec := make([]uint64, p.r.groups)
				for h := range vec {
					vec[h] = e.Stamp
				}
				e.Vec = vec
			}
		}
		if round != nil {
			// The rest of the round goes to the other groups now, so their
			// submitters stamp it after this burst: once it commits, every
			// group's watermark covers the SEND and the merge emits it
			// without waiting for a starvation round. Never blocking: a full
			// queue has traffic of its own, and the starvation round covers
			// whatever is dropped here.
			for h, ch := range p.subChs {
				if h == g || round[h] == nil {
					continue
				}
				select {
				case ch <- submitReq{e: round[h], done: make(chan bool, 1)}:
				default:
				}
			}
		}
		// Speculation: hand the burst to the execution pipeline before the
		// Accept round even starts — the commit usually confirms what
		// already ran.
		fed := false
		if p.r.spec != nil {
			fed = p.r.spec.feed(ents)
		}
		payloads, err := seq.EncodeBatch(ents)
		ok := err == nil && p.r.nodes[g].ProposeBatch(payloads) == nil
		if p.r.spec != nil {
			if !ok {
				// A propose failure means lost primaryship; nothing
				// speculated or in flight can ever commit.
				p.r.spec.proposeFailed()
			} else if !fed {
				// Proposed but not fed: these entries enqueue at commit
				// time, so speculation must stay off until they land.
				p.r.spec.unfedProposed(len(ents))
			}
		}
		if ok {
			p.r.ro.burstSize.ObserveValue(uint64(len(ents)))
			for _, e := range ents {
				p.r.ro.recordProposed(e)
			}
			if round != nil {
				p.r.ro.tailBubbles.Inc()
			}
		} else if round != nil {
			// The round this burst opened never went out: say so, and the
			// gate asks again at once instead of sleeping out bubbleGrace.
			p.r.bubblePending.Store(false)
		}
		for _, r := range reqs {
			r.done <- ok
		}
	}
}

// tailRound decides whether the burst that ends in last carries its own time
// bubble, and if so opens the bubble round for it: the result is bubbleRound's,
// with group g's bubble present, or nil when the burst goes out as it is.
// Three conditions, all read from the input: the burst ends in a SEND, so
// execution and then synchronization operations follow; group g's queue is
// empty, so the bubble holds nothing back; every lane sequence of this
// bubbling primary is empty, so the DMT starves the moment it has consumed
// this burst and would ask for exactly this bubble W_timeout later, one Accept
// round too late. Where the primary places a bubble is physical timing outside
// the deterministic domain: every replica consumes the same committed
// sequence either way.
func (p *proxy) tailRound(g int, last *seq.Entry) []*seq.Entry {
	r := p.r
	if last.Kind != seq.KindSend || len(p.subChs[g]) != 0 || r.mode != ModeCrane {
		return nil
	}
	for _, lsq := range r.sqs {
		if !lsq.Empty() {
			return nil
		}
	}
	round := r.bubbleRound()
	if round[g] == nil {
		// This replica does not lead group g (any more): the burst's propose
		// is about to fail, and nothing of the round goes out.
		r.bubblePending.Store(false)
		return nil
	}
	return round
}

// forward relays a server response to the client (primary only; on
// backups the connection table is empty so responses are dropped).
func (p *proxy) forward(id uint64, data []byte) {
	p.mu.Lock()
	c := p.conns[id]
	p.mu.Unlock()
	if c != nil {
		c.Write(data) //crane:specleak-ok forward is the gate's sink: callers reach it only from emitOutput or the speculator's flush, after the window confirmed
	}
}

// closeConn shuts the client connection after the server closed its side.
func (p *proxy) closeConn(id uint64) {
	p.mu.Lock()
	c := p.conns[id]
	delete(p.conns, id)
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (p *proxy) dropConn(id uint64) { p.closeConn(id) }

// close tears the proxy down.
func (p *proxy) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	ls := p.listeners
	conns := p.conns
	p.conns = map[uint64]*simnet.Conn{}
	p.mu.Unlock()
	close(p.stopCh)
	for _, l := range ls {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}
