package overlay

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"terradir/internal/core"
	"terradir/internal/rng"
	"terradir/internal/telemetry"
	"terradir/internal/wire"
)

// maxBatchBytes caps how many queued frame bytes one socket write coalesces.
// A batch always takes at least one frame, so a single near-MaxFrame message
// still goes out; the cap just bounds the writer's assembly buffer and keeps
// one flush from monopolizing the write deadline.
const maxBatchBytes = 256 << 10

// maxPooledBuf bounds the capacity of encode buffers kept on a peer's free
// list — one oversized replicate frame must not pin megabytes forever.
const maxPooledBuf = 64 << 10

// maxReadBatch caps how many decoded messages one read-loop wakeup delivers
// as a single batch, bounding the latency a saturated inbound buffer can add
// to the first message of the next batch.
const maxReadBatch = 256

// The outbound path's fixed settings. queueDepth bounds each peer's
// outbound buffer: a full queue evicts its oldest message (counted in
// TransportStats.QueueDrops) so senders never block and the freshest soft
// state wins. dialTimeout bounds every connection attempt, and writeTimeout
// is the per-frame write deadline: an expired deadline drops the frame and
// redials. backoffMin and backoffMax bound the exponential redial backoff
// after a failed dial (each failure doubles the delay, plus up to 100%
// jitter).
const (
	queueDepth   = 128
	dialTimeout  = 2 * time.Second
	writeTimeout = 2 * time.Second
	backoffMin   = 25 * time.Millisecond
	backoffMax   = 3 * time.Second
)

// TCPTransportOptions configures a transport. The zero value is a peer
// transport with jitter seeded from its server ID.
type TCPTransportOptions struct {
	// Seed seeds the deterministic backoff-jitter stream (default: from self).
	Seed uint64
	// ClientRole marks the transport as an edge client (gateway, CLI) rather
	// than an overlay peer. A client-role transport introduces itself with a
	// hello frame as the first write on every connection it dials and runs a
	// read loop on the dialed connection, so the remote peer can route replies
	// (lookup results, data replies) back over the same connection — an edge
	// client has no listener address peers could dial. The transport's self ID
	// must come from core.ClientID so it can never collide with a peer ID.
	ClientRole bool
}

func (o *TCPTransportOptions) fill(self core.ServerID) {
	if o.Seed == 0 {
		o.Seed = uint64(self)*0x9e3779b9 + 1
	}
}

// TCPTransport carries protocol messages as length-prefixed wire frames over
// persistent TCP connections. One listener accepts inbound frames for the
// local node; outbound traffic runs through one bounded queue plus writer
// goroutine per destination, which dials with a timeout, writes with a
// deadline, and redials with capped exponential backoff — so a stalled or
// dead peer can never block Send, the node's event loop, or other senders.
// The writer coalesces: it drains every queued frame (up to maxBatchBytes)
// into a single socket write, so a burst of small protocol messages costs
// one syscall instead of two per message, and encode buffers recycle through
// a per-peer free list (Send appends into a recycled buffer; the writer
// returns it after the flush). Overflow and broken writes drop messages
// (counted), which the soft-state protocol tolerates.
type TCPTransport struct {
	self    core.ServerID
	addrs   map[core.ServerID]string
	opts    TCPTransportOptions
	node    *Node
	handler func(core.Message) // ServeFunc alternative to node delivery
	ln      net.Listener
	hello   []byte // pre-encoded client-role hello frame (nil for peers)

	dialCtx    context.Context
	cancelDial context.CancelFunc

	mu      sync.Mutex
	peers   map[core.ServerID]*peerSender
	clients map[core.ServerID]*peerSender // hello-registered reply routes
	inbound map[net.Conn]struct{}
	closed  bool
	stop    chan struct{}
	wg      sync.WaitGroup

	ctr transportCounters

	// readHist, when set, observes frames-per-read per delivered batch (see
	// Node.registerTransportMetrics and the gateway's metrics).
	readHist atomic.Pointer[telemetry.Histogram]
}

// SetReadHistogram installs the histogram fed by the batched read path with
// frames-decoded-per-underlying-read samples. Safe to call any time; nil
// uninstalls.
func (t *TCPTransport) SetReadHistogram(h *telemetry.Histogram) {
	t.readHist.Store(h)
}

// NewTCPTransport starts listening on listenAddr and returns a transport
// that routes by the given server→address map, with default options. Attach
// it to its node with node.SetTransport, then call Serve (usually via
// StartTCPNode).
func NewTCPTransport(self core.ServerID, listenAddr string, addrs map[core.ServerID]string) (*TCPTransport, error) {
	return NewTCPTransportOpts(self, listenAddr, addrs, TCPTransportOptions{})
}

// NewTCPTransportOpts is NewTCPTransport with explicit options.
func NewTCPTransportOpts(self core.ServerID, listenAddr string, addrs map[core.ServerID]string, opts TCPTransportOptions) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("overlay: listen %s: %w", listenAddr, err)
	}
	opts.fill(self)
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCPTransport{
		self:       self,
		addrs:      addrs,
		opts:       opts,
		ln:         ln,
		dialCtx:    ctx,
		cancelDial: cancel,
		peers:      make(map[core.ServerID]*peerSender),
		clients:    make(map[core.ServerID]*peerSender),
		inbound:    make(map[net.Conn]struct{}),
		stop:       make(chan struct{}),
	}
	if opts.ClientRole {
		if !core.IsClient(self) {
			ln.Close()
			cancel()
			return nil, fmt.Errorf("overlay: client-role transport needs a core.ClientID self, got %d", self)
		}
		frame, err := wire.Encode(&core.HelloMsg{ID: self, Role: core.RoleClient})
		if err != nil {
			ln.Close()
			cancel()
			return nil, err
		}
		t.hello = frame
	}
	return t, nil
}

// Addr returns the transport's bound listen address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Serve begins accepting inbound connections, delivering decoded messages to
// n. It returns immediately; accepting happens on background goroutines.
// Call it after n.Start (StartTCPNode does). A client-role transport must
// call ServeFunc before its first Send: replies arrive on the dialed
// connection.
func (t *TCPTransport) Serve(n *Node) {
	t.node = n
	t.acceptLoop()
}

// ServeFunc is Serve for consumers that are not overlay nodes (the gateway):
// every decoded inbound message — whether it arrived on an accepted
// connection or as a reply on a client-role dialed connection — is handed to
// fn. fn runs on the connection's read goroutine and must not block.
func (t *TCPTransport) ServeFunc(fn func(core.Message)) {
	t.handler = fn
	t.acceptLoop()
}

func (t *TCPTransport) acceptLoop() {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := t.ln.Accept()
			if err != nil {
				return // listener closed
			}
			t.mu.Lock()
			if t.closed {
				t.mu.Unlock()
				conn.Close()
				return
			}
			t.inbound[conn] = struct{}{}
			t.mu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.readLoop(conn)
				t.mu.Lock()
				delete(t.inbound, conn)
				t.mu.Unlock()
			}()
		}
	}()
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer conn.Close()
	// cs is the reply sender registered by a hello on this connection. When
	// the read loop ends the connection is dead, so the sender dies with it —
	// retire is idempotent, covering the case where the sender already
	// retired itself on a write error (closing the conn and ending this loop).
	var cs *peerSender
	defer func() {
		if cs != nil {
			cs.retire()
			t.unregisterClient(cs)
		}
	}()
	// Batched receive: the FrameReader refills a pooled 256KiB window with
	// single reads and slices frames out zero-copy (Decode copies everything
	// it retains, so frames recycle implicitly on the next Next). Each outer
	// iteration decodes every frame available in the window — one blocking
	// Next, then buffered ones while Pending — and delivers them as one
	// batch, mirroring the sender's write coalescing.
	fr := wire.NewFrameReader(conn)
	defer fr.Release()
	var (
		batch     []core.Message
		lastReads uint64
		done      bool
	)
	for !done {
		batch = batch[:0]
		frames := 0
		for {
			frame, err := fr.Next()
			if err != nil {
				switch {
				case errors.Is(err, wire.ErrFrameSize):
					// Corrupt length prefix: the stream cannot be resynced, so
					// the connection must go, but count it as corruption.
					t.ctr.corruptFrames.Add(1)
				case err == io.EOF || errors.Is(err, net.ErrClosed):
					// Clean shutdown by either side: not an error.
				default:
					t.ctr.connErrors.Add(1)
				}
				done = true // deliver what the batch already holds, then exit
				break
			}
			frames++
			msg, derr := wire.Decode(frame)
			if derr != nil {
				if errors.Is(derr, wire.ErrUnknownKind) {
					// Well-framed message from a different protocol vintage —
					// what a newer peer's frames look like during a rolling
					// upgrade. Skip it; this is not corruption.
					t.ctr.unknownFrames.Add(1)
				} else {
					t.ctr.corruptFrames.Add(1) // framing intact: drop the message, keep the conn
				}
			} else if h, ok := msg.(*core.HelloMsg); ok {
				// Client-role handshake: bind this connection as the reply
				// route for the client's ID. One hello per connection; extras
				// and IDs outside the reserved client range are ignored (a
				// peer ID here would let a client hijack peer traffic).
				if cs == nil && core.IsClient(h.ID) {
					cs = t.registerClient(h.ID, conn)
				}
			} else {
				batch = append(batch, msg)
			}
			if len(batch) >= maxReadBatch || !fr.Pending() {
				break
			}
		}
		if frames > 0 {
			t.ctr.framesRead.Add(uint64(frames))
			t.ctr.readBatches.Add(1)
			if h := t.readHist.Load(); h != nil {
				reads, _ := fr.Stats()
				if d := reads - lastReads; d > 0 {
					h.Observe(float64(frames) / float64(d))
				} else {
					h.Observe(float64(frames))
				}
				lastReads = reads
			}
		}
		if len(batch) > 0 {
			t.deliverReadBatch(cs, batch)
			for i := range batch {
				batch[i] = nil
			}
		}
	}
}

// deliverReadBatch hands one read batch to the consumer. When the connection
// has a hello-registered client sender, delivery holds its deliverMu with a
// quit check inside; retire() takes the same mutex after closing quit, so
// once a superseding re-hello's retire() returns, no frame from the retired
// connection can reach the node — not even one already decoded into an
// in-flight batch.
func (t *TCPTransport) deliverReadBatch(cs *peerSender, batch []core.Message) {
	if cs != nil {
		cs.deliverMu.Lock()
		defer cs.deliverMu.Unlock()
		select {
		case <-cs.quit:
			return
		default:
		}
	}
	if t.handler != nil {
		for _, m := range batch {
			t.handler(m)
		}
	} else if t.node != nil {
		t.node.DeliverBatch(batch)
	}
}

// registerClient installs a reply sender for a hello'd client, bound to the
// inbound connection the hello arrived on. A re-hello from the same client ID
// on a new connection (client reconnected) supersedes and retires the old
// sender. Returns nil when the transport is closing.
func (t *TCPTransport) registerClient(id core.ServerID, conn net.Conn) *peerSender {
	p := &peerSender{
		t:      t,
		id:     id,
		static: true,
		notify: make(chan struct{}, 1),
		quit:   make(chan struct{}),
	}
	p.nc = conn
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	old := t.clients[id]
	t.clients[id] = p
	t.wg.Add(1)
	t.mu.Unlock()
	go p.run()
	if old != nil {
		old.retire()
	}
	return p
}

// unregisterClient removes p from the client reply routes unless a newer
// sender has already replaced it.
func (t *TCPTransport) unregisterClient(p *peerSender) {
	t.mu.Lock()
	if t.clients[p.id] == p {
		delete(t.clients, p.id)
	}
	t.mu.Unlock()
}

// Send implements Transport: it encodes m and enqueues it on the
// destination's outbound queue, never blocking on the network. Errors are
// returned only for local problems (unknown destination, unencodable or
// oversized message, closed transport); network delivery is asynchronous and
// best-effort. Encoding appends into a buffer recycled from the peer's free
// list, so steady-state sends allocate nothing.
func (t *TCPTransport) Send(from, to core.ServerID, m core.Message) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("overlay: transport closed")
	}
	p, ok := t.peers[to]
	if !ok {
		// Hello-registered clients have no dialable address; their reply
		// sender is the only route. Client IDs are disjoint from peer IDs,
		// so checking the registry second can never shadow a peer.
		if c, okc := t.clients[to]; okc {
			p = c
			ok = true
		}
	}
	if !ok {
		addr, okAddr := t.addrs[to]
		if !okAddr {
			t.mu.Unlock()
			if core.IsClient(to) {
				return fmt.Errorf("overlay: client %d not connected", to)
			}
			return fmt.Errorf("overlay: no address for server %d", to)
		}
		p = &peerSender{
			t:       t,
			addr:    addr,
			notify:  make(chan struct{}, 1),
			quit:    make(chan struct{}),
			backoff: backoffMin,
			jitter:  rng.New(t.opts.Seed ^ uint64(to)*0xd1b54a32d192ed03),
		}
		t.peers[to] = p
		t.wg.Add(1)
		go p.run()
	}
	t.mu.Unlock()
	data, err := wire.AppendMessage(p.getBuf(), m)
	if err != nil {
		p.putBuf(data)
		return err
	}
	if len(data) > wire.MaxFrame {
		p.putBuf(data)
		return fmt.Errorf("overlay: message for server %d: %w (%d bytes)", to, wire.ErrFrameSize, len(data))
	}
	t.ctr.enqueued.Add(1)
	if dropped := p.push(data); dropped > 0 {
		t.ctr.queueDrops.Add(uint64(dropped))
	}
	return nil
}

// SetAddr records (or replaces) a peer's dialable address at runtime — the
// membership subsystem's address-discovery hook, letting joiners and
// restarted peers be reached without reconstructing the transport. A changed
// address retires the peer's current sender (its queued frames are lost,
// which soft state tolerates); the next Send builds a fresh one. The addrs
// map passed at construction must not be shared with another transport when
// SetAddr is in use.
func (t *TCPTransport) SetAddr(id core.ServerID, addr string) {
	if id == t.self || addr == "" {
		return
	}
	t.mu.Lock()
	if t.closed || t.addrs[id] == addr {
		t.mu.Unlock()
		return
	}
	t.addrs[id] = addr
	p := t.peers[id]
	if p != nil {
		delete(t.peers, id)
	}
	t.mu.Unlock()
	if p != nil {
		p.retire()
	}
}

// SendTo dials addr directly and writes m as a single frame — the join
// bootstrap path, used before the destination's server-ID→address mapping is
// known. Unlike Send it blocks for up to the dial and write timeouts.
func (t *TCPTransport) SendTo(addr string, m core.Message) error {
	data, err := wire.Encode(m)
	if err != nil {
		return err
	}
	if len(data) > wire.MaxFrame {
		return fmt.Errorf("overlay: message for %s: %w (%d bytes)", addr, wire.ErrFrameSize, len(data))
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("overlay: transport closed")
	}
	t.mu.Unlock()
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(t.dialCtx, "tcp", addr)
	if err != nil {
		t.ctr.dialErrors.Add(1)
		return err
	}
	defer conn.Close()
	t.ctr.dials.Add(1)
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := wire.WriteFrame(conn, data); err != nil {
		t.ctr.writeErrors.Add(1)
		return err
	}
	t.ctr.sent.Add(1)
	return nil
}

// Stats returns a snapshot of the transport's counters.
func (t *TCPTransport) Stats() TransportStats {
	s := TransportStats{
		Enqueued:      t.ctr.enqueued.Load(),
		Sent:          t.ctr.sent.Load(),
		Flushes:       t.ctr.flushes.Load(),
		QueueDrops:    t.ctr.queueDrops.Load(),
		WriteErrors:   t.ctr.writeErrors.Load(),
		Dials:         t.ctr.dials.Load(),
		DialErrors:    t.ctr.dialErrors.Load(),
		Redials:       t.ctr.redials.Load(),
		CorruptFrames: t.ctr.corruptFrames.Load(),
		UnknownFrames: t.ctr.unknownFrames.Load(),
		ConnErrors:    t.ctr.connErrors.Load(),
		FramesRead:    t.ctr.framesRead.Load(),
		ReadBatches:   t.ctr.readBatches.Load(),
	}
	t.mu.Lock()
	for _, p := range t.peers {
		s.QueueDepth += p.depth()
	}
	for _, p := range t.clients {
		s.QueueDepth += p.depth()
	}
	t.mu.Unlock()
	return s
}

// Close shuts the listener, all connections and all writer goroutines down,
// then waits for them to exit.
func (t *TCPTransport) Close() error {
	err := t.ln.Close()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.wg.Wait()
		return err
	}
	t.closed = true
	close(t.stop)
	t.cancelDial()
	for _, p := range t.peers {
		p.closeConn()
	}
	for _, p := range t.clients {
		p.closeConn()
	}
	for c := range t.inbound {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}

// peerSender owns one destination's outbound path: a bounded drop-oldest
// queue feeding a writer goroutine that maintains the connection and
// coalesces queued frames into single socket writes. A static sender (the
// reply route for a hello-registered client) is the same machinery bound to
// an existing inbound connection: it never dials, and it dies with the
// connection instead of redialing.
type peerSender struct {
	t      *TCPTransport
	addr   string
	id     core.ServerID // client ID (static senders only)
	static bool          // bound to an inbound conn; no dialing, no redial

	mu      sync.Mutex
	queue   [][]byte
	free    [][]byte // recycled encode buffers (written or evicted frames)
	retired bool     // writer gone; push must count new frames as drops itself
	notify  chan struct{}
	quit    chan struct{} // closed when the sender is retired (address change)

	retireOnce sync.Once

	// deliverMu serializes inbound batch delivery on this sender's connection
	// against its retirement: the read loop holds it across each batch (with
	// a quit check inside), and retire() acquires it once after closing quit,
	// so retire() returning guarantees no further frames from this connection
	// reach the node (see deliverReadBatch).
	deliverMu sync.Mutex

	// cmu guards nc, which Close pokes from outside the writer goroutine.
	cmu sync.Mutex
	nc  net.Conn

	// Writer-goroutine-only state.
	dialed  bool
	backoff time.Duration
	jitter  *rng.Source
	batch   [][]byte // reused batch-drain scratch
	wbuf    []byte   // reused coalesced-write assembly buffer
}

// getBuf pops a recycled encode buffer (nil when none — append allocates).
func (p *peerSender) getBuf() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return b
	}
	return nil
}

// putBuf returns one encode buffer to the free list.
func (p *peerSender) putBuf(b []byte) {
	p.mu.Lock()
	p.recycleLocked(b)
	p.mu.Unlock()
}

// putBufs returns a written batch's buffers to the free list.
func (p *peerSender) putBufs(bufs [][]byte) {
	p.mu.Lock()
	for i, b := range bufs {
		p.recycleLocked(b)
		bufs[i] = nil
	}
	p.mu.Unlock()
}

func (p *peerSender) recycleLocked(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf || len(p.free) >= queueDepth {
		return
	}
	p.free = append(p.free, b[:0])
}

// push enqueues data, evicting (and recycling) the oldest queued messages
// when full, and returns how many messages were dropped. A push that races a
// sender's retirement (SetAddr removed it from the peers map before Send
// finished with it) or transport shutdown finds retired set: the writer has
// already drained and counted the queue, so push counts its own frame as the
// drop — keeping Enqueued == Sent + QueueDrops + WriteErrors + QueueDepth
// exact instead of stranding the frame in a queue nothing will ever read.
func (p *peerSender) push(data []byte) (dropped int) {
	p.mu.Lock()
	if p.retired {
		p.recycleLocked(data)
		p.mu.Unlock()
		return 1
	}
	if len(p.queue) >= queueDepth {
		n := len(p.queue) - queueDepth + 1
		for _, old := range p.queue[:n] {
			p.recycleLocked(old)
		}
		p.queue = append(p.queue[:0], p.queue[n:]...)
		dropped = n
	}
	p.queue = append(p.queue, data)
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
	default:
	}
	return dropped
}

func (p *peerSender) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// nextBatch blocks until at least one message is queued (or the sender is
// shutting down), then drains consecutive frames up to maxBatchBytes into a
// reused scratch slice.
func (p *peerSender) nextBatch() ([][]byte, bool) {
	for {
		p.mu.Lock()
		if len(p.queue) > 0 {
			batch := p.batch[:0]
			size := 0
			n := 0
			for _, f := range p.queue {
				if n > 0 && size+len(f) > maxBatchBytes {
					break
				}
				batch = append(batch, f)
				size += len(f)
				n++
			}
			rest := copy(p.queue, p.queue[n:])
			for i := rest; i < len(p.queue); i++ {
				p.queue[i] = nil
			}
			p.queue = p.queue[:rest]
			p.mu.Unlock()
			p.batch = batch
			return batch, true
		}
		p.mu.Unlock()
		select {
		case <-p.notify:
		case <-p.quit:
			return nil, false
		case <-p.t.stop:
			return nil, false
		}
	}
}

// drainAbandoned marks the sender retired and counts every still-queued
// frame as a queue drop. Runs exactly once, when the writer goroutine exits
// (retirement or transport close): the frames will never be written, so
// conservation demands they move from QueueDepth to QueueDrops rather than
// silently disappear with the sender.
func (p *peerSender) drainAbandoned() {
	p.mu.Lock()
	p.retired = true
	if n := len(p.queue); n > 0 {
		p.t.ctr.queueDrops.Add(uint64(n))
		for i, old := range p.queue {
			p.recycleLocked(old)
			p.queue[i] = nil
		}
		p.queue = p.queue[:0]
	}
	p.mu.Unlock()
}

func (p *peerSender) run() {
	defer p.t.wg.Done()
	defer p.drainAbandoned()
	if p.static {
		// A dead static sender must leave the reply-route table so a Send to
		// the departed client fails fast instead of queueing into the void.
		defer p.t.unregisterClient(p)
	}
	for {
		batch, ok := p.nextBatch()
		if !ok {
			p.closeConn()
			return
		}
		if !p.deliver(batch) {
			p.closeConn()
			return
		}
		select {
		case <-p.quit:
			p.closeConn()
			return
		case <-p.t.stop:
			p.closeConn()
			return
		default:
		}
	}
}

// deliver flushes one coalesced batch, (re)connecting as needed, and reports
// whether the sender should keep running. Dial failures sleep the capped
// exponential backoff and retry the same batch (the queue keeps absorbing
// newer traffic behind it, evicting its oldest on overflow); a write failure
// drops the whole batch and marks the connection dead so the next batch
// redials. A static sender cannot redial — its connection belongs to the
// remote client — so connection death there ends the sender (false).
func (p *peerSender) deliver(batch [][]byte) bool {
	for {
		conn := p.conn()
		if conn == nil {
			if p.static {
				// The client connection is gone and cannot be re-established
				// from this side: the batch dies with the sender.
				p.t.ctr.queueDrops.Add(uint64(len(batch)))
				p.putBufs(batch)
				return false
			}
			var ok bool
			conn, ok = p.connect()
			if !ok {
				// Transport closing with the batch already off the queue: it
				// will never be written, so account it as dropped — otherwise
				// these messages vanish from the conservation ledger.
				p.t.ctr.queueDrops.Add(uint64(len(batch)))
				p.putBufs(batch)
				return false
			}
			if conn == nil {
				continue // dial failed; backoff already slept
			}
		}
		// Detect a broken connection *before* committing the batch: peer
		// outbound connections are write-only (peers respond on their own
		// dials), so a pending FIN/RST — which a first write would silently
		// absorb — means the peer is gone. Without this check a batch written
		// into a dead socket is blackholed and the failure only shows on the
		// next batch. The probe MUST be skipped when a read loop shares the
		// connection (static senders; client-role dialed conns): it would
		// steal a frame byte from the reply stream.
		if !p.static && !p.t.opts.ClientRole && connBroken(conn) {
			p.closeConn()
			continue // redial and retry the same batch
		}
		p.wbuf = p.wbuf[:0]
		for _, f := range batch {
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], uint32(len(f)))
			p.wbuf = append(p.wbuf, hdr[:]...)
			p.wbuf = append(p.wbuf, f...)
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := conn.Write(p.wbuf)
		if cap(p.wbuf) > 2*maxBatchBytes {
			p.wbuf = nil // don't pin an outsized frame's assembly buffer
		}
		if err != nil {
			p.t.ctr.writeErrors.Add(uint64(len(batch)))
			p.closeConn()
			p.putBufs(batch)
			// Batch lost with the connection; soft state tolerates it. A
			// dialing sender redials on the next batch; a static one is done.
			return !p.static
		}
		p.t.ctr.sent.Add(uint64(len(batch)))
		p.t.ctr.flushes.Add(1)
		p.putBufs(batch)
		return true
	}
}

// connect attempts one dial. It returns (nil, true) after a failed attempt
// (having slept the backoff) and (nil, false) when the transport is closing.
// In client role the hello frame goes out before the connection is usable
// and a read loop is attached for replies.
func (p *peerSender) connect() (net.Conn, bool) {
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(p.t.dialCtx, "tcp", p.addr)
	if err != nil {
		p.t.ctr.dialErrors.Add(1)
		return nil, p.sleepBackoff()
	}
	p.t.ctr.dials.Add(1)
	if p.t.hello != nil {
		// Introduce ourselves so the peer binds this connection as our reply
		// route. A failed hello is a failed dial (counted as a connection
		// error, not a write error — hellos are not enqueued frames, and the
		// Enqueued == Sent + drops conservation ledger must stay exact).
		nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		if werr := wire.WriteFrame(nc, p.t.hello); werr != nil {
			nc.Close()
			p.t.ctr.connErrors.Add(1)
			return nil, p.sleepBackoff()
		}
		nc.SetWriteDeadline(time.Time{})
		// Replies come back on this same connection.
		p.t.mu.Lock()
		if p.t.closed {
			p.t.mu.Unlock()
			nc.Close()
			return nil, false
		}
		p.t.inbound[nc] = struct{}{}
		p.t.wg.Add(1)
		p.t.mu.Unlock()
		go func() {
			defer p.t.wg.Done()
			p.t.readLoop(nc)
			p.t.mu.Lock()
			delete(p.t.inbound, nc)
			p.t.mu.Unlock()
		}()
	}
	if p.dialed {
		p.t.ctr.redials.Add(1)
	}
	p.dialed = true
	p.backoff = backoffMin
	p.cmu.Lock()
	p.nc = nc
	p.cmu.Unlock()
	return nc, true
}

// sleepBackoff sleeps the capped exponential redial backoff, returning false
// when the sender or transport is shutting down.
func (p *peerSender) sleepBackoff() bool {
	select {
	case <-p.quit:
		return false
	case <-p.t.stop:
		return false
	default:
	}
	delay := p.backoff + time.Duration(p.jitter.Float64()*float64(p.backoff))
	p.backoff *= 2
	if p.backoff > backoffMax {
		p.backoff = backoffMax
	}
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-p.quit:
		return false
	case <-p.t.stop:
		return false
	}
}

// connBroken reports whether a write-only connection has a pending EOF,
// reset, or unexpected inbound byte, via one non-blocking read at the fd
// level (a net.Conn deadline-based poll cannot do this: an already-expired
// deadline short-circuits before the syscall). Peers never send on
// connections we dialed, so any readable event means the connection is dead.
func connBroken(conn net.Conn) bool {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return false // cannot probe; let the write discover failures
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return true
	}
	broken := false
	var buf [1]byte
	rerr := rc.Read(func(fd uintptr) bool {
		n, err := syscall.Read(int(fd), buf[:])
		switch {
		case err == syscall.EAGAIN || err == syscall.EWOULDBLOCK || err == syscall.EINTR:
			// Nothing pending: the healthy case.
		case n == 0 && err == nil:
			broken = true // FIN: peer closed
		default:
			broken = true // RST, other socket error, or unexpected data
		}
		return true // never park; this is a poll, not a wait
	})
	return broken || rerr != nil
}

func (p *peerSender) conn() net.Conn {
	p.cmu.Lock()
	defer p.cmu.Unlock()
	return p.nc
}

// retire terminates a sender: its writer goroutine exits and its connection
// closes. Idempotent — a static sender can be retired by a write failure, by
// its connection's read loop ending, and by a superseding re-hello, in any
// order.
func (p *peerSender) retire() {
	p.retireOnce.Do(func() {
		close(p.quit)
		p.closeConn()
		// Wait out a batch currently delivering on this sender's connection:
		// the read loop checks quit under deliverMu before each batch, so
		// once this acquire succeeds no in-flight delivery continues and no
		// new one starts. Safe against self-deadlock: the read loop never
		// holds deliverMu while retiring (its deferred retire runs after the
		// delivery loop exits), and registerClient retires a superseded
		// sender only after releasing the transport mutex.
		p.deliverMu.Lock()
		p.deliverMu.Unlock() //nolint:staticcheck // the handoff is the critical section
	})
}

func (p *peerSender) closeConn() {
	p.cmu.Lock()
	if p.nc != nil {
		p.nc.Close()
		p.nc = nil
	}
	p.cmu.Unlock()
}

// StartTCPNode wires a node to a TCP transport and starts both. The node's
// owned set and ownerOf function must be derived from the deployment-wide
// assignment (Assign) so all processes agree on initial ownership.
func StartTCPNode(n *Node, transport *TCPTransport) {
	StartTCPNodeVia(n, transport, transport)
}

// StartTCPNodeVia is StartTCPNode with the outbound path routed through send
// — typically a FaultTransport wrapping transport — while inbound frames are
// still served by transport itself. The node starts before the transport
// serves it: inbound frames wait in the listener's backlog until Start has
// returned, so delivery never races Start's setup.
func StartTCPNodeVia(n *Node, transport *TCPTransport, send Transport) {
	n.SetTransport(send)
	n.Start()
	transport.Serve(n)
}
