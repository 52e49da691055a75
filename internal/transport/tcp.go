package transport

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ares-storage/ares/internal/types"
)

// The TCP data plane. Each client keeps one connection per peer and
// multiplexes every in-flight request over it:
//
//	Invoke ──► pending[id] ──► send queue ──► writer goroutine ──► socket
//	Invoke ◄── pending[id] ◄── read loop   ◄───────────────────── socket
//
// The writer goroutine is the only code that touches the outbound socket:
// Invoke enqueues a frame and waits on its response channel, so no caller
// ever holds a lock across a syscall, a peer with a full send buffer delays
// only callers targeting that peer (and only once the bounded queue fills),
// and teardown never waits behind a blocked write. The writer drains its
// queue before flushing, so concurrent quorum phases share flush syscalls
// — that is the pipelining the bench suite measures. Responses route back
// by request ID; a torn-down connection fails every pending request with
// ErrUnreachable.
//
// Frames are encoded by the wire codec (wire.go). One generic writer loop,
// writeBatches, serves both directions: the client's request writer and the
// server's reply writer.

// tcpEnvelope is one request frame: the multiplexing ID, the caller's
// identity, and the request proper.
type tcpEnvelope struct {
	ID   uint64
	From types.ProcessID
	Req  Request
}

// tcpReply is one response frame, routed back by ID.
type tcpReply struct {
	ID   uint64
	Resp Response
}

// ErrClosed reports use of a TCPClient after Close. It is distinct from
// ErrUnreachable: the peer may be fine — this process decided to stop
// talking, and a silent re-dial would resurrect connections behind the
// caller's back.
var ErrClosed = errors.New("transport: tcp client closed")

// Defaults for the data-plane knobs; see the TCPOption constructors.
// dialTimeout bounds connection establishment when the caller's context has
// no earlier deadline, so a black-holed address never hangs an Invoke.
const (
	dialTimeout           = 5 * time.Second
	defaultMaxHandlers    = 128
	defaultSendQueue      = 256
	defaultBatchEnvelopes = 64
	defaultBatchBytes     = 128 << 10
)

// DialBackoff paces re-dials of an unreachable peer (the same shape as the
// client-level retry policy): after a failed dial, further Invokes to that
// peer fail fast with ErrUnreachable until the backoff window expires, and
// each consecutive failure grows the window exponentially up to Cap. Without
// it a dead peer costs every quorum phase a full dial attempt — hundreds of
// SYNs per second against a host that is down.
type DialBackoff struct {
	// Base is the window after the first failure. Zero or negative falls
	// back to DefaultDialBackoff.Base.
	Base time.Duration
	// Cap bounds the grown window.
	Cap time.Duration
	// Multiplier scales the window per consecutive failure; values below 1
	// are treated as 1 (constant pacing).
	Multiplier float64
	// Jitter is the fraction of each window randomized away, in [0, 1]: the
	// window is drawn uniformly from [w·(1−Jitter), w], so a fleet of
	// clients doesn't re-dial a recovering server in lockstep.
	Jitter float64
	// Seed, when non-zero, seeds the client's private jitter source for
	// reproducible pacing. Zero derives a stable seed from the process ID.
	Seed int64
}

// DefaultDialBackoff is the dial pacing every TCPClient starts with.
var DefaultDialBackoff = DialBackoff{
	Base:       50 * time.Millisecond,
	Cap:        2 * time.Second,
	Multiplier: 2,
	Jitter:     0.5,
}

// normalized fills unset fields from the defaults.
func (b DialBackoff) normalized() DialBackoff {
	if b.Base <= 0 {
		b.Base = DefaultDialBackoff.Base
	}
	if b.Cap < b.Base {
		b.Cap = b.Base
	}
	if b.Multiplier < 1 {
		b.Multiplier = 1
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	}
	if b.Jitter > 1 {
		b.Jitter = 1
	}
	return b
}

// window returns the backoff window after fails consecutive failures.
func (b DialBackoff) window(fails int, rng *rand.Rand) time.Duration {
	w := float64(b.Base)
	for i := 1; i < fails && w < float64(b.Cap); i++ {
		w *= b.Multiplier
	}
	if w > float64(b.Cap) {
		w = float64(b.Cap)
	}
	if b.Jitter > 0 {
		w -= rng.Float64() * b.Jitter * w
	}
	return time.Duration(w)
}

// tcpOptions collects the tunables shared by TCPClient and TCPServer.
type tcpOptions struct {
	maxHandlers    int
	sendQueue      int
	batchEnvelopes int
	batchBytes     int
	dial           func(ctx context.Context, addr string) (net.Conn, error)
	backoff        DialBackoff
}

func defaultTCPOptions() tcpOptions {
	return tcpOptions{
		maxHandlers:    defaultMaxHandlers,
		sendQueue:      defaultSendQueue,
		batchEnvelopes: defaultBatchEnvelopes,
		batchBytes:     defaultBatchBytes,
		backoff:        DefaultDialBackoff,
	}
}

// TCPOption tunes a TCPClient or TCPServer.
type TCPOption func(*tcpOptions)

// WithMaxHandlers bounds concurrent request handlers per server connection
// (default 128). Reads from a connection pause while its handler budget is
// exhausted — backpressure instead of unbounded goroutine growth.
func WithMaxHandlers(n int) TCPOption {
	return func(o *tcpOptions) {
		if n > 0 {
			o.maxHandlers = n
		}
	}
}

// WithSendQueue sets the per-connection outbound queue depth (default 256).
// Invokes beyond it wait — respecting their context — for the writer to
// drain.
func WithSendQueue(n int) TCPOption {
	return func(o *tcpOptions) {
		if n > 0 {
			o.sendQueue = n
		}
	}
}

// WithBatchLimits caps one FrameBatch at maxEnvelopes envelopes and
// (approximately) maxBytes of frame payload (defaults 64 and 128 KiB). A
// batch closes when either cap is hit; the next envelope starts a new one.
// Whatever the caps, a batch never grows past the wire frame limit.
func WithBatchLimits(maxEnvelopes, maxBytes int) TCPOption {
	return func(o *tcpOptions) {
		if maxEnvelopes > 0 {
			o.batchEnvelopes = maxEnvelopes
		}
		if maxBytes > 0 {
			o.batchBytes = maxBytes
		}
	}
}

// WithDialFunc replaces the network dialer (tests inject hanging or refusing
// dials; custom transports can layer TLS). The function must honor ctx.
func WithDialFunc(dial func(ctx context.Context, addr string) (net.Conn, error)) TCPOption {
	return func(o *tcpOptions) {
		if dial != nil {
			o.dial = dial
		}
	}
}

// WithDialBackoff tunes the per-peer re-dial pacing (default
// DefaultDialBackoff; see DialBackoff).
func WithDialBackoff(b DialBackoff) TCPOption {
	return func(o *tcpOptions) {
		o.backoff = b.normalized()
	}
}

// TCPServer serves a Handler on a TCP listener.
type TCPServer struct {
	id       types.ProcessID
	listener net.Listener
	handler  Handler
	opts     tcpOptions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewTCPServer starts listening on addr and serving h for process id. Use
// Addr to discover the bound address when addr has port 0.
func NewTCPServer(id types.ProcessID, addr string, h Handler, opts ...TCPOption) (*TCPServer, error) {
	o := defaultTCPOptions()
	for _, opt := range opts {
		opt(&o)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &TCPServer{
		id:       id,
		listener: ln,
		handler:  h,
		opts:     o,
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *TCPServer) Addr() string { return s.listener.Addr().String() }

// Close stops the listener and all connections, waiting for goroutines.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	err := s.listener.Close()
	s.wg.Wait()
	return err
}

// openConns reports the live connection count (tests poll it to observe
// write-error teardown).
func (s *TCPServer) openConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn runs one connection: a read loop decoding request frames, a
// bounded pool of handler goroutines, and a dedicated reply writer. Any
// write error is connection-fatal — the writer kills the connection, which
// unblocks the read loop and the handlers, instead of handlers piling more
// replies onto a dead socket.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// done is the connection's death signal; kill is idempotent and safe
	// from any of the goroutines below.
	done := make(chan struct{})
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			close(done)
			_ = conn.Close()
		})
	}
	defer kill()

	replies := make(chan tcpReply, s.opts.sendQueue)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		// A write error needs no report: the deferred kill tears the
		// connection down, which is all the error means here.
		defer kill()
		_ = writeBatches(newFrameEncoder(conn), replies, done, s.opts.batchEnvelopes, s.opts.batchBytes, maxWireFrame)
	}()

	// sem bounds in-flight handlers for this connection; when it is full
	// the read loop pauses, letting TCP flow control push back on the peer.
	sem := make(chan struct{}, s.opts.maxHandlers)
	dec := newFrameDecoder(conn)
	var handlerWG sync.WaitGroup
readLoop:
	for {
		var env tcpEnvelope
		if err := dec.decodeRequest(&env); err != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		case <-done:
			break readLoop
		}
		handlerWG.Add(1)
		go func(env tcpEnvelope) {
			defer handlerWG.Done()
			defer func() { <-sem }()
			rep := tcpReply{ID: env.ID, Resp: s.handler.HandleRequest(env.From, env.Req)}
			if !fitsFrame(wireSize(rep), maxWireFrame) {
				// Fail this request alone; the peer's reader would drop
				// the whole connection on an oversized frame.
				rep.Resp = ErrResponse(ErrFrameTooLarge)
			}
			select {
			case replies <- rep:
			case <-done:
			}
		}(env)
	}
	kill()
	handlerWG.Wait()
	writerWG.Wait()
}

// TCPClient is a transport Client over TCP. It maintains one pipelined
// connection per destination, established lazily, and routes responses by
// request ID.
type TCPClient struct {
	self types.ProcessID
	book func(types.ProcessID) (string, bool)
	opts tcpOptions

	mu     sync.Mutex
	conns  map[string]*tcpConn
	dials  map[string]*dialState
	rng    *rand.Rand
	closed bool
	next   atomic.Uint64
}

// dialState is one peer's re-dial pacing: consecutive failures and the
// instant the next attempt is allowed. Guarded by TCPClient.mu.
type dialState struct {
	fails int
	until time.Time
}

// NewTCPClient constructs a client for process self that resolves server
// addresses through book (typically a map lookup over a static address book).
func NewTCPClient(self types.ProcessID, book func(types.ProcessID) (string, bool), opts ...TCPOption) *TCPClient {
	o := defaultTCPOptions()
	for _, opt := range opts {
		opt(&o)
	}
	seed := o.backoff.Seed
	if seed == 0 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(self))
		seed = int64(h.Sum64())
	}
	return &TCPClient{
		self:  self,
		book:  book,
		opts:  o,
		conns: make(map[string]*tcpConn),
		dials: make(map[string]*dialState),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// StaticBook adapts an address map to the resolver shape NewTCPClient wants.
func StaticBook(m map[types.ProcessID]string) func(types.ProcessID) (string, bool) {
	return func(id types.ProcessID) (string, bool) {
		addr, ok := m[id]
		return addr, ok
	}
}

var _ Client = (*TCPClient)(nil)

// tcpConn is one pipelined peer connection: a bounded send queue owned by a
// writer goroutine, and the pending table the read loop resolves.
type tcpConn struct {
	conn  net.Conn
	sendQ chan tcpEnvelope
	// done closes exactly once when the connection dies; enqueued-but-
	// unwritten requests learn their fate through pending, not sendQ.
	done chan struct{}

	mu      sync.Mutex
	pending map[uint64]chan Response
	dead    bool
}

// Invoke implements Client. The request is registered in the pending table,
// handed to the connection's writer goroutine, and awaited — under no lock.
// A request or reply too large for one wire frame fails this Invoke alone
// with ErrFrameTooLarge.
func (c *TCPClient) Invoke(ctx context.Context, dst types.ProcessID, req Request) (Response, error) {
	env := tcpEnvelope{ID: c.next.Add(1), From: c.self, Req: req}
	if n := wireSize(env); !fitsFrame(n, maxWireFrame) {
		return Response{}, fmt.Errorf("%w: %d-byte request to %s", ErrFrameTooLarge, n, dst)
	}
	addr, ok := c.book(dst)
	if !ok {
		return Response{}, fmt.Errorf("%w: no address for %s", ErrUnreachable, dst)
	}
	tc, err := c.conn(ctx, addr)
	if err != nil {
		if errors.Is(err, ErrClosed) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return Response{}, err
		}
		return Response{}, fmt.Errorf("%w: dialing %s: %v", ErrUnreachable, dst, err)
	}

	id := env.ID
	ch := make(chan Response, 1)
	tc.mu.Lock()
	if tc.dead {
		tc.mu.Unlock()
		return Response{}, fmt.Errorf("%w: connection to %s lost", ErrUnreachable, dst)
	}
	tc.pending[id] = ch
	tc.mu.Unlock()

	select {
	case tc.sendQ <- env:
	case <-tc.done:
		c.forget(tc, id)
		return Response{}, fmt.Errorf("%w: connection to %s lost", ErrUnreachable, dst)
	case <-ctx.Done():
		c.forget(tc, id)
		return Response{}, ctx.Err()
	}

	select {
	case resp, open := <-ch:
		if !open {
			return Response{}, fmt.Errorf("%w: connection to %s closed", ErrUnreachable, dst)
		}
		if !resp.OK && resp.Err == ErrFrameTooLarge.Error() {
			return Response{}, fmt.Errorf("%w: reply from %s", ErrFrameTooLarge, dst)
		}
		return resp, nil
	case <-ctx.Done():
		c.forget(tc, id)
		return Response{}, ctx.Err()
	}
}

// forget abandons a pending request (context expiry, enqueue failure). A
// response that still arrives finds no channel and is dropped.
func (c *TCPClient) forget(tc *tcpConn, id uint64) {
	tc.mu.Lock()
	delete(tc.pending, id)
	tc.mu.Unlock()
}

// Close tears down all connections, fails every in-flight Invoke with
// ErrUnreachable, and makes subsequent Invokes return ErrClosed.
func (c *TCPClient) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns := make(map[string]*tcpConn, len(c.conns))
	for addr, tc := range c.conns {
		conns[addr] = tc
	}
	c.mu.Unlock()
	for addr, tc := range conns {
		c.dropConn(addr, tc)
	}
}

// conn returns the live connection for addr, dialing one — under the
// caller's context plus the configured timeout — if none exists. Re-dials of
// a peer that keeps refusing are paced by the dial backoff: inside a peer's
// backoff window conn fails fast instead of dialing, so a dead server costs
// each quorum phase a map lookup, not a SYN + refusal round trip.
func (c *TCPClient) conn(ctx context.Context, addr string) (*tcpConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: invoke after Close", ErrClosed)
	}
	if tc, ok := c.conns[addr]; ok {
		c.mu.Unlock()
		return tc, nil
	}
	if ds, ok := c.dials[addr]; ok {
		if wait := time.Until(ds.until); wait > 0 {
			fails := ds.fails
			c.mu.Unlock()
			return nil, fmt.Errorf("dial backoff after %d failures (next attempt in %v)", fails, wait.Round(time.Millisecond))
		}
	}
	c.mu.Unlock()

	dial := c.opts.dial
	if dial == nil {
		d := net.Dialer{Timeout: dialTimeout}
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	raw, err := dial(ctx, addr)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller gave up, the peer didn't refuse: not a failure to
			// hold against the peer.
			return nil, ctxErr
		}
		c.noteDialFailure(addr)
		return nil, err
	}
	c.clearDialFailures(addr)
	tc := &tcpConn{
		conn:    raw,
		sendQ:   make(chan tcpEnvelope, c.opts.sendQueue),
		done:    make(chan struct{}),
		pending: make(map[uint64]chan Response),
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = raw.Close()
		return nil, fmt.Errorf("%w: invoke after Close", ErrClosed)
	}
	if existing, ok := c.conns[addr]; ok {
		// Lost the race; use the established connection.
		c.mu.Unlock()
		_ = raw.Close()
		return existing, nil
	}
	c.conns[addr] = tc
	c.mu.Unlock()

	go c.writeLoop(addr, tc)
	go c.readLoop(addr, tc)
	return tc, nil
}

// noteDialFailure records one failed dial of addr and opens (or grows) its
// backoff window.
func (c *TCPClient) noteDialFailure(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds := c.dials[addr]
	if ds == nil {
		ds = &dialState{}
		c.dials[addr] = ds
	}
	ds.fails++
	ds.until = time.Now().Add(c.opts.backoff.window(ds.fails, c.rng))
}

// clearDialFailures forgets addr's backoff state after a successful dial.
func (c *TCPClient) clearDialFailures(addr string) {
	c.mu.Lock()
	delete(c.dials, addr)
	c.mu.Unlock()
}

// writeBatches is the one writer loop of the data plane: the client runs
// it over a connection's request queue, the server over its reply queue. It
// is the only goroutine that can block in that socket's writes; Invoke,
// handlers and Close never do.
//
// It drains the queue into FrameBatch frames — every envelope bound for the
// peer, whatever key it targets, packs together — and flushes once per
// burst. A batch closes when it reaches maxEnvelopes or maxBytes, and before
// an envelope that would push it past maxFrame (the reader's frame limit).
// It returns on the first write error or once done closes.
func writeBatches[T wireEnvelope](enc *frameEncoder, queue <-chan T, done <-chan struct{}, maxEnvelopes, maxBytes, maxFrame int) error {
	batch := make([]T, 0, maxEnvelopes)
	size := 0
	emit := func() error {
		err := encodeBatch(enc, batch)
		batch, size = batch[:0], 0
		return err
	}
	add := func(v T) error {
		n := wireSize(v)
		if len(batch) > 0 && !fitsFrame(size+n, maxFrame) {
			if err := emit(); err != nil {
				return err
			}
		}
		batch = append(batch, v)
		size += n
		if len(batch) >= maxEnvelopes || size >= maxBytes {
			return emit()
		}
		return nil
	}
	for {
		select {
		case v := <-queue:
			if err := add(v); err != nil {
				return err
			}
			for yielded := false; ; {
				select {
				case v = <-queue:
					if err := add(v); err != nil {
						return err
					}
					continue
				default:
				}
				if yielded {
					break
				}
				// One cooperative yield before closing the batch: the
				// enqueue that woke this writer put it in the scheduler's
				// next slot, ahead of every other caller mid-broadcast (or
				// handler mid-reply) — draining now would pack batches of
				// one, forever. A single Gosched lets them enqueue first;
				// worst case is one empty reschedule, no timers.
				yielded = true
				runtime.Gosched()
			}
			if err := emit(); err != nil {
				return err
			}
			if err := enc.flush(); err != nil {
				return err
			}
		case <-done:
			return nil
		}
	}
}

// writeLoop runs the connection's request writer and tears the connection
// down when it stops; dropConn fails the pending requests, so a write error
// needs no further report.
func (c *TCPClient) writeLoop(addr string, tc *tcpConn) {
	defer c.dropConn(addr, tc)
	_ = writeBatches(newFrameEncoder(tc.conn), tc.sendQ, tc.done, c.opts.batchEnvelopes, c.opts.batchBytes, maxWireFrame)
}

// readLoop owns the inbound half: decode reply frames and resolve pending
// requests by ID.
func (c *TCPClient) readLoop(addr string, tc *tcpConn) {
	dec := newFrameDecoder(tc.conn)
	defer c.dropConn(addr, tc)
	for {
		var reply tcpReply
		if err := dec.decodeReply(&reply); err != nil {
			return
		}
		tc.mu.Lock()
		ch, ok := tc.pending[reply.ID]
		delete(tc.pending, reply.ID)
		tc.mu.Unlock()
		if ok {
			ch <- reply.Resp
		}
	}
}

// dropConn removes the connection from the client's table (if still
// current), marks it dead, fails every pending request, and closes the
// socket. Idempotent; called from either loop or from Close.
func (c *TCPClient) dropConn(addr string, tc *tcpConn) {
	c.mu.Lock()
	if c.conns[addr] == tc {
		delete(c.conns, addr)
	}
	c.mu.Unlock()

	tc.mu.Lock()
	if !tc.dead {
		tc.dead = true
		close(tc.done)
		for id, ch := range tc.pending {
			close(ch)
			delete(tc.pending, id)
		}
	}
	tc.mu.Unlock()
	_ = tc.conn.Close()
}
