package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/types"
)

// startBlockingTCPServer returns a server whose handler parks every request
// until release is closed — the shape needed to hold Invokes in flight.
func startBlockingTCPServer(t *testing.T, id types.ProcessID, addr string, release <-chan struct{}) *TCPServer {
	t.Helper()
	srv, err := NewTCPServer(id, addr, HandlerFunc(func(types.ProcessID, Request) Response {
		<-release
		return OKResponse(nil)
	}))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestTCPConnectionLossFailsInflightInvokes kills a server while many
// Invokes are outstanding on one multiplexed connection and asserts every
// caller gets ErrUnreachable promptly rather than hanging.
func TestTCPConnectionLossFailsInflightInvokes(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	srv := startBlockingTCPServer(t, "s1", "127.0.0.1:0", release)

	client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": srv.Addr()}))
	defer client.Close()

	const inflight = 8
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := client.Invoke(context.Background(), "s1", Request{Service: "svc", Type: "op"})
			errs <- err
		}()
	}
	// Let the requests reach the server (its handlers park on release), then
	// tear the connection down underneath them.
	time.Sleep(50 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	for i := 0; i < inflight; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("in-flight Invoke returned %v, want ErrUnreachable", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight Invoke hung after connection loss")
		}
	}
	close(release) // unpark handlers so Close can drain its goroutines
	if err := <-closed; err != nil {
		t.Fatalf("server close: %v", err)
	}
}

// TestTCPClientRedialsAfterConnectionLoss restarts the server on the same
// address and asserts a subsequent Invoke transparently re-establishes the
// connection.
func TestTCPClientRedialsAfterConnectionLoss(t *testing.T) {
	t.Parallel()
	srv, err := NewTCPServer("s1", "127.0.0.1:0", echoHandler(nil))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": addr}))
	defer client.Close()

	ctx := context.Background()
	if _, err := client.Invoke(ctx, "s1", Request{Payload: []byte("warm")}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Rebind the same address. The OS may briefly hold the port; retry.
	var srv2 *TCPServer
	for deadline := time.Now().Add(5 * time.Second); ; {
		srv2, err = NewTCPServer("s1", addr, echoHandler(nil))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	// The first Invoke after the loss may catch the stale connection before
	// the read loop reaps it — that must surface as ErrUnreachable, never a
	// hang — and the client must recover by itself on a later call.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cctx, cancel := context.WithTimeout(ctx, time.Second)
		resp, err := client.Invoke(cctx, "s1", Request{Payload: []byte("again")})
		cancel()
		if err == nil {
			if string(resp.Payload) != "again" {
				t.Fatalf("resp = %+v", resp)
			}
			return // redialed and served
		}
		if !errors.Is(err, ErrUnreachable) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Invoke after restart: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never redialed; last error: %v", err)
		}
	}
}

// TestTCPConcurrentRedialRace drives many goroutines through Invoke right
// after a connection loss: all must succeed (or fail cleanly and succeed on
// retry), and the race in TCPClient.conn must collapse their dials onto a
// single shared connection.
func TestTCPConcurrentRedialRace(t *testing.T) {
	t.Parallel()
	srv, err := NewTCPServer("s1", "127.0.0.1:0", echoHandler(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": addr}))
	defer client.Close()

	ctx := context.Background()
	if _, err := client.Invoke(ctx, "s1", Request{}); err != nil {
		t.Fatal(err)
	}
	// Sever the established connection from the client side so the next
	// Invokes all observe a missing conn and race to redial.
	client.mu.Lock()
	stale := client.conns[addr]
	client.mu.Unlock()
	client.dropConn(addr, stale)

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("r-%d", i))
			for attempt := 0; ; attempt++ {
				resp, err := client.Invoke(ctx, "s1", Request{Payload: payload})
				if err == nil {
					if string(resp.Payload) != string(payload) {
						errs <- fmt.Errorf("crossed response %q for %q", resp.Payload, payload)
					}
					return
				}
				if !errors.Is(err, ErrUnreachable) || attempt > 3 {
					errs <- fmt.Errorf("request %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	client.mu.Lock()
	open := len(client.conns)
	client.mu.Unlock()
	if open != 1 {
		t.Fatalf("client holds %d connections after concurrent redial, want 1", open)
	}
}

// --- regression tests for the PR 6 TCP data-plane bugfixes ---

// TestTCPDialHonorsContext pins the DialContext fix: a dial that black-holes
// (SYN never answered) must not hang Invoke past its context. The dial is
// injected so the test is hermetic — it parks until the context expires,
// exactly like a dropped SYN.
func TestTCPDialHonorsContext(t *testing.T) {
	t.Parallel()
	client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": "192.0.2.1:9"}),
		WithDialFunc(func(ctx context.Context, addr string) (net.Conn, error) {
			<-ctx.Done() // black hole: only the context gets us out
			return nil, ctx.Err()
		}))
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Invoke(ctx, "s1", Request{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Invoke during black-holed dial returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Invoke took %v to honor its context during dial", elapsed)
	}
}

// TestTCPInvokeAfterCloseRejected pins the use-after-Close fix: Close marks
// the client dead, and a later Invoke fails with ErrClosed instead of
// silently re-dialing the peer.
func TestTCPInvokeAfterCloseRejected(t *testing.T) {
	t.Parallel()
	var dials atomic.Int64
	srv, err := NewTCPServer("s1", "127.0.0.1:0", echoHandler(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": srv.Addr()}),
		WithDialFunc(func(ctx context.Context, addr string) (net.Conn, error) {
			dials.Add(1)
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}))
	if _, err := client.Invoke(context.Background(), "s1", Request{Payload: []byte("pre")}); err != nil {
		t.Fatal(err)
	}
	client.Close()

	if _, err := client.Invoke(context.Background(), "s1", Request{Payload: []byte("post")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Invoke after Close returned %v, want ErrClosed", err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("client re-dialed after Close: %d dials, want 1", got)
	}
	client.Close() // idempotent
}

// TestTCPCloseFailsInflightInvokes pins the Close-drains-pending fix:
// Invokes parked on a slow server when the client closes must fail promptly
// with ErrUnreachable, not wait for the read loop to notice on its own.
func TestTCPCloseFailsInflightInvokes(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	srv := startBlockingTCPServer(t, "s1", "127.0.0.1:0", release)
	// LIFO: unpark the handlers first, then Close can drain its goroutines.
	defer srv.Close()
	defer close(release)

	client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": srv.Addr()}))
	const inflight = 8
	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := client.Invoke(context.Background(), "s1", Request{Service: "svc", Type: "op"})
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the Invokes reach the parked handlers
	done := make(chan struct{})
	go func() { client.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("client Close hung with Invokes in flight")
	}
	for i := 0; i < inflight; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("in-flight Invoke after Close returned %v, want ErrUnreachable", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("in-flight Invoke hung after client Close")
		}
	}
}

// startStuffedPeer listens, accepts, and never reads — with a tiny receive
// buffer, so a few large frames fill the kernel pipes and block the
// client-side writer mid-syscall, the shape of a stalled peer.
func startStuffedPeer(t *testing.T) (addr string, cleanup func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetReadBuffer(4 << 10)
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
	}()
	return ln.Addr().String(), func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	}
}

// stuffedDialFunc dials for real but shrinks the socket send buffer, so the
// writer goroutine blocks after a handful of large frames.
func stuffedDialFunc(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4 << 10)
	}
	return conn, nil
}

// TestTCPSlowPeerDoesNotStallOthers pins the lock-across-syscall fix: with
// the writer to a stuffed peer blocked in a socket write, (a) an Invoke to
// that peer still honors its context, and (b) Invokes to a healthy peer
// proceed at full speed.
func TestTCPSlowPeerDoesNotStallOthers(t *testing.T) {
	t.Parallel()
	stuffedAddr, cleanup := startStuffedPeer(t)
	defer cleanup()
	healthy, err := NewTCPServer("ok", "127.0.0.1:0", echoHandler(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	client := NewTCPClient("c1",
		StaticBook(map[types.ProcessID]string{"slow": stuffedAddr, "ok": healthy.Addr()}),
		WithDialFunc(stuffedDialFunc),
		WithSendQueue(1))
	defer client.Close()

	// Stuff the slow peer: large frames until the writer is wedged in a
	// syscall and the 1-deep send queue is full.
	payload := bytes.Repeat([]byte{7}, 1<<20)
	var wg sync.WaitGroup
	stuffedErrs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.Invoke(context.Background(), "slow", Request{Payload: payload})
			stuffedErrs <- err
		}()
	}
	time.Sleep(100 * time.Millisecond)

	// (a) a fresh Invoke to the stuffed peer returns on its own context.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	start := time.Now()
	_, err = client.Invoke(ctx, "slow", Request{Payload: payload})
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Invoke to stuffed peer returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Invoke to stuffed peer held for %v past its 100ms context", elapsed)
	}

	// (b) the healthy peer is unaffected.
	for i := 0; i < 4; i++ {
		hctx, hcancel := context.WithTimeout(context.Background(), 2*time.Second)
		resp, err := client.Invoke(hctx, "ok", Request{Payload: []byte("hi")})
		hcancel()
		if err != nil || !resp.OK {
			t.Fatalf("healthy peer Invoke %d: %v (resp %+v)", i, err, resp)
		}
	}

	// (c) teardown is not blocked behind the wedged writer.
	closed := make(chan struct{})
	go func() { client.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("client Close blocked behind a stuffed peer")
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if err := <-stuffedErrs; !errors.Is(err, ErrUnreachable) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("stuffed Invoke returned %v, want ErrUnreachable", err)
		}
	}
}

// TestTCPServerWriteErrorTearsDownConn pins the serveConn fix: when a reply
// cannot be written (peer vanished), the server tears the connection down
// instead of looping on a dead socket.
func TestTCPServerWriteErrorTearsDownConn(t *testing.T) {
	t.Parallel()
	handled := make(chan struct{}, 64)
	srv, err := NewTCPServer("s1", "127.0.0.1:0", HandlerFunc(func(_ types.ProcessID, req Request) Response {
		handled <- struct{}{}
		return OKResponse(bytes.Repeat([]byte{1}, 1<<16))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A raw peer that sends one valid request and disappears without
	// reading the reply.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	encodeFrames(t, newFrameEncoder(conn), []tcpEnvelope{{ID: 1, From: "ghost", Req: Request{Service: "svc", Type: "op"}}})
	<-handled // the handler ran; now vanish before the reply drains
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0) // RST instead of FIN so the pending write errors
	}
	_ = conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.openConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d connections after peer vanished", srv.openConns())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPServerBoundsHandlerConcurrency pins the unbounded-goroutine fix:
// per-connection handler concurrency never exceeds WithMaxHandlers even
// when the client floods far more concurrent requests.
func TestTCPServerBoundsHandlerConcurrency(t *testing.T) {
	t.Parallel()
	const bound = 4
	var inflight, maxSeen atomic.Int64
	srv, err := NewTCPServer("s1", "127.0.0.1:0", HandlerFunc(func(types.ProcessID, Request) Response {
		cur := inflight.Add(1)
		for {
			seen := maxSeen.Load()
			if cur <= seen || maxSeen.CompareAndSwap(seen, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return OKResponse(nil)
	}), WithMaxHandlers(bound))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": srv.Addr()}))
	defer client.Close()

	const requests = 64
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Invoke(context.Background(), "s1", Request{}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := maxSeen.Load(); got > bound {
		t.Fatalf("observed %d concurrent handlers, bound is %d", got, bound)
	}
}
