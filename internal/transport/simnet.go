package transport

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ares-storage/ares/internal/types"
)

// DelayRange bounds one-way message delivery delay: every message takes a
// duration drawn uniformly from [Min, Max]. This realizes the d/D model of
// the paper's latency analysis.
type DelayRange struct {
	Min time.Duration
	Max time.Duration
}

// Fixed returns a degenerate range delivering every message in exactly d.
func Fixed(d time.Duration) DelayRange {
	return DelayRange{Min: d, Max: d}
}

// SimnetOption configures a Simnet.
type SimnetOption func(*Simnet)

// WithDelayRange sets the default per-message delay range [d, D].
func WithDelayRange(min, max time.Duration) SimnetOption {
	return func(n *Simnet) { n.defaultDelay = DelayRange{Min: min, Max: max} }
}

// WithSeed seeds the delay sampler for reproducible executions.
func WithSeed(seed int64) SimnetOption {
	return func(n *Simnet) { n.rng = rand.New(rand.NewSource(seed)) }
}

// LinkFaults describes adversarial behaviour injected on a directed link,
// beyond the blunt all-or-nothing of BlockLink. The chaos scheduler
// (internal/chaos) mutates these over time to build nemesis executions.
//
// Drop and Dup are per-message probabilities in [0, 1]. Extra is an
// additional delay range added on top of the link's sampled [d, D] delay —
// the "delay spike beyond [d, D]" the paper's worst-case constructions rely
// on. The zero value injects nothing.
type LinkFaults struct {
	// Drop is the probability a message on the link is lost. A dropped
	// request fails the sender's Invoke immediately with ErrUnreachable
	// (the TCP transport surfaces loss as a reset), so quorum logic routes
	// around it; a dropped response is lost after the handler has already
	// executed — the caller errors but the server-side effect stands.
	Drop float64
	// Dup is the probability a delivered request is delivered a second
	// time (after an independently sampled delay); the duplicate's
	// response is discarded. Protocol handlers must be idempotent.
	Dup float64
	// Extra widens the link's delay: every message additionally waits a
	// duration drawn uniformly from [Extra.Min, Extra.Max].
	Extra DelayRange
}

// Simnet is an in-memory network connecting simulated processes. Handlers
// registered for server processes are invoked on the caller's goroutine
// after the sampled request delay; responses incur an independent delay.
//
// The zero value is not usable; construct with NewSimnet.
type Simnet struct {
	mu            sync.RWMutex
	handlers      map[types.ProcessID]Handler
	crashed       map[types.ProcessID]bool
	processDelay  map[types.ProcessID]DelayRange
	linkBlocked   map[linkKey]bool
	linkFaults    map[linkKey]LinkFaults
	defaultFaults LinkFaults
	defaultDelay  DelayRange

	// faultsOn short-circuits the per-message fault lookups: it is true
	// iff any per-link entry or a non-zero default is installed, so the
	// fault-free hot path (every benchmark, most tests) pays one atomic
	// load instead of extra RLock acquisitions per message.
	faultsOn atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand

	counters *Counters

	// inflight tracks background deliveries of messages whose sender gave
	// up waiting (reliable channels still deliver them). Quiesce waits.
	inflight sync.WaitGroup

	// Timer-fidelity pump. Message delays are realized with runtime timers,
	// and timer wakeups become very imprecise when every P in the process is
	// parked — measured overshoot of several hundred µs on sub-ms delays,
	// which swamps the [d, D] model the latency experiments depend on. The
	// pump is one goroutine that stays runnable (yield-spinning) while any
	// delay sleep is pending, so the scheduler keeps checking timer heaps
	// and deliveries fire close to their deadlines. It parks on pumpWake
	// when no sleeps are pending and is never started on zero-delay
	// networks (unit tests), which perform no delay sleeps at all.
	// Without Close, a started pump parks on pumpWake when idle — one
	// parked goroutine pinning the Simnet for the process lifetime, which
	// is fine for test and benchmark processes but wrong for anything
	// long-lived that churns networks.
	sleeping  atomic.Int64
	pumpWake  chan struct{}
	pumpStop  chan struct{}
	pumpOnce  sync.Once
	closeOnce sync.Once
}

type linkKey struct {
	from, to types.ProcessID
}

// NewSimnet constructs an in-memory network. With no options, delivery is
// immediate (zero delay), which is what unit tests want; latency experiments
// configure [d, D] explicitly.
func NewSimnet(opts ...SimnetOption) *Simnet {
	n := &Simnet{
		handlers:     make(map[types.ProcessID]Handler),
		crashed:      make(map[types.ProcessID]bool),
		processDelay: make(map[types.ProcessID]DelayRange),
		linkBlocked:  make(map[linkKey]bool),
		linkFaults:   make(map[linkKey]LinkFaults),
		rng:          rand.New(rand.NewSource(1)),
		counters:     NewCounters(),
		pumpWake:     make(chan struct{}, 1),
		pumpStop:     make(chan struct{}),
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// Register installs the handler for a server process. Re-registering
// replaces the previous handler (used when a node restarts).
func (n *Simnet) Register(id types.ProcessID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[id] = h
}

// Deregister removes a process's handler entirely.
func (n *Simnet) Deregister(id types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, id)
}

// Crash marks a process as crash-failed: requests to it hang until the
// caller's context expires, mirroring a crashed server in the asynchronous
// model (a crashed process is indistinguishable from a slow one).
//
// Crash is idempotent: crashing an already-crashed process is a no-op. The
// process's handler — and therefore all of its state — is retained, so a
// later Restart models crash-recovery with stable storage: the server
// resumes serving exactly the tags/values it held at the crash point.
func (n *Simnet) Crash(id types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Restart clears a crash mark, bringing the process back with the state its
// handler retained (see Crash). Restart is idempotent: restarting a live
// (or never-crashed) process is a no-op.
func (n *Simnet) Restart(id types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// Crashed reports whether id is currently marked crash-failed.
func (n *Simnet) Crashed(id types.ProcessID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.crashed[id]
}

// BlockLink blocks the directed link from → to: messages from 'from' to
// 'to' are dropped, while the reverse direction to → from is unaffected.
// Blocking is one-way by design — asymmetric faults (requests lost but
// responses deliverable, or vice versa) are exactly the executions that
// distinguish quorum protocols from primary-backup ones. For a symmetric
// cut use Partition. BlockLink is idempotent.
func (n *Simnet) BlockLink(from, to types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkBlocked[linkKey{from, to}] = true
}

// UnblockLink re-enables a previously blocked link (one direction, matching
// BlockLink). Idempotent.
func (n *Simnet) UnblockLink(from, to types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.linkBlocked, linkKey{from, to})
}

// LinkBlocked reports whether the directed link from → to is blocked.
func (n *Simnet) LinkBlocked(from, to types.ProcessID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.linkBlocked[linkKey{from, to}]
}

// Partition cuts every link between a process in groupA and a process in
// groupB, in both directions — the symmetric network partition of the
// nemesis literature. Processes absent from both groups keep full
// connectivity, and links within a group are untouched. Undo with Heal.
func (n *Simnet) Partition(groupA, groupB []types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range groupA {
		for _, b := range groupB {
			n.linkBlocked[linkKey{a, b}] = true
			n.linkBlocked[linkKey{b, a}] = true
		}
	}
}

// Heal removes the cross-group blocks a Partition of the same groups
// installed (both directions). Links blocked individually via BlockLink
// between the groups are unblocked too — Heal means "these two groups can
// talk again".
func (n *Simnet) Heal(groupA, groupB []types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, a := range groupA {
		for _, b := range groupB {
			delete(n.linkBlocked, linkKey{a, b})
			delete(n.linkBlocked, linkKey{b, a})
		}
	}
}

// SetLinkFaults installs drop/duplication/delay-spike faults on the
// directed link from → to, replacing any previous setting for that link.
// The setting overrides the network default (SetDefaultLinkFaults) even
// when zero — a zero LinkFaults shields the link from the default. Remove
// the override with ClearLinkFault.
func (n *Simnet) SetLinkFaults(from, to types.ProcessID, f LinkFaults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkFaults[linkKey{from, to}] = f
	n.recomputeFaultsOn()
}

// ClearLinkFault removes the per-link fault override from → to, returning
// the link to the network default.
func (n *Simnet) ClearLinkFault(from, to types.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.linkFaults, linkKey{from, to})
	n.recomputeFaultsOn()
}

// SetDefaultLinkFaults installs faults applied to every link that has no
// per-link override — the "10% global message loss" style of scenario.
// A zero LinkFaults disables the default.
func (n *Simnet) SetDefaultLinkFaults(f LinkFaults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaultFaults = f
	n.recomputeFaultsOn()
}

// ClearLinkFaults removes every per-link fault and the default — the "heal
// everything" step at the end of a fault window. Blocked links and crash
// marks are unaffected.
func (n *Simnet) ClearLinkFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkFaults = make(map[linkKey]LinkFaults)
	n.defaultFaults = LinkFaults{}
	n.recomputeFaultsOn()
}

// recomputeFaultsOn refreshes the hot-path guard; callers hold n.mu.
func (n *Simnet) recomputeFaultsOn() {
	n.faultsOn.Store(len(n.linkFaults) > 0 || n.defaultFaults != LinkFaults{})
}

// faultsFor resolves the faults governing a directed link: the per-link
// setting when present, the network default otherwise. The zero value
// comes back without taking the lock when no faults are installed at all.
func (n *Simnet) faultsFor(from, to types.ProcessID) LinkFaults {
	if !n.faultsOn.Load() {
		return LinkFaults{}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if f, ok := n.linkFaults[linkKey{from, to}]; ok {
		return f
	}
	return n.defaultFaults
}

// roll draws a uniform [0, 1) sample from the seeded RNG.
func (n *Simnet) roll() float64 {
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return n.rng.Float64()
}

// sampleRange draws from an arbitrary delay range using the seeded RNG.
func (n *Simnet) sampleRange(r DelayRange) time.Duration {
	if r.Max <= r.Min {
		return r.Min
	}
	n.rngMu.Lock()
	defer n.rngMu.Unlock()
	return r.Min + time.Duration(n.rng.Int63n(int64(r.Max-r.Min)+1))
}

// SetProcessDelay overrides the delay range for every message a process
// sends or receives. This realizes the paper's worst-case constructions
// where reconfiguration clients enjoy delay d while readers/writers suffer D
// (§4.4). The initiator's override wins when both endpoints have one.
func (n *Simnet) SetProcessDelay(id types.ProcessID, r DelayRange) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.processDelay[id] = r
}

// Counters exposes the byte/message accounting for cost experiments.
func (n *Simnet) Counters() *Counters { return n.counters }

// Quiesce blocks until every in-flight background delivery has completed —
// what "the network drains" means for tests asserting on server state that
// quorum-completed operations may still be propagating to stragglers.
func (n *Simnet) Quiesce() {
	n.inflight.Wait()
}

// Client returns the network endpoint for process id. The returned client is
// safe for concurrent use.
func (n *Simnet) Client(id types.ProcessID) Client {
	return &simClient{net: n, self: id}
}

// startSleep registers a pending delay sleep, starting (or waking) the pump.
// Callers must pair it with a deferred endSleep.
func (n *Simnet) startSleep() {
	n.pumpOnce.Do(func() { go n.pumpLoop() })
	if n.sleeping.Add(1) == 1 {
		select {
		case n.pumpWake <- struct{}{}:
		default:
		}
	}
}

func (n *Simnet) endSleep() {
	n.sleeping.Add(-1)
}

// Close retires the network's pump goroutine. The network remains usable,
// but later delay sleeps run without fidelity help; call it only when done
// with the network. Close is safe to call multiple times and without a pump
// ever having started.
func (n *Simnet) Close() {
	n.closeOnce.Do(func() { close(n.pumpStop) })
}

// pumpLoop yield-spins while delay sleeps are pending and parks otherwise.
// See the Simnet field comment for why this exists.
func (n *Simnet) pumpLoop() {
	for {
		if n.sleeping.Load() > 0 {
			runtime.Gosched()
			select {
			case <-n.pumpStop:
				return
			default:
			}
			continue
		}
		select {
		case <-n.pumpWake:
		case <-n.pumpStop:
			return
		}
	}
}

// sleep pauses for d (a sampled message delay) with the pump engaged, unless
// the context expires first. Zero delays return immediately and never touch
// the pump.
func (n *Simnet) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	n.startSleep()
	defer n.endSleep()
	return sleepCtx(ctx, d)
}

// sleepBackground pauses for d with the pump engaged, with no cancellation —
// the background-delivery wait of a message whose sender stopped waiting.
func (n *Simnet) sleepBackground(d time.Duration) {
	if d <= 0 {
		return
	}
	n.startSleep()
	defer n.endSleep()
	time.Sleep(d)
}

// sample draws the base delay for a message travelling from -> to (the
// process-delay resolution keeps the initiator-wins rule of
// SetProcessDelay). Fault-injected delay spikes are directional and added
// per leg via extraFor, because the resolution direction and the message
// direction differ on the response leg.
func (n *Simnet) sample(from, to types.ProcessID) time.Duration {
	n.mu.RLock()
	r, ok := n.processDelay[from]
	if !ok {
		r, ok = n.processDelay[to]
	}
	if !ok {
		r = n.defaultDelay
	}
	n.mu.RUnlock()
	return n.sampleRange(r)
}

// extraFor draws the fault-injected delay spike for one message on the
// directed link from → to; zero when the link has no Extra configured.
func (n *Simnet) extraFor(from, to types.ProcessID) time.Duration {
	f := n.faultsFor(from, to)
	if f.Extra.Min <= 0 && f.Extra.Max <= 0 {
		return 0
	}
	return n.sampleRange(f.Extra)
}

func (n *Simnet) lookup(id types.ProcessID) (Handler, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.crashed[id] {
		return nil, false
	}
	h, ok := n.handlers[id]
	return h, ok
}

func (n *Simnet) blocked(from, to types.ProcessID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.crashed[from] || n.linkBlocked[linkKey{from, to}]
}

type simClient struct {
	net  *Simnet
	self types.ProcessID
}

var _ Client = (*simClient)(nil)

// Invoke implements Client. A request to a crashed or partitioned process
// blocks until ctx is done — in an asynchronous system the caller can never
// distinguish "crashed" from "slow", so protocols must rely on quorums.
func (c *simClient) Invoke(ctx context.Context, dst types.ProcessID, req Request) (Response, error) {
	// No early ctx check: in the model, sending to all servers is part of
	// the operation's invocation step, so the message departs even when the
	// caller is about to stop waiting; delivery then completes in the
	// background (reliable channels).
	net := c.net
	if net.blocked(c.self, dst) {
		<-ctx.Done()
		return Response{}, fmt.Errorf("%w: %s (send blocked)", ErrUnreachable, dst)
	}
	reqFaults := net.faultsFor(c.self, dst)
	if reqFaults.Drop > 0 && net.roll() < reqFaults.Drop {
		// Request lost on the wire. Fail fast (a detected omission, the way
		// the TCP transport surfaces a reset) so the sender's quorum logic
		// can route around the loss instead of stalling on it.
		return Response{}, fmt.Errorf("%w: %s (request dropped)", ErrUnreachable, dst)
	}
	net.counters.Record(req.Service, req.Type, dirRequest, len(req.Payload))
	if reqFaults.Dup > 0 && net.roll() < reqFaults.Dup {
		// Duplicate delivery: the same request arrives a second time after an
		// independently sampled delay; its response is discarded. Handlers
		// must be idempotent (every ARES service is tag-monotonic).
		dupReq := req
		net.inflight.Add(1)
		go func() {
			defer net.inflight.Done()
			net.sleepBackground(net.sample(c.self, dst) + net.extraFor(c.self, dst))
			if h, ok := net.lookup(dst); ok {
				net.counters.Record(dupReq.Service, dupReq.Type, dirRequest, len(dupReq.Payload))
				resp := h.HandleRequest(c.self, dupReq)
				net.counters.Record(dupReq.Service, dupReq.Type, dirResponse, len(resp.Payload))
			}
		}()
	}
	reqDelay := net.sample(c.self, dst) + net.extraFor(c.self, dst)
	sendTime := time.Now()
	if err := net.sleep(ctx, reqDelay); err != nil {
		// The channels of the model (§2) are reliable: a message already on
		// the wire reaches its destination even though this sender stopped
		// waiting (e.g. its quorum completed elsewhere). Deliver in the
		// background and discard the response.
		remaining := reqDelay - time.Since(sendTime)
		net.inflight.Add(1)
		go func() {
			defer net.inflight.Done()
			net.sleepBackground(remaining)
			if h, ok := net.lookup(dst); ok {
				resp := h.HandleRequest(c.self, req)
				net.counters.Record(req.Service, req.Type, dirResponse, len(resp.Payload))
			}
		}()
		return Response{}, err
	}
	h, ok := net.lookup(dst)
	if !ok {
		// Crashed or unknown destination: the message is lost in the void.
		<-ctx.Done()
		return Response{}, fmt.Errorf("%w: %s", ErrUnreachable, dst)
	}
	resp := h.HandleRequest(c.self, req)
	if net.blocked(dst, c.self) {
		<-ctx.Done()
		return Response{}, fmt.Errorf("%w: %s (response blocked)", ErrUnreachable, dst)
	}
	if respFaults := net.faultsFor(dst, c.self); respFaults.Drop > 0 && net.roll() < respFaults.Drop {
		// Response lost after the handler executed: the server-side effect
		// stands (the message was delivered) but the caller learns nothing —
		// the classic "did my write land?" ambiguity of lossy networks.
		return Response{}, fmt.Errorf("%w: %s (response dropped)", ErrUnreachable, dst)
	}
	net.counters.Record(req.Service, req.Type, dirResponse, len(resp.Payload))
	// The response is a dst → c.self message: its spike comes from that
	// direction's faults (the base delay keeps initiator-first resolution).
	if err := net.sleep(ctx, net.sample(c.self, dst)+net.extraFor(dst, c.self)); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// sleepCtx sleeps for d unless the context expires first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
