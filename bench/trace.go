package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/transport"
)

// Tracing lives wholly in the benchmark: a decorator around the
// transport.Client handed to ares.NewRemoteClient records one span per
// Invoke, and the workers record the parent op span around Read/Write/
// Reconfig, passing the op ID down through ctx. Nothing inside the program
// is instrumented.

// invokeSpan is one transport.Client.Invoke call.
type invokeSpan struct {
	Op        uint64 // parent op span; 0 = issued outside any traced op
	Label     int    // index into tracer.labels ("service/type")
	Config    uint64 // FNV-1a of the configuration ID the request addresses
	Dst       int    // index into tracer.servers
	ReqBytes  int    // request payload
	RespBytes int    // reply payload
	Start     int64  // ns since tracer.epoch
	End       int64
	// Cancelled marks an Invoke its round abandoned: Gather cancels the
	// outstanding calls once the quorum-th reply is in, and waits for them
	// to return before the op moves on. These are the round's stragglers.
	Cancelled bool
	// Failed marks any other error (timeout, unreachable, service failure).
	Failed bool
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opReconfig
)

func (k opKind) String() string { return [...]string{"get", "put", "reconfig"}[k] }

// opSpan is one client operation as a caller sees it.
type opSpan struct {
	ID    uint64
	Kind  opKind
	Start int64 // ns since the run's epoch
	End   int64
	// Due is when a scheduled op (Reconfig) should have started; equal to
	// Start for closed-loop ops.
	Due int64
	OK  bool
}

type opIDKey struct{}

// withOp tags ctx with the op span every Invoke below it belongs to.
func withOp(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, opIDKey{}, id)
}

// tracer is the transport.Client decorator. Spans go to a preallocated ring
// (the newest overwrite the oldest) and are written out when the run ends.
type tracer struct {
	inner   transport.Client
	epoch   time.Time
	servers map[ares.ProcessID]int
	on      atomic.Bool

	ring []invokeSpan
	next atomic.Uint64

	mu     sync.RWMutex
	labels []string
	byName map[[2]string]int
}

// ringSpans bounds the traced pass's memory: ~10 s at the fastest workload's
// ≈ 15 k Invokes/s is 150 k spans; the ring holds 3× that.
const ringSpans = 1 << 19

func newTracer(inner transport.Client, epoch time.Time, ids []ares.ProcessID) *tracer {
	t := &tracer{inner: inner, epoch: epoch, servers: make(map[ares.ProcessID]int, len(ids)),
		ring: make([]invokeSpan, ringSpans), byName: make(map[[2]string]int)}
	for i, id := range ids {
		t.servers[id] = i
	}
	return t
}

func (t *tracer) label(service, typ string) int {
	key := [2]string{service, typ}
	t.mu.RLock()
	id, ok := t.byName[key]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byName[key]; ok {
		return id
	}
	t.labels = append(t.labels, service+"/"+typ)
	t.byName[key] = len(t.labels) - 1
	return len(t.labels) - 1
}

// Invoke implements transport.Client.
func (t *tracer) Invoke(ctx context.Context, dst ares.ProcessID, req transport.Request) (transport.Response, error) {
	if !t.on.Load() {
		return t.inner.Invoke(ctx, dst, req)
	}
	op, _ := ctx.Value(opIDKey{}).(uint64)
	start := time.Since(t.epoch)
	resp, err := t.inner.Invoke(ctx, dst, req)
	s := invokeSpan{
		Op: op, Label: t.label(req.Service, req.Type), Config: fnv1a(req.Config), Dst: t.servers[dst],
		ReqBytes: len(req.Payload), RespBytes: len(resp.Payload),
		Start: int64(start), End: int64(time.Since(t.epoch)),
	}
	if err != nil {
		if errors.Is(ctx.Err(), context.Canceled) {
			s.Cancelled = true
		} else {
			s.Failed = true
		}
	}
	t.ring[(t.next.Add(1)-1)%ringSpans] = s
	return resp, err
}

// spans returns the recorded spans (call only after load has stopped) and
// how many older ones the ring overwrote.
func (t *tracer) spans() (out []invokeSpan, dropped uint64) {
	n := t.next.Load()
	if n <= ringSpans {
		return t.ring[:n], 0
	}
	return t.ring, n - ringSpans
}

// fnv1a hashes a configuration ID without allocating.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// round is one quorum phase under one op: a run of Invokes with one label,
// addressed to one configuration, each to a different server. Its interval
// runs from the earliest start to the latest end among the Invokes that
// answered; cancelled ones are stragglers and do not stretch it.
type round struct {
	Label      int
	Start, End int64
	Invokes    int
	Stragglers int
}

// groupRounds folds one op's Invokes into rounds. spans must belong to one
// op; they are sorted by start time in place.
//
// The rule is structural, not a test for overlap in time: Gather starts one
// goroutine per server, and one scheduled only after the quorum answered
// issues its Invoke late, on an already-cancelled context, overlapping
// nothing. Gather waits for it before the op moves on, so it still sorts
// directly behind its own round, and a retry of the same phase shows as a
// server asked twice.
func groupRounds(spans []invokeSpan) []round {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var rounds []round
	var config, asked uint64
	answered := false
	for _, s := range spans {
		n := len(rounds)
		dst := uint64(1) << (uint(s.Dst) % 64)
		if n == 0 || rounds[n-1].Label != s.Label || config != s.Config || asked&dst != 0 {
			rounds = append(rounds, round{Label: s.Label, Start: s.Start})
			n++
			config, asked, answered = s.Config, 0, false
		}
		asked |= dst
		r := &rounds[n-1]
		r.Invokes++
		switch {
		case s.Cancelled:
			r.Stragglers++
			if !answered && s.End > r.End {
				r.End = s.End // no reply yet: a round of only stragglers spans them
			}
		case !answered:
			r.End, answered = s.End, true
		case s.End > r.End:
			r.End = s.End
		}
	}
	return rounds
}

// selfTime is the op's duration minus the part its rounds cover: encode,
// decode, protocol logic and erasure coding done by the client between and
// around quorum phases.
func selfTime(op opSpan, rounds []round) int64 {
	self := op.End - op.Start
	for _, r := range rounds {
		self -= r.End - r.Start
	}
	if self < 0 {
		return 0
	}
	return self
}

// writeTrace dumps op and Invoke spans as compact JSON arrays:
// ops are [id, kind, start, end, due, ok]; invokes are
// [op, label, config_hash, dst, req_bytes, resp_bytes, start, end, flag] with flag
// 0 = answered, 1 = straggler (cancelled), 2 = failed. Times are ns.
func writeTrace(path string, t *tracer, ops []opSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"labels":[`)
	for i, l := range t.labels {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", l)
	}
	fmt.Fprintf(w, `],"ops":[`)
	for i, o := range ops {
		if i > 0 {
			w.WriteByte(',')
		}
		ok := 0
		if o.OK {
			ok = 1
		}
		fmt.Fprintf(w, "\n[%d,%q,%d,%d,%d,%d]", o.ID, o.Kind, o.Start, o.End, o.Due, ok)
	}
	fmt.Fprintf(w, `],"invokes":[`)
	spans, dropped := t.spans()
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		flag := 0
		if s.Cancelled {
			flag = 1
		} else if s.Failed {
			flag = 2
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d,%d,%d,%d,%d]", s.Op, s.Label, s.Config, s.Dst, s.ReqBytes, s.RespBytes, s.Start, s.End, flag)
	}
	fmt.Fprintf(w, "],\"dropped\":%d}\n", dropped)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
