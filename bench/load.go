package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/history"
	"github.com/ares-storage/ares/internal/transport"
	keygen "github.com/ares-storage/ares/internal/workload"
)

// headerLen is the (writer, seq) prefix that makes every written value
// unique; the checker works on values, so uniqueness is what lets it tell
// any two writes apart.
const headerLen = 16

// writerPreload is the preload pass's writer ID in value headers; workers
// use their index.
const writerPreload = 1 << 16

// values makes and checks the benchmark's values: a 16-byte header
// (writer, seq) followed by a window of one seeded random block. The window
// offset depends on seq, so a value spliced from two writes fails the
// padding check, yet making or checking a value costs one memcpy/memcmp —
// cheap enough to do on every op, even at 256 KiB.
type values struct {
	size int
	pad  []byte // 2×size seeded bytes; a value's padding is pad[off:off+size-headerLen]
}

func newValues(size int, seed int64) *values {
	v := &values{size: size, pad: make([]byte, 2*size)}
	rand.New(rand.NewSource(seed)).Read(v.pad)
	return v
}

func (v *values) offset(writer, seq uint64) int {
	return int((writer*7919 + seq*31) % uint64(v.size))
}

func (v *values) make(writer, seq uint64) ares.Value {
	out := make(ares.Value, v.size)
	binary.BigEndian.PutUint64(out[0:8], writer)
	binary.BigEndian.PutUint64(out[8:16], seq)
	off := v.offset(writer, seq)
	copy(out[headerLen:], v.pad[off:off+v.size-headerLen])
	return out
}

// check reports whether got is, byte for byte, a value make produced, and
// returns its header — the compact stand-in recorded in the history (a
// 30 s run at 256 KiB per op cannot keep whole values).
func (v *values) check(got ares.Value) (header ares.Value, err error) {
	if len(got) != v.size {
		return nil, fmt.Errorf("value of %d bytes, want %d", len(got), v.size)
	}
	writer, seq := binary.BigEndian.Uint64(got[0:8]), binary.BigEndian.Uint64(got[8:16])
	off := v.offset(writer, seq)
	if !bytes.Equal(got[headerLen:], v.pad[off:off+v.size-headerLen]) {
		return nil, fmt.Errorf("value (writer %d, seq %d) has corrupt padding", writer, seq)
	}
	return got[:headerLen], nil
}

// actor is who performs an op: the name recorded in the history, which set
// of register clients it goes through, and the writer ID stamped into the
// values it writes.
type actor struct {
	who    ares.ProcessID
	slot   int
	writer uint64
}

// sweeper is the actor of the passes that visit every key while no load is
// running: preload, read-back, recovery. It borrows worker 0's clients.
func sweeper(who ares.ProcessID) actor { return actor{who: who, writer: writerPreload} }

// keyStore is the harness's key → register-client map over one shared
// transport client. ObjectStore is bound to the simnet Cluster, so this is
// the client-side shape of a TCP deployment today: each key's client
// discovers its configuration chain from the installed template.
//
// Every worker has its own client per key, as two callers of a deployment
// would: an ares.Client carries one configuration sequence, and two ops
// that run through one client while the chain is being compacted behind
// them can each learn a different shortcut past the retired prefix and then
// fail to merge ("cfg: sequences diverge") — about one op in 50 000 on
// reconfig-churn when the workers shared clients.
type keyStore struct {
	names   []string
	clients [workers][]*ares.Client
	hist    []*history.Recorder
	vals    *values
	// Churn workloads only: one reconfigurer identity per key, the servers
	// its targets draw from, and how many moves each key has made.
	recons  []*ares.Reconfigurer
	servers []ares.ProcessID
	moves   []int
	// corrupt counts reads whose value failed the padding check.
	corrupt atomic.Int64
	firstMu sync.Mutex
	first   error // first corrupt-value error, for the report
}

func newKeyStore(w workload, rpc transport.Client, vals *values, servers []ares.ProcessID) (*keyStore, error) {
	s := &keyStore{vals: vals, servers: servers, moves: make([]int, w.Keys)}
	for i := 0; i < w.Keys; i++ {
		name := keygen.Key(i)
		for slot := range s.clients {
			c, err := ares.NewRemoteClient(ares.ProcessID(fmt.Sprintf("bench-%d/%s", slot, name)), w.Template.ForKey(name), rpc)
			if err != nil {
				return nil, err
			}
			s.clients[slot] = append(s.clients[slot], c)
		}
		s.names = append(s.names, name)
		s.hist = append(s.hist, history.NewRecorder())
		if w.Churn {
			r, err := ares.NewRemoteReconfigurer(ares.ProcessID("bench-recon/"+name), w.Template.ForKey(name), rpc, ares.ReconOptions{})
			if err != nil {
				return nil, err
			}
			s.recons = append(s.recons, r)
		}
	}
	return s, nil
}

// reconfig moves key to its next configuration (see churnTarget).
func (s *keyStore) reconfig(ctx context.Context, key int) error {
	target := churnTarget(s.servers, s.names[key], key, s.moves[key])
	s.moves[key]++
	_, err := s.recons[key].Reconfig(ctx, target)
	return err
}

// put writes a fresh value to key and records the op in its history.
func (s *keyStore) put(ctx context.Context, a actor, key int, seq uint64) error {
	v := s.vals.make(a.writer, seq)
	p := s.hist[key].BeginWrite(a.who, v[:headerLen])
	t, err := s.clients[a.slot][key].Write(ctx, v)
	if err != nil {
		p.Fail()
		return err
	}
	p.Done(t, v[:headerLen])
	return nil
}

// get reads key, checks the value's padding, and records the op.
func (s *keyStore) get(ctx context.Context, a actor, key int) error {
	p := s.hist[key].BeginRead(a.who)
	pair, err := s.clients[a.slot][key].Read(ctx)
	if err != nil {
		p.Fail()
		return err
	}
	header, err := s.vals.check(pair.Value)
	if err != nil {
		s.corrupt.Add(1)
		s.firstMu.Lock()
		if s.first == nil {
			s.first = fmt.Errorf("key %s: %w", s.names[key], err)
		}
		s.firstMu.Unlock()
		// Record what was read anyway: the checker will flag it too.
		header = pair.Value
		if len(header) > headerLen {
			header = header[:headerLen]
		}
	}
	p.Done(pair.Tag, header)
	return nil
}

// sweep runs fn over every key from n goroutines and returns the first
// error. Preload and read-back use it.
func (s *keyStore) sweep(n int, fn func(key int) error) error {
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				key := int(next.Add(1) - 1)
				if key >= len(s.names) || firstErr.Load() != nil {
					return
				}
				if err := fn(key); err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("key %s: %w", s.names[key], err))
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	return nil
}

// preload writes every key once. On a churn workload it then moves every
// odd key to its first target, so the run starts — and, because each key
// alternates, stays — with half the keys on TREAS and half on ABD: without
// that the mix would drift for the first sweep of the reconfigurer and no
// two windows of a run would see the same traffic.
func (s *keyStore) preload() error {
	err := s.sweep(preloaders, func(key int) error {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		return s.put(ctx, sweeper("preload"), key, uint64(key))
	})
	if err != nil || s.recons == nil {
		return err
	}
	return s.sweep(preloaders, func(key int) error {
		if key%2 == 0 {
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		return s.reconfig(ctx, key)
	})
}

func (s *keyStore) readBack(who ares.ProcessID) error {
	return s.sweep(preloaders, func(key int) error {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		return s.get(ctx, sweeper(who), key)
	})
}

// verify runs the linearizability checker over every key's history.
func (s *keyStore) verify() (verdict, error) {
	var v verdict
	if n := s.corrupt.Load(); n > 0 {
		return v, fmt.Errorf("%d reads returned a value no Put wrote intact (first: %v)", n, s.first)
	}
	for i, h := range s.hist {
		rep := history.Verify(h.Ops(), history.CheckOptions{})
		v.Keys++
		v.Ops += rep.Ops
		if rep.Method == history.MethodTag {
			v.TagFallbacks++
		}
		if !rep.Linearizable {
			return v, fmt.Errorf("key %s: history of %d ops is not linearizable (%s): %v", s.names[i], rep.Ops, rep.Method, rep.Violations[0])
		}
	}
	return v, nil
}

// verdict summarises the correctness gate for the result file.
type verdict struct {
	Keys         int `json:"keys_verified"`
	Ops          int `json:"ops_verified"`
	TagFallbacks int `json:"tag_check_fallbacks"`
}

// load is the running traffic: closed-loop workers (and the reconfigurer on
// a churn workload) that go on until stop is closed. Phase windows are cut
// out of the recorded op spans afterwards, so warm-up, the measured window
// and the traced pass are one uninterrupted stream of requests.
type load struct {
	w      workload
	store  *keyStore
	epoch  time.Time
	tracer *tracer // nil on an untraced run
	stop   chan struct{}
	wg     sync.WaitGroup
	nextOp atomic.Uint64

	// per-goroutine op logs, merged by finish
	logs [][]opSpan
	// failures keeps the first few failed ops' errors for the result file: a
	// count alone cannot be diagnosed.
	failMu   sync.Mutex
	failures []string

	done sync.Once
	all  []opSpan
}

func startLoad(w workload, store *keyStore, tr *tracer, seed int64, epoch time.Time) *load {
	l := &load{w: w, store: store, epoch: epoch, tracer: tr, stop: make(chan struct{})}
	l.logs = make([][]opSpan, workers+1)
	for i := 0; i < workers; i++ {
		l.wg.Add(1)
		go l.worker(i, seed)
	}
	if w.Churn {
		l.wg.Add(1)
		go l.reconfigurer(workers)
	}
	return l
}

func (l *load) now() int64 { return int64(time.Since(l.epoch)) }

func (l *load) stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// opCtx returns the context for one op: the per-op deadline, plus the op ID
// when the traced pass is on (0 otherwise).
func (l *load) opCtx() (context.Context, context.CancelFunc, uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	if l.tracer == nil || !l.tracer.on.Load() {
		return ctx, cancel, 0
	}
	id := l.nextOp.Add(1)
	return withOp(ctx, id), cancel, id
}

// maxFailuresKept bounds load.failures.
const maxFailuresKept = 16

func (l *load) noteFailure(span opSpan, key int, err error) {
	l.failMu.Lock()
	defer l.failMu.Unlock()
	if len(l.failures) < maxFailuresKept {
		l.failures = append(l.failures, fmt.Sprintf("%s %s at %.3fs after %.1fms: %v",
			span.Kind, l.store.names[key], float64(span.Start)/1e9, float64(span.End-span.Start)/1e6, err))
	}
}

func (l *load) worker(idx int, seed int64) {
	defer l.wg.Done()
	me := actor{who: ares.ProcessID(fmt.Sprintf("worker-%d", idx)), slot: idx, writer: uint64(idx)}
	// One source per decision so that, e.g., a changed key chooser cannot
	// shift the op mix.
	mix := rand.New(rand.NewSource(seed*1000 + int64(idx)*2 + 1))
	var keys keygen.KeyChooser
	if l.w.Theta > 0 {
		keys = keygen.NewZipfianChooser(l.w.Keys, l.w.Theta, seed*1000+int64(idx)*2)
	} else {
		keys = keygen.NewUniformChooser(l.w.Keys, seed*1000+int64(idx)*2)
	}
	log := make([]opSpan, 0, 1<<16)
	var seq uint64
	for !l.stopped() {
		key := keys.Next()
		write := mix.Float64() < l.w.WriteRatio
		ctx, cancel, id := l.opCtx()
		span := opSpan{ID: id, Kind: opGet, Start: l.now()}
		var err error
		if write {
			span.Kind = opPut
			seq++
			err = l.store.put(ctx, me, key, seq)
		} else {
			err = l.store.get(ctx, me, key)
		}
		span.End = l.now()
		cancel()
		span.Due, span.OK = span.Start, err == nil
		if err != nil {
			l.noteFailure(span, key, err)
		}
		log = append(log, span)
	}
	l.logs[idx] = log
}

// reconfigurer issues one Reconfig per reconfigEvery on a fixed schedule
// (open loop: a slow Reconfig makes the next one late, and latency is timed
// from the due time so the lateness is charged), round-robin over keys.
func (l *load) reconfigurer(slot int) {
	defer l.wg.Done()
	var log []opSpan
	start := l.now()
	for n := 0; ; n++ {
		due := start + int64(n)*int64(reconfigEvery)
		if wait := time.Duration(due - l.now()); wait > 0 {
			select {
			case <-l.stop:
			case <-time.After(wait):
			}
		}
		if l.stopped() {
			break
		}
		ctx, cancel, id := l.opCtx()
		span := opSpan{ID: id, Kind: opReconfig, Due: due, Start: l.now()}
		key := n % len(l.store.names)
		err := l.store.reconfig(ctx, key)
		span.End = l.now()
		cancel()
		span.OK = err == nil
		if err != nil {
			l.noteFailure(span, key, err)
		}
		log = append(log, span)
	}
	l.logs[slot] = log
}

// finish stops the traffic, waits for in-flight ops, and returns every op.
// Later calls return the same ops.
func (l *load) finish() []opSpan {
	l.done.Do(func() {
		close(l.stop)
		l.wg.Wait()
		for _, log := range l.logs {
			l.all = append(l.all, log...)
		}
	})
	return l.all
}
