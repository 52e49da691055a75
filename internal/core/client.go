package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/dap"
	"github.com/ares-storage/ares/internal/recon"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/treas"
	"github.com/ares-storage/ares/internal/types"
)

// RetryPolicy paces the get-data retries a read performs while a TREAS tag
// is transiently undecodable (concurrent writes beyond the δ bound). Delays
// grow geometrically from Base toward Cap, with a random fraction (Jitter)
// subtracted so competing readers desynchronize instead of re-hitting the
// quorum in lockstep under write contention.
type RetryPolicy struct {
	// Base is the delay before the first retry. Zero or negative values
	// fall back to DefaultRetryPolicy.Base — a retry loop with no pacing
	// at all would hammer the quorum, the exact failure mode this policy
	// exists to prevent.
	Base time.Duration
	// Cap bounds the grown delay.
	Cap time.Duration
	// Multiplier scales the delay each further attempt; values below 1 are
	// treated as 1 (constant pacing).
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized away, in
	// [0, 1]: the sleep is drawn uniformly from [d·(1−Jitter), d].
	Jitter float64
	// Seed, when non-zero, seeds the client's private jitter source so a
	// replay reproduces the exact retry pacing. Zero derives a stable
	// per-client seed from the process ID. Each client owns its source:
	// thousands of concurrent per-key clients never contend on the global
	// locked math/rand state.
	Seed int64
}

// DefaultRetryPolicy is the pacing used by NewClient: 1 ms doubling to a
// 32 ms cap with half the delay jittered.
var DefaultRetryPolicy = RetryPolicy{
	Base:       time.Millisecond,
	Cap:        32 * time.Millisecond,
	Multiplier: 2,
	Jitter:     0.5,
}

// delayAt computes the pause before retry number attempt (0-based) with the
// jitter draw supplied — the deterministic core; the client draws frac from
// its own seeded source.
func (p RetryPolicy) delayAt(attempt int, frac float64) time.Duration {
	base := p.Base
	if base <= 0 {
		base = DefaultRetryPolicy.Base
	}
	d := float64(base)
	m := p.Multiplier
	if m < 1 {
		m = 1
	}
	for i := 0; i < attempt; i++ {
		d *= m
		if p.Cap > 0 && d >= float64(p.Cap) {
			break
		}
	}
	if limit := float64(p.Cap); p.Cap > 0 && d > limit {
		d = limit
	}
	j := p.Jitter
	if j < 0 {
		j = 0
	} else if j > 1 {
		j = 1
	}
	d -= d * j * frac
	return time.Duration(d)
}

// Client is an ARES reader/writer process (Alg. 7). A client discovers the
// current configuration sequence through the reconfiguration service's
// read-config action, queries every configuration from the last finalized
// one onward, and propagates the freshest pair into the newest configuration
// until no further configuration appears.
type Client struct {
	self types.ProcessID
	rpc  transport.Client
	daps *dap.Cache
	rec  *recon.Client

	mu   sync.Mutex
	cseq cfg.Sequence

	// wmu serializes Write invocations issued through this client. Tags are
	// (z, writer) pairs and the writer component is this client's process
	// ID, so two in-flight writes from the same client could both observe
	// the same maximum z and mint identical tags — violating write-tag
	// uniqueness (A2). Serializing them restores uniqueness: DAP
	// consistency (C1) guarantees the second write's get-tag observes the
	// first write's completed put-data, hence a strictly larger tag.
	// Clients shared by many goroutines (e.g. the per-key clients an
	// ObjectStore pools) rely on this; reads need no such ordering.
	wmu sync.Mutex

	// retry paces get-data retries while a TREAS tag is transiently
	// undecodable (Theorem 9 guarantees progress within the δ bound).
	// jrng is the client's private jitter source (see RetryPolicy.Seed).
	retry RetryPolicy
	jmu   sync.Mutex
	jrng  *rand.Rand
}

// retrySeed derives the default jitter seed for a client: a stable hash of
// its process ID, so replays of the same deployment reproduce the same
// pacing without any configuration.
func retrySeed(self types.ProcessID) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(self))
	return int64(h.Sum64())
}

// NewClient constructs a reader/writer booted from configuration c0. The
// client and its embedded reconfiguration client share one DAP client cache,
// so each configuration's protocol client (and erasure codec) is built once
// between them.
func NewClient(self types.ProcessID, c0 cfg.Configuration, rpc transport.Client, registry *dap.Registry) (*Client, error) {
	cache := registry.NewCache(rpc)
	rec, err := recon.NewClientWithCache(self, c0, rpc, cache, nil, recon.Options{})
	if err != nil {
		return nil, err
	}
	return &Client{
		self:  self,
		rpc:   rpc,
		daps:  cache,
		rec:   rec,
		cseq:  cfg.NewSequence(c0),
		retry: DefaultRetryPolicy,
		jrng:  rand.New(rand.NewSource(retrySeed(self))),
	}, nil
}

// SetRetryPolicy replaces the pacing of not-yet-decodable read retries.
// Call before sharing the client across goroutines.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.retry = p
	seed := p.Seed
	if seed == 0 {
		seed = retrySeed(c.self)
	}
	c.jrng = rand.New(rand.NewSource(seed))
}

// reportRead mirrors one completed read into the process-wide registry.
// fastPath reports whether it skipped the put-data write-back on
// quorum-confirmed propagation.
func reportRead(rounds, retries int, fastPath bool) {
	clientReads.Inc()
	clientReadRounds.Add(int64(rounds))
	if fastPath {
		clientReadFastPaths.Inc()
	}
	if retries > 0 {
		clientRetries.Add(int64(retries))
	}
}

// retryDelay draws the next paced delay from the client's own jitter source.
func (c *Client) retryDelay(attempt int) time.Duration {
	c.jmu.Lock()
	frac := c.jrng.Float64()
	c.jmu.Unlock()
	return c.retry.delayAt(attempt, frac)
}

// Sequence returns a copy of the client's local configuration sequence.
func (c *Client) Sequence() cfg.Sequence {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cseq.Clone()
}

func (c *Client) localSeq() cfg.Sequence {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cseq.Clone()
}

func (c *Client) storeSeq(seq cfg.Sequence) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	merged, err := c.cseq.Merge(seq)
	if err != nil {
		return err
	}
	c.cseq = merged
	// Configurations behind the merged sequence's µ can never be addressed
	// by a future operation of this client; drop their cached DAP clients.
	c.daps.Retain(merged.LiveIDs())
	return nil
}

// Write performs the ARES write operation (Alg. 7 lines 7–23): discover the
// sequence, collect the maximum tag over configurations µ..ν, increment it,
// and repeatedly put-data into the last configuration until the sequence
// stops growing. It returns the tag assigned to the written value.
func (c *Client) Write(ctx context.Context, value types.Value) (tag.Tag, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var t tag.Tag
	// A configuration a phase addresses may be garbage-collected
	// mid-operation; cfg.RetryRetired re-runs the whole operation, whose
	// read-config then discovers the live window.
	err := cfg.RetryRetired(ctx, func() (opErr error) {
		t, opErr = c.writeOnce(ctx, value)
		return opErr
	})
	return t, err
}

func (c *Client) writeOnce(ctx context.Context, value types.Value) (tag.Tag, error) {
	seq, err := c.rec.ReadConfig(ctx, c.localSeq())
	if err != nil {
		return tag.Tag{}, fmt.Errorf("core: write read-config: %w", err)
	}
	maxTag := tag.Zero
	rounds := 0
	for i := seq.Mu(); i <= seq.Nu(); i++ {
		client, err := c.daps.Get(seq[i].Cfg)
		if err != nil {
			return tag.Tag{}, err
		}
		rounds++
		t, err := client.GetTag(ctx)
		if err != nil {
			return tag.Tag{}, fmt.Errorf("core: write get-tag on %s: %w", seq[i].Cfg.ID, err)
		}
		maxTag = tag.Max(maxTag, t)
	}
	newTag := maxTag.Next(c.self)
	seq, put, err := c.propagate(ctx, seq, tag.Pair{Tag: newTag, Value: value})
	rounds += put
	if err != nil {
		return tag.Tag{}, err
	}
	if err := c.storeSeq(seq); err != nil {
		return tag.Tag{}, err
	}
	clientWrites.Inc()
	clientWriteRounds.Add(int64(rounds))
	return newTag, nil
}

// Read performs the ARES read operation (Alg. 7 lines 24–45): discover the
// sequence, collect the maximum tag-value pair over configurations µ..ν,
// and repeatedly put-data that pair into the last configuration until the
// sequence stops growing.
func (c *Client) Read(ctx context.Context) (tag.Pair, error) {
	var p tag.Pair
	err := cfg.RetryRetired(ctx, func() (opErr error) {
		p, opErr = c.readOnce(ctx)
		return opErr
	})
	return p, err
}

func (c *Client) readOnce(ctx context.Context) (tag.Pair, error) {
	seq, err := c.rec.ReadConfig(ctx, c.localSeq())
	if err != nil {
		return tag.Pair{}, fmt.Errorf("core: read read-config: %w", err)
	}
	best := tag.Pair{}
	rounds := 0  // data rounds: get-data + put-data phases (read-config is metadata)
	retries := 0 // transient not-yet-decodable re-rounds within those
	confirmed := false
	for i := seq.Mu(); i <= seq.Nu(); i++ {
		pair, conf, n, err := c.getDataRetry(ctx, seq[i].Cfg)
		rounds += n
		retries += n - 1
		if err != nil {
			return tag.Pair{}, fmt.Errorf("core: read get-data on %s: %w", seq[i].Cfg.ID, err)
		}
		if i == seq.Nu() {
			// The propagation proof only helps when ν's own pair is the
			// overall maximum: a larger tag surfaced by an older
			// configuration still needs the write-back to reach ν.
			confirmed = conf && !pair.Tag.Less(best.Tag)
		}
		best = tag.MaxPair(best, pair)
	}
	if confirmed {
		// One-round fast path: the get-data quorum of ν proved best's tag is
		// already propagated to a quorum, so the put-data write-back is
		// redundant — if the sequence hasn't grown. Re-read it: if ν is still
		// last, any configuration appended later starts its state transfer
		// after this check, i.e. after the confirmation, so its get-data
		// quorum intersects the confirming quorum and carries a tag ≥ best
		// forward. If a new configuration did appear, fall back to the full
		// write-back loop, which chases the sequence to its end.
		next, err := c.rec.ReadConfig(ctx, seq)
		if err != nil {
			return tag.Pair{}, fmt.Errorf("core: read read-config: %w", err)
		}
		if next.Nu() == seq.Nu() {
			if err := c.storeSeq(next); err != nil {
				return tag.Pair{}, err
			}
			reportRead(rounds, retries, true)
			return best, nil
		}
		seq = next
	}
	seq, wb, err := c.propagate(ctx, seq, best)
	rounds += wb
	if err != nil {
		return tag.Pair{}, err
	}
	if err := c.storeSeq(seq); err != nil {
		return tag.Pair{}, err
	}
	reportRead(rounds, retries, false)
	return best, nil
}

// WriteValue is Write discarding the assigned tag — the surface workload
// drivers and simple applications want.
func (c *Client) WriteValue(ctx context.Context, value types.Value) error {
	_, err := c.Write(ctx, value)
	return err
}

// ReadValue is Read returning only the value.
func (c *Client) ReadValue(ctx context.Context) (types.Value, error) {
	pair, err := c.Read(ctx)
	if err != nil {
		return nil, err
	}
	return pair.Value, nil
}

// getDataRetry runs get-data, retrying with backoff while a TREAS read is
// transiently undecodable. The paper's read simply does not complete until
// decodable; the context bounds the wait. It reports the pair, whether the
// DAP proved the pair's tag propagated to a quorum, and how many get-data
// rounds it spent (retries are real quorum rounds).
func (c *Client) getDataRetry(ctx context.Context, conf cfg.Configuration) (tag.Pair, bool, int, error) {
	client, err := c.daps.Get(conf)
	if err != nil {
		return tag.Pair{}, false, 0, err
	}
	rounds := 0
	for attempt := 0; ; attempt++ {
		rounds++
		pair, confirmed, err := client.GetDataConfirmed(ctx)
		if err == nil {
			return pair, confirmed, rounds, nil
		}
		if !errors.Is(err, treas.ErrNotDecodable) {
			return tag.Pair{}, false, rounds, err
		}
		clientBackoffs.Inc()
		select {
		case <-ctx.Done():
			return tag.Pair{}, false, rounds, fmt.Errorf("%w (last: %v)", ctx.Err(), err)
		case <-time.After(c.retryDelay(attempt)):
		}
	}
}

// propagate is the shared tail of read and write (Alg. 7 lines 14–22 /
// 36–44): put-data into the last configuration, re-read the sequence, and
// repeat whenever a new configuration appeared meanwhile. It reports how
// many put-data rounds it performed (the read path adds them to its own count).
func (c *Client) propagate(ctx context.Context, seq cfg.Sequence, p tag.Pair) (cfg.Sequence, int, error) {
	rounds := 0
	for {
		last := seq.Last().Cfg
		client, err := c.daps.Get(last)
		if err != nil {
			return nil, rounds, err
		}
		rounds++
		if err := client.PutData(ctx, p); err != nil {
			return nil, rounds, fmt.Errorf("core: put-data on %s: %w", last.ID, err)
		}
		next, err := c.rec.ReadConfig(ctx, seq)
		if err != nil {
			return nil, rounds, fmt.Errorf("core: propagate read-config: %w", err)
		}
		if next.Nu() == seq.Nu() {
			return next, rounds, nil
		}
		seq = next
	}
}
