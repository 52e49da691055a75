package abd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/dap"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// deploy installs an ABD configuration of n servers on a fresh simnet and
// returns the configuration, the network, and the per-server keyed services.
func deploy(t *testing.T, n int) (cfg.Configuration, *transport.Simnet, map[types.ProcessID]*Service) {
	t.Helper()
	net := transport.NewSimnet()
	c := cfg.Configuration{ID: "c0", Algorithm: cfg.ABD}
	for i := 0; i < n; i++ {
		c.Servers = append(c.Servers, types.ProcessID(fmt.Sprintf("s%d", i+1)))
	}
	services := make(map[types.ProcessID]*Service, n)
	for _, id := range c.Servers {
		src := cfg.NewResolver()
		src.Add(c)
		nd := node.New(id)
		svc := NewService(id, src)
		nd.InstallKeyed(ServiceName, svc)
		net.Register(id, nd)
		services[id] = svc
	}
	return c, net, services
}

// soloService builds a one-server keyed service for direct handler tests; it
// returns the service and the configuration ID its state lives under.
func soloService() (*Service, string) {
	c := cfg.Configuration{ID: "solo", Algorithm: cfg.ABD, Servers: []types.ProcessID{"s1"}}
	src := cfg.NewResolver()
	src.Add(c)
	return NewService("s1", src), string(c.ID)
}

func TestWriteThenRead(t *testing.T) {
	t.Parallel()
	c, net, _ := deploy(t, 3)
	client, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	wTag, err := dap.WriteA1(ctx, client, "w1", types.Value("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if wTag.Z != 1 || wTag.W != "w1" {
		t.Fatalf("write tag = %v, want (1, w1)", wTag)
	}
	pair, err := dap.ReadA1(ctx, client)
	if err != nil {
		t.Fatal(err)
	}
	if string(pair.Value) != "hello" || pair.Tag != wTag {
		t.Fatalf("read = %v %q", pair.Tag, pair.Value)
	}
}

func TestReadInitialValue(t *testing.T) {
	t.Parallel()
	c, net, _ := deploy(t, 3)
	client, err := NewClient(c, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := dap.ReadA1(context.Background(), client)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag != tag.Zero || len(pair.Value) != 0 {
		t.Fatalf("initial read = %v %q, want (t0, empty)", pair.Tag, pair.Value)
	}
}

func TestToleratesMinorityCrashes(t *testing.T) {
	t.Parallel()
	c, net, _ := deploy(t, 5)
	net.Crash("s1")
	net.Crash("s2")
	client, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := dap.WriteA1(ctx, client, "w1", types.Value("v")); err != nil {
		t.Fatalf("write with 2/5 crashed: %v", err)
	}
	pair, err := dap.ReadA1(ctx, client)
	if err != nil {
		t.Fatalf("read with 2/5 crashed: %v", err)
	}
	if string(pair.Value) != "v" {
		t.Fatalf("read %q", pair.Value)
	}
}

func TestBlocksWithoutMajority(t *testing.T) {
	t.Parallel()
	c, net, _ := deploy(t, 3)
	net.Crash("s1")
	net.Crash("s2")
	client, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.GetTag(ctx); err == nil {
		t.Fatal("get-tag succeeded without a majority")
	}
}

// TestDAPPropertyC1 checks C1 (Definition 31): a put-data completing before
// a get-tag/get-data forces the later operation to observe a tag at least as
// large.
func TestDAPPropertyC1(t *testing.T) {
	t.Parallel()
	c, net, _ := deploy(t, 5)
	w := mustClient(t, c, net, "w1")
	r := mustClient(t, c, net, "r1")
	ctx := context.Background()

	written := tag.Tag{Z: 5, W: "w1"}
	if err := w.PutData(ctx, tag.Pair{Tag: written, Value: types.Value("x")}); err != nil {
		t.Fatal(err)
	}
	got, err := r.GetTag(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Less(written) {
		t.Fatalf("get-tag %v < put tag %v: C1 violated", got, written)
	}
	pair, err := r.GetData(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag.Less(written) {
		t.Fatalf("get-data tag %v < put tag %v: C1 violated", pair.Tag, written)
	}
}

// TestDAPPropertyC2 checks C2: every pair returned by get-data was actually
// put (or is the initial pair).
func TestDAPPropertyC2(t *testing.T) {
	t.Parallel()
	c, net, _ := deploy(t, 3)
	w := mustClient(t, c, net, "w1")
	r := mustClient(t, c, net, "r1")
	ctx := context.Background()

	putPairs := map[tag.Tag]string{}
	for i := 1; i <= 5; i++ {
		p := tag.Pair{Tag: tag.Tag{Z: int64(i), W: "w1"}, Value: types.Value(fmt.Sprintf("v%d", i))}
		putPairs[p.Tag] = string(p.Value)
		if err := w.PutData(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := r.GetData(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag == tag.Zero {
		return // initial pair is allowed by C2
	}
	want, ok := putPairs[pair.Tag]
	if !ok || want != string(pair.Value) {
		t.Fatalf("get-data returned unput pair %v %q: C2 violated", pair.Tag, pair.Value)
	}
}

func TestServerMonotonicity(t *testing.T) {
	t.Parallel()
	// Lemma 34: server tags never regress, even when writes arrive out of
	// tag order.
	svc, configID := soloService()
	write := func(z int64, v string) {
		payload := transport.MustMarshal(writeReq{Tag: tag.Tag{Z: z, W: "w1"}, Value: []byte(v)})
		if _, err := svc.HandleKeyed("w1", "", configID, msgWrite, payload); err != nil {
			t.Fatal(err)
		}
	}
	write(5, "newer")
	write(3, "stale")
	cur, ok := svc.Current("", configID)
	if !ok || cur.Tag.Z != 5 || string(cur.Value) != "newer" {
		t.Fatalf("stale write regressed server state: %v %q", cur.Tag, cur.Value)
	}
}

func TestServiceUnknownMessage(t *testing.T) {
	t.Parallel()
	svc, configID := soloService()
	if _, err := svc.HandleKeyed("x", "", configID, "bogus", nil); err == nil {
		t.Fatal("unknown message type accepted")
	}
}

func TestServiceUnknownConfig(t *testing.T) {
	t.Parallel()
	svc, _ := soloService()
	_, err := svc.HandleKeyed("x", "", "ghost", msgQueryTag, nil)
	if !errors.Is(err, cfg.ErrUnknownConfig) {
		t.Fatalf("err = %v, want ErrUnknownConfig", err)
	}
	// A key the configuration was not derived for must not alias the state.
	_, err = svc.HandleKeyed("x", "other-key", "solo", msgQueryTag, nil)
	if !errors.Is(err, cfg.ErrUnknownConfig) {
		t.Fatalf("mismatched key err = %v, want ErrUnknownConfig", err)
	}
	if svc.Family().Len() != 0 {
		t.Fatalf("rejected messages materialized %d states", svc.Family().Len())
	}
}

func TestStorageBytes(t *testing.T) {
	t.Parallel()
	svc, configID := soloService()
	payload := transport.MustMarshal(writeReq{Tag: tag.Tag{Z: 1, W: "w"}, Value: make([]byte, 1000)})
	if _, err := svc.HandleKeyed("w", "", configID, msgWrite, payload); err != nil {
		t.Fatal(err)
	}
	if got := svc.StorageBytes(); got != 1000 {
		t.Fatalf("StorageBytes = %d, want 1000 (full replication)", got)
	}
}

// TestPerKeyIsolation pins the keyed hosting model: one service instance,
// independent per-key registers, lazily materialized.
func TestPerKeyIsolation(t *testing.T) {
	t.Parallel()
	c := cfg.Configuration{
		ID:        cfg.ID("store/" + cfg.KeyPlaceholder + "/c0"),
		Algorithm: cfg.ABD,
		Servers:   []types.ProcessID{"s1"},
	}
	src := cfg.NewResolver()
	src.Add(c)
	svc := NewService("s1", src)
	write := func(key, configID, v string, z int64) {
		payload := transport.MustMarshal(writeReq{Tag: tag.Tag{Z: z, W: "w"}, Value: []byte(v)})
		if _, err := svc.HandleKeyed("w", key, configID, msgWrite, payload); err != nil {
			t.Fatal(err)
		}
	}
	write("a", "store/a/c0", "va", 7)
	write("b", "store/b/c0", "vb", 3)
	if got := svc.Family().Len(); got != 2 {
		t.Fatalf("States = %d, want 2", got)
	}
	pa, _ := svc.Current("a", "store/a/c0")
	pb, _ := svc.Current("b", "store/b/c0")
	if string(pa.Value) != "va" || string(pb.Value) != "vb" || pa.Tag.Z != 7 || pb.Tag.Z != 3 {
		t.Fatalf("per-key state aliased: a=%v %q b=%v %q", pa.Tag, pa.Value, pb.Tag, pb.Value)
	}
}

func TestConcurrentWritersConverge(t *testing.T) {
	t.Parallel()
	c, net, services := deploy(t, 5)
	ctx := context.Background()
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := types.ProcessID(fmt.Sprintf("w%d", i))
			client, err := NewClient(c, net.Client(id))
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 5; j++ {
				if _, err := dap.WriteA1(ctx, client, id, types.Value(fmt.Sprintf("%s-%d", id, j))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// After quiescence, a read returns the maximum tag, and a subsequent
	// read-back confirms a majority agrees.
	r := mustClient(t, c, net, "r1")
	pair, err := dap.ReadA1(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag.Z != 5 {
		// Each writer performs 5 writes; the max integer part must be at
		// least 5 (concurrent get-tags can collide on z values).
		t.Logf("final tag %v (z can exceed writes-per-writer under interleaving)", pair.Tag)
	}
	count := 0
	for _, svc := range services {
		if cur, ok := svc.Current("", string(c.ID)); ok && cur.Tag == pair.Tag {
			count++
		}
	}
	if count < 3 {
		t.Fatalf("only %d servers hold the returned tag after read write-back, want >= majority", count)
	}
}

func TestNewClientRejectsWrongAlgorithm(t *testing.T) {
	t.Parallel()
	c := cfg.Configuration{ID: "c1", Algorithm: cfg.TREAS, Servers: []types.ProcessID{"s1"}, K: 1}
	if _, err := NewClient(c, nil); err == nil {
		t.Fatal("NewClient accepted a TREAS configuration")
	}
}

func TestFactoryShape(t *testing.T) {
	t.Parallel()
	c, net, _ := deploy(t, 3)
	client, err := Factory(c, net.Client("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := client.(dap.Client); !ok {
		t.Fatal("Factory result does not implement dap.Client")
	}
}

func TestGetTagQuorumError(t *testing.T) {
	t.Parallel()
	c, net, _ := deploy(t, 3)
	for _, s := range c.Servers {
		net.Crash(s)
	}
	client := mustClient(t, c, net, "r1")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := client.GetTag(ctx)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func mustClient(t *testing.T, c cfg.Configuration, net *transport.Simnet, id types.ProcessID) *Client {
	t.Helper()
	client, err := NewClient(c, net.Client(id))
	if err != nil {
		t.Fatal(err)
	}
	return client
}
