package treas

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

// deploy installs a TREAS configuration on a fresh simnet.
func deploy(t *testing.T, id cfg.ID, n, k, delta int, net *transport.Simnet) (cfg.Configuration, map[types.ProcessID]*Service) {
	t.Helper()
	c := cfg.Configuration{ID: id, Algorithm: cfg.TREAS, K: k, Delta: delta}
	for i := 0; i < n; i++ {
		c.Servers = append(c.Servers, types.ProcessID(fmt.Sprintf("%s-s%d", id, i+1)))
	}
	services := make(map[types.ProcessID]*Service, n)
	for _, sid := range c.Servers {
		src := cfg.NewResolver()
		src.Add(c)
		nd := node.New(sid)
		svc := NewService(sid, src, net.Client(sid))
		nd.InstallKeyed(ServiceName, svc)
		net.Register(sid, nd)
		services[sid] = svc
	}
	return c, services
}

func TestWriteThenRead(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 5, 3, 2, net)
	client, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	value := types.Value("erasure coded atomic storage with two rounds")
	wTag, err := dap.WriteA1(ctx, client, "w1", value)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := dap.ReadA1(ctx, client)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag != wTag || !pair.Value.Equal(value) {
		t.Fatalf("read = (%v, %q)", pair.Tag, pair.Value)
	}
}

func TestReadInitialValue(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 5, 3, 2, net)
	client, err := NewClient(c, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := dap.ReadA1(context.Background(), client)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag != tag.Zero || len(pair.Value) != 0 {
		t.Fatalf("initial read = (%v, %q), want (t0, empty)", pair.Tag, pair.Value)
	}
}

func TestLargeUnalignedValue(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 7, 5, 2, net)
	client, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	value := make(types.Value, 64*1024+13)
	for i := range value {
		value[i] = byte(i * 131)
	}
	if _, err := dap.WriteA1(ctx, client, "w1", value); err != nil {
		t.Fatal(err)
	}
	pair, err := dap.ReadA1(ctx, client)
	if err != nil {
		t.Fatal(err)
	}
	if !pair.Value.Equal(value) {
		t.Fatal("large value corrupted through encode/transfer/decode")
	}
}

func TestToleratesFCrashes(t *testing.T) {
	t.Parallel()
	// [n=5, k=3] tolerates f = (n-k)/2 = 1 crash.
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 5, 3, 2, net)
	net.Crash(c.Servers[0])
	client, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := dap.WriteA1(ctx, client, "w1", types.Value("survives")); err != nil {
		t.Fatalf("write with 1 crash: %v", err)
	}
	pair, err := dap.ReadA1(ctx, client)
	if err != nil {
		t.Fatalf("read with 1 crash: %v", err)
	}
	if string(pair.Value) != "survives" {
		t.Fatalf("read %q", pair.Value)
	}
}

func TestBlocksBeyondFaultBound(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 5, 3, 2, net)
	net.Crash(c.Servers[0])
	net.Crash(c.Servers[1]) // 2 > f = 1
	client, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := client.GetTag(ctx); err == nil {
		t.Fatal("get-tag succeeded beyond the fault bound")
	}
}

// TestGarbageCollectionBound checks Alg. 3's δ+1 rule: at most δ+1 tags
// retain coded elements, older tags keep only the ⊥ placeholder, and tags
// themselves are never removed.
func TestGarbageCollectionBound(t *testing.T) {
	t.Parallel()
	const delta = 2
	net := transport.NewSimnet()
	c, services := deploy(t, "c0", 5, 3, delta, net)
	client, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const writes = 10
	for i := 1; i <= writes; i++ {
		p := tag.Pair{Tag: tag.Tag{Z: int64(i), W: "w1"}, Value: types.Value(fmt.Sprintf("value-%02d", i))}
		if err := client.PutData(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce() // reliable channels: stragglers still receive every write
	for id, svc := range services {
		tags, withElems := svc.ListSize("", string(c.ID))
		if withElems > delta+1 {
			t.Errorf("%s retains %d coded elements, want <= δ+1 = %d", id, withElems, delta+1)
		}
		// t0 + the writes that reached this server; every tag is retained.
		if tags < delta+1 {
			t.Errorf("%s retains %d tags, fewer than δ+1", id, tags)
		}
		if got := svc.MaxTag("", string(c.ID)); got.Z != writes {
			t.Errorf("%s max tag = %v, want z = %d", id, got, writes)
		}
	}
}

// TestStorageCostTheorem3 validates Theorem 3(i): total storage is
// (δ+1)·(n/k) value sizes once lists are full.
func TestStorageCostTheorem3(t *testing.T) {
	t.Parallel()
	const (
		n, k, delta = 6, 4, 2
		valueSize   = 4 * 1024
	)
	net := transport.NewSimnet()
	c, services := deploy(t, "c0", n, k, delta, net)
	client, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 1; i <= delta+3; i++ { // enough writes to fill every list
		v := make(types.Value, valueSize)
		if err := client.PutData(ctx, tag.Pair{Tag: tag.Tag{Z: int64(i), W: "w1"}, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce() // reliable channels: let straggler deliveries land
	total := 0
	for _, svc := range services {
		total += svc.StorageBytes()
	}
	want := (delta + 1) * n * (valueSize / k)
	// Allow slack for ceil() striping and the tiny t0 element.
	if total < want || total > want+n*(delta+2) {
		t.Fatalf("total storage = %d bytes, want ~%d = (δ+1)·n/k · |v|", total, want)
	}
}

// TestDAPPropertyC1 checks Definition 31 C1 for the TREAS DAP (Lemma 5).
func TestDAPPropertyC1(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 5, 3, 4, net)
	w, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewClient(c, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	written := tag.Tag{Z: 3, W: "w1"}
	if err := w.PutData(ctx, tag.Pair{Tag: written, Value: types.Value("c1-check")}); err != nil {
		t.Fatal(err)
	}
	gotTag, err := r.GetTag(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gotTag.Less(written) {
		t.Fatalf("get-tag %v < completed put-data tag %v: C1 violated", gotTag, written)
	}
	pair, err := r.GetData(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag.Less(written) {
		t.Fatalf("get-data %v < completed put-data tag %v: C1 violated", pair.Tag, written)
	}
	if string(pair.Value) != "c1-check" {
		t.Fatalf("get-data value %q", pair.Value)
	}
}

// TestDAPPropertyC2 checks Definition 31 C2: returned pairs were actually
// written (values decode to what some put-data carried).
func TestDAPPropertyC2(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 5, 3, 8, net)
	w, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewClient(c, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	put := map[tag.Tag]string{}
	for i := 1; i <= 6; i++ {
		p := tag.Pair{Tag: tag.Tag{Z: int64(i), W: "w1"}, Value: types.Value(fmt.Sprintf("v%d", i))}
		put[p.Tag] = string(p.Value)
		if err := w.PutData(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	pair, err := r.GetData(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag == tag.Zero {
		return
	}
	want, ok := put[pair.Tag]
	if !ok || want != string(pair.Value) {
		t.Fatalf("get-data returned unwritten pair (%v, %q): C2 violated", pair.Tag, pair.Value)
	}
}

// TestConcurrencyWithinDeltaStaysLive is Theorem 9's liveness condition:
// with concurrent writers bounded by δ, reads keep completing.
func TestConcurrencyWithinDeltaStaysLive(t *testing.T) {
	t.Parallel()
	const writers = 4
	net := transport.NewSimnet(WithJitter())
	c, _ := deploy(t, "c0", 5, 3, writers+1, net)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	stop := make(chan struct{})
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
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := dap.WriteA1(ctx, client, id, types.Value(fmt.Sprintf("%s-%d", id, j))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	r, err := NewClient(c, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	success := 0
	for i := 0; i < 20; i++ {
		if _, err := dap.ReadA1(ctx, r); err != nil {
			if errors.Is(err, ErrNotDecodable) {
				continue // allowed transiently; must not persist
			}
			t.Fatal(err)
		}
		success++
	}
	close(stop)
	wg.Wait()
	if success == 0 {
		t.Fatal("no read completed despite concurrency within δ")
	}
}

func TestNewClientValidation(t *testing.T) {
	t.Parallel()
	bad := cfg.Configuration{ID: "x", Algorithm: cfg.ABD, Servers: []types.ProcessID{"s1"}}
	if _, err := NewClient(bad, nil); err == nil {
		t.Fatal("NewClient accepted an ABD configuration")
	}
	badK := cfg.Configuration{ID: "x", Algorithm: cfg.TREAS, Servers: []types.ProcessID{"s1", "s2"}, K: 5}
	if _, err := NewClient(badK, nil); err == nil {
		t.Fatal("NewClient accepted k > n")
	}
}

func TestServiceMembershipValidation(t *testing.T) {
	t.Parallel()
	c := cfg.Configuration{ID: "x", Algorithm: cfg.TREAS, Servers: []types.ProcessID{"s1", "s2", "s3"}, K: 2}
	src := cfg.NewResolver()
	src.Add(c)
	outsider := NewService("outsider", src, nil)
	if _, err := outsider.HandleKeyed("q", "", "x", msgQueryTag, nil); err == nil {
		t.Fatal("non-member server materialized state")
	}
	if outsider.Family().Len() != 0 {
		t.Fatal("rejected message left state behind")
	}
	member := NewService("s1", src, nil)
	if _, err := member.HandleKeyed("q", "", "x", msgQueryTag, nil); err != nil {
		t.Fatalf("member first touch: %v", err)
	}
	if member.Family().Len() != 1 {
		t.Fatalf("member States = %d, want 1", member.Family().Len())
	}
}

func TestServiceUnknownConfig(t *testing.T) {
	t.Parallel()
	svc := NewService("s1", cfg.NewResolver(), nil)
	_, err := svc.HandleKeyed("q", "", "ghost", msgQueryTag, nil)
	if !errors.Is(err, cfg.ErrUnknownConfig) {
		t.Fatalf("err = %v, want ErrUnknownConfig", err)
	}
}

func TestServiceUnknownMessage(t *testing.T) {
	t.Parallel()
	c := cfg.Configuration{ID: "x", Algorithm: cfg.TREAS, Servers: []types.ProcessID{"s1"}, K: 1}
	src := cfg.NewResolver()
	src.Add(c)
	svc := NewService("s1", src, nil)
	if _, err := svc.HandleKeyed("q", "", "x", "bogus", nil); err == nil {
		t.Fatal("unknown message type accepted")
	}
}

// WithJitter gives the simnet a small random delay so concurrent operations
// genuinely interleave.
func WithJitter() transport.SimnetOption {
	return transport.WithDelayRange(100*time.Microsecond, 2*time.Millisecond)
}
