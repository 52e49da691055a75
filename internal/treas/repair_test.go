package treas

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/dap"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// wipeServer replaces a server's state with a fresh, empty service —
// modelling a server that lost its disk and rejoined under the same ID.
func wipeServer(t *testing.T, net *transport.Simnet, c cfg.Configuration, id types.ProcessID) *Service {
	t.Helper()
	src := cfg.NewResolver()
	src.Add(c)
	nd := node.New(id)
	svc := NewService(id, src, net.Client(id))
	nd.InstallKeyed(ServiceName, svc)
	net.Register(id, nd) // replaces the previous handler
	// Touch the object so the wiped server starts from the initial List
	// (t0 only), exactly as a disk-lost server rejoining would.
	if _, err := svc.states.State("", string(c.ID)); err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestRepairRestoresLostElements(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 5, 3, 3, net)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	w, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	values := map[tag.Tag]types.Value{}
	for i := 1; i <= 3; i++ {
		tg := tag.Tag{Z: int64(i), W: "w1"}
		v := make(types.Value, 4096)
		for j := range v {
			v[j] = byte(i*31 + j)
		}
		values[tg] = v
		if err := w.PutData(ctx, tag.Pair{Tag: tg, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce()

	// Server s3 loses everything.
	lost := c.Servers[2]
	fresh := wipeServer(t, net, c, lost)
	if tags, _ := fresh.ListSize("", string(c.ID)); tags != 1 {
		t.Fatalf("wiped server holds %d tags, want 1 (t0)", tags)
	}

	repaired, err := Repair(ctx, net.Client("repairer"), c, lost)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 3 {
		t.Fatalf("repaired %d elements, want 3", repaired)
	}
	_, withElems := fresh.ListSize("", string(c.ID))
	if withElems != 4 { // t0 + 3 repaired (δ+1 = 4 bound)
		t.Fatalf("target holds %d elements after repair, want 4", withElems)
	}

	// The repaired server must serve decodable elements: crash two OTHER
	// servers so reads now depend on the repaired one ([5,3] quorum = 4).
	net.Crash(c.Servers[0])
	r, err := NewClient(c, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := r.GetData(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := values[tag.Tag{Z: 3, W: "w1"}]
	if !pair.Value.Equal(want) {
		t.Fatal("read through repaired server returned wrong value")
	}
}

func TestRepairIsIdempotent(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 5, 3, 2, net)
	ctx := context.Background()
	w, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutData(ctx, tag.Pair{Tag: tag.Tag{Z: 1, W: "w1"}, Value: types.Value("x")}); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()

	// Repairing a healthy server installs nothing.
	repaired, err := Repair(ctx, net.Client("repairer"), c, c.Servers[1])
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 0 {
		t.Fatalf("repair of healthy server installed %d elements", repaired)
	}
}

func TestRepairValidatesInput(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 3, 2, 1, net)
	ctx := context.Background()
	if _, err := Repair(ctx, net.Client("x"), c, "not-a-member"); err == nil {
		t.Fatal("repair of non-member accepted")
	}
	abd := cfg.Configuration{ID: "a", Algorithm: cfg.ABD, Servers: []types.ProcessID{"s1"}}
	if _, err := Repair(ctx, net.Client("x"), abd, "s1"); err == nil {
		t.Fatal("repair of ABD configuration accepted")
	}
}

func TestRepairConcurrentWithWrites(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet(transport.WithDelayRange(0, time.Millisecond))
	c, _ := deploy(t, "c0", 5, 3, 6, net)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	w, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := w.PutData(ctx, tag.Pair{Tag: tag.Tag{Z: int64(i), W: "w1"}, Value: make(types.Value, 2048)}); err != nil {
			t.Fatal(err)
		}
	}
	lost := c.Servers[4]
	wipeServer(t, net, c, lost)

	// Writes continue while the repair runs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 4; i <= 8; i++ {
			if err := w.PutData(ctx, tag.Pair{Tag: tag.Tag{Z: int64(i), W: "w1"}, Value: make(types.Value, 2048)}); err != nil {
				return
			}
		}
	}()
	if _, err := Repair(ctx, net.Client("repairer"), c, lost); err != nil {
		t.Fatal(err)
	}
	<-done
	net.Quiesce()

	// System-wide read still works and returns the freshest write.
	r, err := NewClient(c, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := dap.ReadA1(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag.Z < 3 {
		t.Fatalf("read tag %v after repair + writes", pair.Tag)
	}
}

func TestRepairWithDonorCrash(t *testing.T) {
	t.Parallel()
	// Repair works while one donor is down ([5,3] tolerates f=1).
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 5, 3, 2, net)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutData(ctx, tag.Pair{Tag: tag.Tag{Z: 1, W: "w1"}, Value: make(types.Value, 1024)}); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
	lost := c.Servers[0]
	fresh := wipeServer(t, net, c, lost)
	net.Crash(c.Servers[1])

	repaired, err := Repair(ctx, net.Client("repairer"), c, lost)
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Fatal("nothing repaired despite recoverable state")
	}
	if _, withElems := fresh.ListSize("", string(c.ID)); withElems < 2 {
		t.Fatalf("target has %d elements", withElems)
	}
}

func TestRepairLargeState(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 7, 5, 4, net)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		v := make(types.Value, 64*1024+i)
		for j := range v {
			v[j] = byte(i + j*3)
		}
		if err := w.PutData(ctx, tag.Pair{Tag: tag.Tag{Z: int64(i), W: "w1"}, Value: v}); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce()
	lost := c.Servers[3]
	wipeServer(t, net, c, lost)
	repaired, err := Repair(ctx, net.Client("repairer"), c, lost)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 5 {
		t.Fatalf("repaired %d, want 5 (δ+1 elements minus t0 overlap: all 5 writes held)", repaired)
	}
	// Full read validates the re-encoded shards integrate correctly.
	r, err := NewClient(c, net.Client(types.ProcessID(fmt.Sprintf("r-%d", 1))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dap.ReadA1(ctx, r); err != nil {
		t.Fatal(err)
	}
}
