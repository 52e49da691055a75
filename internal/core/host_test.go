package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/abd"
	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/consensus"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/recon"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/treas"
	"github.com/ares-storage/ares/internal/types"
)

// dispatch sends one request directly into a host's node, as the transport
// would.
func dispatch(h *Host, service, key, configID, msgType string) transport.Response {
	return h.Node().HandleRequest("test-client", transport.Request{
		Service: service, Key: key, Config: configID, Type: msgType,
	})
}

func TestInstallConfigurationServices(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	h := NewHost(node.New("s1"), net.Client("s1"))

	c := treasConfig("c9", "hx", 3, 2, 1)
	c.Servers[0] = "s1" // make this host a member
	before := h.ServiceInstances()
	if err := h.InstallConfiguration(c); err != nil {
		t.Fatal(err)
	}
	// Installation registers the configuration but instantiates nothing: the
	// service footprint is fixed at host creation.
	if got := h.ServiceInstances(); got != before {
		t.Fatalf("ServiceInstances = %d after install, want %d (unchanged)", got, before)
	}
	// Messages for the installed configuration now materialize state.
	for _, svc := range []string{treas.ServiceName, recon.ServiceName, consensus.ServiceName} {
		msg := map[string]string{treas.ServiceName: "query-tag", recon.ServiceName: "read-config", consensus.ServiceName: "learn"}[svc]
		if resp := dispatch(h, svc, "", string(c.ID), msg); !resp.OK {
			t.Errorf("service %s rejected installed configuration: %s", svc, resp.Err)
		}
	}
}

func TestInstallSkipsNonMembers(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	h := NewHost(node.New("outsider"), net.Client("outsider"))
	c := abdConfig("c1", "nm", 3)
	if err := h.InstallConfiguration(c); err != nil {
		t.Fatal(err)
	}
	// A non-member rejects the configuration's messages and materializes no
	// state for it.
	if resp := dispatch(h, abd.ServiceName, "", string(c.ID), "query-tag"); resp.OK {
		t.Fatal("non-member served a store request")
	}
}

func TestInstallRejectsInvalidConfiguration(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	h := NewHost(node.New("s1"), net.Client("s1"))
	bad := cfg.Configuration{ID: "bad", Algorithm: "nope", Servers: []types.ProcessID{"s1"}}
	if err := h.InstallConfiguration(bad); err == nil {
		t.Fatal("invalid configuration installed")
	}
}

func TestCtlServiceInstallOverWire(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	h := NewHost(node.New("s1"), net.Client("s1"))
	net.Register("s1", h.Node())

	c := abdConfig("cw", "wire", 3)
	c.Servers[0] = "s1"
	installer := RemoteInstaller(net.Client("g1"))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Two of the three members do not exist on the network; the installer
	// needs a quorum (2) and can only get 1, so it must fail.
	if err := installer(ctx, c); err == nil {
		t.Fatal("install with only 1/3 members reachable succeeded")
	}

	// Add a second member: quorum reachable, install succeeds.
	h2 := NewHost(node.New(c.Servers[1]), net.Client(c.Servers[1]))
	net.Register(c.Servers[1], h2.Node())
	h3 := NewHost(node.New(c.Servers[2]), net.Client(c.Servers[2]))
	net.Register(c.Servers[2], h3.Node())
	if err := installer(ctx, c); err != nil {
		t.Fatal(err)
	}
	if resp := dispatch(h, abd.ServiceName, "", string(c.ID), "query-tag"); !resp.OK {
		t.Fatalf("store request rejected after remote install: %s", resp.Err)
	}
}

func TestCtlRejectsUnknownMessage(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	h := NewHost(node.New("s1"), net.Client("s1"))
	resp := h.Node().HandleRequest("x", transport.Request{
		Service: CtlServiceName, Config: CtlConfigKey, Type: "bogus",
	})
	if resp.OK || !strings.Contains(resp.Err, "unknown message") {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestHostStorageBytesAggregates(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c0 := abdConfig("c0", "st", 3)
	cluster, err := NewCluster(c0, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	w, err := cluster.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(context.Background(), make(types.Value, 2048)); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
	h, _ := cluster.Host(c0.Servers[0])
	if got := h.StorageBytes(); got != 2048 {
		t.Fatalf("StorageBytes = %d, want 2048", got)
	}
}

func TestDirectTransferFallsBackForABDTarget(t *testing.T) {
	t.Parallel()
	// DirectTransfer requested but the target is ABD: recon must fall back
	// to the Alg. 5 value transfer and still move the state.
	c0 := treasConfig("c0", "fb0", 5, 3, 2)
	c1 := abdConfig("c1", "fb1", 3)
	net := transport.NewSimnet()
	cluster, err := NewCluster(c0, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	addHosts(cluster, c1)
	ctx := context.Background()
	w, err := cluster.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(ctx, types.Value("fallback")); err != nil {
		t.Fatal(err)
	}
	g, err := cluster.NewReconfigurer("g1", recon.Options{DirectTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Reconfig(ctx, c1); err != nil {
		t.Fatal(err)
	}
	r, err := cluster.NewClient("r1")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(pair.Value) != "fallback" {
		t.Fatalf("read %q", pair.Value)
	}
}

func TestDirectTransferFromABDSourceFallsBack(t *testing.T) {
	t.Parallel()
	// Source holding the freshest tag is ABD, target TREAS: direct transfer
	// cannot forward replicated state as coded elements — fallback applies.
	c0 := abdConfig("c0", "fs0", 3)
	c1 := treasConfig("c1", "fs1", 5, 3, 2)
	net := transport.NewSimnet()
	cluster, err := NewCluster(c0, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	addHosts(cluster, c1)
	ctx := context.Background()
	w, err := cluster.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(ctx, types.Value("from-abd")); err != nil {
		t.Fatal(err)
	}
	g, err := cluster.NewReconfigurer("g1", recon.Options{DirectTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Reconfig(ctx, c1); err != nil {
		t.Fatal(err)
	}
	r, err := cluster.NewClient("r1")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(pair.Value) != "from-abd" {
		t.Fatalf("read %q", pair.Value)
	}
}
