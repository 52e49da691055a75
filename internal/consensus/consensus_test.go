package consensus

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// deploy installs a Paxos instance for configID on n servers.
func deploy(t *testing.T, net *transport.Simnet, configID string, n int) ([]types.ProcessID, map[types.ProcessID]*Service) {
	t.Helper()
	var servers []types.ProcessID
	for i := 0; i < n; i++ {
		servers = append(servers, types.ProcessID(fmt.Sprintf("s%d", i+1)))
	}
	c := cfg.Configuration{ID: cfg.ID(configID), Algorithm: cfg.ABD, Servers: servers}
	services := make(map[types.ProcessID]*Service, n)
	for _, id := range servers {
		src := cfg.NewResolver()
		src.Add(c)
		nd := node.New(id)
		svc := NewService(id, src)
		nd.InstallKeyed(ServiceName, svc)
		net.Register(id, nd)
		services[id] = svc
	}
	return servers, services
}

// soloAcceptor returns a one-server service and its materialized acceptor
// for direct protocol-state tests.
func soloAcceptor(t *testing.T) (*Service, *acceptor) {
	t.Helper()
	c := cfg.Configuration{ID: "solo", Algorithm: cfg.ABD, Servers: []types.ProcessID{"s1"}}
	src := cfg.NewResolver()
	src.Add(c)
	svc := NewService("s1", src)
	st, err := svc.states.State("", "solo")
	if err != nil {
		t.Fatal(err)
	}
	return svc, st
}

func TestSingleProposerDecides(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	servers, _ := deploy(t, net, "c0", 3)
	p, err := NewProposer("g1", "", "c0", servers, net.Client("g1"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Propose(context.Background(), []byte("cfg-1"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "cfg-1" {
		t.Fatalf("decided %q, want cfg-1", got)
	}
}

func TestAgreementUnderContention(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet(transport.WithDelayRange(0, 2*time.Millisecond), transport.WithSeed(42))
	servers, _ := deploy(t, net, "c0", 5)

	const proposers = 6
	results := make([][]byte, proposers)
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < proposers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := types.ProcessID(fmt.Sprintf("g%d", i))
			p, err := NewProposer(id, "", "c0", servers, net.Client(id))
			if err != nil {
				t.Error(err)
				return
			}
			got, err := p.Propose(ctx, []byte(fmt.Sprintf("proposal-%d", i)))
			if err != nil {
				t.Errorf("proposer %d: %v", i, err)
				return
			}
			results[i] = got
		}()
	}
	wg.Wait()

	// Agreement: all proposers decided the same value.
	for i := 1; i < proposers; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("proposer 0 decided %q, proposer %d decided %q: agreement violated", results[0], i, results[i])
		}
	}
	// Validity: the decided value is one of the proposals.
	valid := false
	for i := 0; i < proposers; i++ {
		if string(results[0]) == fmt.Sprintf("proposal-%d", i) {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("decided %q was never proposed: validity violated", results[0])
	}
}

func TestDecisionSurvivesProposerCrashMidway(t *testing.T) {
	t.Parallel()
	// Proposer 1 gets a value accepted by a majority but crashes before
	// broadcasting the decision (we simulate by running only the attempt).
	net := transport.NewSimnet()
	servers, _ := deploy(t, net, "c0", 3)
	p1, err := NewProposer("g1", "", "c0", servers, net.Client("g1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Run a full attempt (accepts land) but drop the decide by cancelling
	// right after: emulate via attempt() directly.
	if _, ok, err := p1.attempt(ctx, 1, []byte("from-g1")); err != nil || !ok {
		t.Fatalf("attempt: ok=%v err=%v", ok, err)
	}

	// A second proposer must decide the same value (it adopts the accepted
	// proposal from the promise quorum).
	p2, err := NewProposer("g2", "", "c0", servers, net.Client("g2"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p2.Propose(ctx, []byte("from-g2"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "from-g1" {
		t.Fatalf("second proposer decided %q, want from-g1 (agreement with accepted value)", got)
	}
}

func TestToleratesMinorityCrash(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	servers, _ := deploy(t, net, "c0", 5)
	net.Crash(servers[0])
	net.Crash(servers[1])
	p, err := NewProposer("g1", "", "c0", servers, net.Client("g1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := p.Propose(ctx, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v" {
		t.Fatalf("decided %q", got)
	}
}

func TestBlocksWithoutMajority(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	servers, _ := deploy(t, net, "c0", 3)
	net.Crash(servers[0])
	net.Crash(servers[1])
	p, err := NewProposer("g1", "", "c0", servers, net.Client("g1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := p.Propose(ctx, []byte("v")); err == nil {
		t.Fatal("Propose succeeded without a majority")
	}
}

func TestLearn(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	servers, _ := deploy(t, net, "c0", 3)
	p, err := NewProposer("g1", "", "c0", servers, net.Client("g1"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Nothing decided yet.
	if _, ok, err := p.Learn(ctx); err != nil || ok {
		t.Fatalf("Learn before decision: ok=%v err=%v", ok, err)
	}
	if _, err := p.Propose(ctx, []byte("decided")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := p.Learn(ctx)
	if err != nil || !ok || string(v) != "decided" {
		t.Fatalf("Learn after decision: %q ok=%v err=%v", v, ok, err)
	}
}

func TestBallotOrdering(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b Ballot
		want bool
	}{
		{Ballot{1, 5}, Ballot{2, 1}, true},
		{Ballot{2, 1}, Ballot{1, 5}, false},
		{Ballot{1, 1}, Ballot{1, 2}, true},
		{Ballot{1, 2}, Ballot{1, 2}, false},
	}
	for _, tc := range cases {
		if got := tc.a.Less(tc.b); got != tc.want {
			t.Errorf("%v.Less(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAcceptorRejectsStaleBallots(t *testing.T) {
	t.Parallel()
	_, svc := soloAcceptor(t)
	newer := Ballot{Round: 5, Proposer: 1}
	older := Ballot{Round: 3, Proposer: 9}

	resp := svc.prepare(prepareReq{Ballot: newer})
	if !resp.Promised {
		t.Fatal("fresh prepare rejected")
	}
	if got := svc.prepare(prepareReq{Ballot: older}); got.Promised {
		t.Fatal("stale prepare promised")
	}
	if got := svc.accept(acceptReq{Ballot: older, Value: []byte("x")}); got.Accepted {
		t.Fatal("stale accept accepted")
	}
	if got := svc.accept(acceptReq{Ballot: newer, Value: []byte("y")}); !got.Accepted {
		t.Fatal("promised-ballot accept rejected")
	}
}

func TestDecideIsIdempotentAndSticky(t *testing.T) {
	t.Parallel()
	svc, st := soloAcceptor(t)
	st.decide([]byte("first"))
	st.decide([]byte("second")) // must be ignored
	v, ok := svc.Decided("", "solo")
	if !ok || string(v) != "first" {
		t.Fatalf("Decided = %q ok=%v, want first", v, ok)
	}
	// prepare after decision reports the decision.
	resp := st.prepare(prepareReq{Ballot: Ballot{Round: 99}})
	if !resp.Decided || string(resp.DecidedValue) != "first" {
		t.Fatalf("prepare after decide = %+v", resp)
	}
}

func TestSequentialInstancesIndependent(t *testing.T) {
	t.Parallel()
	// Two consensus instances for different configurations on the same
	// servers must not interfere.
	net := transport.NewSimnet()
	var servers []types.ProcessID
	for i := 0; i < 3; i++ {
		servers = append(servers, types.ProcessID(fmt.Sprintf("s%d", i+1)))
	}
	c0 := cfg.Configuration{ID: "c0", Algorithm: cfg.ABD, Servers: servers}
	c1 := cfg.Configuration{ID: "c1", Algorithm: cfg.ABD, Servers: servers}
	for _, id := range servers {
		src := cfg.NewResolver()
		src.Add(c0)
		src.Add(c1)
		nd := node.New(id)
		nd.InstallKeyed(ServiceName, NewService(id, src))
		net.Register(id, nd)
	}
	ctx := context.Background()
	p0, err := NewProposer("g1", "", "c0", servers, net.Client("g1"))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewProposer("g1", "", "c1", servers, net.Client("g1"))
	if err != nil {
		t.Fatal(err)
	}
	v0, err := p0.Propose(ctx, []byte("for-c0"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := p1.Propose(ctx, []byte("for-c1"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v0) != "for-c0" || string(v1) != "for-c1" {
		t.Fatalf("instances interfered: %q %q", v0, v1)
	}
}

// TestBudgetHandlerAllocs pins the allocations of one prepare and one accept
// HandleKeyed call on an already materialized acceptor (no journal). Both
// bodies still travel as gob, which sets the numbers.
func TestBudgetHandlerAllocs(t *testing.T) {
	svc, _ := soloAcceptor(t)
	b := Ballot{Round: 1, Proposer: 1}
	prepare, err := transport.Marshal(prepareReq{Ballot: b})
	if err != nil {
		t.Fatal(err)
	}
	accept, err := transport.Marshal(acceptReq{Ballot: b, Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		msgType string
		payload []byte
		allocs  float64
	}{
		{msgPrepare, prepare, 173},
		{msgAccept, accept, 179},
	} {
		got := testing.AllocsPerRun(200, func() {
			_, _ = svc.HandleKeyed("c", "", "solo", tc.msgType, tc.payload)
		})
		t.Logf("%s: %.2f allocs", tc.msgType, got)
		if got > tc.allocs {
			t.Errorf("%s: %.2f allocs per HandleKeyed, budget %.0f", tc.msgType, got, tc.allocs)
		}
	}
}
