package transport

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/ares-storage/ares/internal/types"
)

// recordingClient captures every request it delivers, answering from a
// handler function, with no network and no background goroutines — so codec
// counter deltas observed around a Broadcast are attributable to it alone.
type recordingClient struct {
	mu     sync.Mutex
	reqs   map[types.ProcessID]Request
	handle func(dst types.ProcessID, req Request) (Response, error)
}

func newRecordingClient(handle func(dst types.ProcessID, req Request) (Response, error)) *recordingClient {
	return &recordingClient{reqs: make(map[types.ProcessID]Request), handle: handle}
}

func (c *recordingClient) Invoke(_ context.Context, dst types.ProcessID, req Request) (Response, error) {
	c.mu.Lock()
	c.reqs[dst] = req
	c.mu.Unlock()
	return c.handle(dst, req)
}

type echoBody struct {
	N int
}

var broadcastDsts = []types.ProcessID{"s1", "s2", "s3", "s4", "s5"}

// TestBroadcastMarshalsSharedBodyOnce is the marshal-once invariant guard:
// one Broadcast of a shared body to n servers performs exactly one body
// encode, and every destination receives the very same payload bytes. This
// test must not run in parallel: it reads deltas of the process-wide codec
// counters.
func TestBroadcastMarshalsSharedBodyOnce(t *testing.T) {
	client := newRecordingClient(func(types.ProcessID, Request) (Response, error) {
		return OKResponse(nil), nil
	})
	d := counterDeltas(func() {
		_, err := Broadcast(context.Background(), client, broadcastDsts,
			Phase[struct{}]{Service: "svc", Config: "c0", Type: "op", Body: echoBody{N: 7}},
			AtLeast[struct{}](len(broadcastDsts)),
		)
		if err != nil {
			t.Fatal(err)
		}
	})
	if got := d["ares_codec_encodes_total"]; got != 1 {
		t.Fatalf("Broadcast to %d servers performed %d body encodes, want exactly 1", len(broadcastDsts), got)
	}

	// All requests must share the same backing payload — not just equal
	// bytes, the same slice — so the guarantee survives even if counting
	// changes.
	var first []byte
	for _, dst := range broadcastDsts {
		payload := client.reqs[dst].Payload
		if first == nil {
			first = payload
			continue
		}
		if !sameSlice(first, payload) {
			t.Fatalf("destination %s received a distinct payload slice", dst)
		}
	}
}

// TestBroadcastPerDestinationBodies pins the other half of the contract:
// a BodyFor phase encodes once per destination, and each server sees its own
// body.
func TestBroadcastPerDestinationBodies(t *testing.T) {
	client := newRecordingClient(func(types.ProcessID, Request) (Response, error) {
		return OKResponse(nil), nil
	})
	d := counterDeltas(func() {
		_, err := Broadcast(context.Background(), client, broadcastDsts,
			Phase[struct{}]{
				Service: "svc", Config: "c0", Type: "op",
				BodyFor: func(dst types.ProcessID) (any, error) {
					return echoBody{N: len(dst)}, nil
				},
			},
			AtLeast[struct{}](len(broadcastDsts)),
		)
		if err != nil {
			t.Fatal(err)
		}
	})
	if got := d["ares_codec_encodes_total"]; got != int64(len(broadcastDsts)) {
		t.Fatalf("per-destination Broadcast performed %d encodes, want %d", got, len(broadcastDsts))
	}
}

func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func TestBroadcastDecodesTypedReplies(t *testing.T) {
	t.Parallel()
	client := newRecordingClient(func(dst types.ProcessID, _ Request) (Response, error) {
		return OKResponse(MustMarshal(echoBody{N: len(dst)})), nil
	})
	got, err := Broadcast(context.Background(), client, broadcastDsts,
		Phase[echoBody]{Service: "svc", Config: "c0", Type: "op", Body: struct{}{}},
		AtLeast[echoBody](len(broadcastDsts)),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range got {
		if g.Value.N != len(g.From) {
			t.Fatalf("reply from %s decoded as %+v", g.From, g.Value)
		}
	}
}

// TestBroadcastCheckCountsAsFailure verifies that a reply rejected by Check
// does not count toward the quorum: with every server rejected, Broadcast
// reports quorum unavailability.
func TestBroadcastCheckCountsAsFailure(t *testing.T) {
	t.Parallel()
	client := newRecordingClient(func(types.ProcessID, Request) (Response, error) {
		return OKResponse(MustMarshal(echoBody{N: 1})), nil
	})
	_, err := Broadcast(context.Background(), client, broadcastDsts,
		Phase[echoBody]{
			Service: "svc", Config: "c0", Type: "op", Body: struct{}{},
			Check: func(from types.ProcessID, resp echoBody) error {
				return fmt.Errorf("stale reply from %s", from)
			},
		},
		AtLeast[echoBody](1),
	)
	if !errors.Is(err, ErrQuorumUnavailable) {
		t.Fatalf("err = %v, want ErrQuorumUnavailable", err)
	}
}

// TestBroadcastServiceFailure folds service-level errors into per-destination
// failures, same as InvokeTyped.
func TestBroadcastServiceFailure(t *testing.T) {
	t.Parallel()
	client := newRecordingClient(func(dst types.ProcessID, _ Request) (Response, error) {
		if dst == "s1" || dst == "s2" {
			return ErrResponse(errors.New("boom")), nil
		}
		return OKResponse(nil), nil
	})
	got, err := Broadcast(context.Background(), client, broadcastDsts,
		Phase[struct{}]{Service: "svc", Config: "c0", Type: "op", Body: struct{}{}},
		AtLeast[struct{}](3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("gathered %d results, want 3", len(got))
	}
}

// TestBroadcastOverSimnet exercises the primitive end to end over the
// simulated network, including request routing fields.
func TestBroadcastOverSimnet(t *testing.T) {
	t.Parallel()
	net := NewSimnet()
	for _, id := range broadcastDsts {
		id := id
		net.Register(id, HandlerFunc(func(_ types.ProcessID, req Request) Response {
			if req.Service != "svc" || req.Config != "c0" || req.Type != "op" {
				return ErrResponse(fmt.Errorf("misrouted: %+v", req))
			}
			var in echoBody
			if err := Unmarshal(req.Payload, &in); err != nil {
				return ErrResponse(err)
			}
			return OKResponse(MustMarshal(echoBody{N: in.N + 1}))
		}))
	}
	got, err := Broadcast(context.Background(), net.Client("w1"), broadcastDsts,
		Phase[echoBody]{Service: "svc", Config: "c0", Type: "op", Body: echoBody{N: 41}},
		AtLeast[echoBody](3),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := echoBody{N: 42}
	for _, g := range got {
		if !reflect.DeepEqual(g.Value, want) {
			t.Fatalf("reply %+v, want %+v", g.Value, want)
		}
	}
}
