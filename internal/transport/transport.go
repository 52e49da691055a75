// Package transport provides the asynchronous message-passing substrate the
// ARES model assumes (§2): point-to-point reliable channels between client
// and server processes.
//
// Two implementations are provided:
//
//   - Simnet: an in-memory network with a configurable per-message latency
//     model. Message delays are drawn uniformly from [d, D], matching the
//     minimum/maximum delivery delays the paper's latency analysis (§4.4,
//     Appendix D) is parameterized on. Per-process delay classes, crash
//     failures, partitions, and wire-byte accounting are supported.
//
//   - TCP: a compact length-prefixed binary framing over real sockets for
//     multi-process deployments (cmd/ares-server and friends).
//
// All protocol exchanges are request/response: a client invokes a typed
// request against a destination process and receives a response. Quorum
// collection on top of Invoke is provided by Gather.
package transport

import (
	"context"
	"errors"
	"fmt"

	"github.com/ares-storage/ares/internal/types"
)

// Request is a protocol message addressed to a service instance on a server.
type Request struct {
	// Service names the protocol family, e.g. "treas", "abd", "recon", "paxos".
	Service string
	// Key names the object (register) the message concerns. Servers host one
	// keyed service per protocol family and route on (service, key, config);
	// the empty key addresses a deployment's default register.
	Key string
	// Config identifies the configuration whose per-key state is addressed.
	Config string
	// Type is the message type within the service, e.g. "query-tag".
	Type string
	// Payload is the message body as transport.Marshal encoded it: a binary
	// body (BodyEncoder) on the steady data path, gob off it, and empty for
	// struct{}{}.
	Payload []byte
}

// Response carries a service's reply.
type Response struct {
	// OK is false when the service reports an application-level error.
	OK bool
	// Err holds the error text when OK is false.
	Err string
	// Payload is the response body as transport.Marshal encoded it (see
	// Request.Payload); empty for an acknowledgement.
	Payload []byte
}

// OKResponse builds a successful response with the given encoded payload.
func OKResponse(payload []byte) Response {
	return Response{OK: true, Payload: payload}
}

// ErrResponse builds a failed response from an error.
func ErrResponse(err error) Response {
	return Response{OK: false, Err: err.Error()}
}

// Client sends requests to remote processes.
type Client interface {
	// Invoke delivers req to dst and waits for its response. It returns an
	// error when the context expires or the destination is unreachable;
	// service-level failures come back inside the Response.
	Invoke(ctx context.Context, dst types.ProcessID, req Request) (Response, error)
}

// Handler processes inbound requests at a server.
type Handler interface {
	HandleRequest(from types.ProcessID, req Request) Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from types.ProcessID, req Request) Response

// HandleRequest implements Handler.
func (f HandlerFunc) HandleRequest(from types.ProcessID, req Request) Response {
	return f(from, req)
}

// ErrUnreachable reports that the destination process cannot be contacted
// (crashed, partitioned, or unknown to the network).
var ErrUnreachable = errors.New("transport: destination unreachable")

// ErrServiceFailure wraps an application-level error carried in a Response.
var ErrServiceFailure = errors.New("transport: service failure")

// ResponseError converts a failed Response into an error; it returns nil for
// successful responses.
func ResponseError(resp Response) error {
	if resp.OK {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrServiceFailure, resp.Err)
}
