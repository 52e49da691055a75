// Package node implements the server process: a container that hosts one
// keyed service instance per protocol family and dispatches inbound requests
// to them on (service, key, configuration).
//
// ARES separates client processes (readers, writers, reconfigurers) from
// server processes (§4: "ARES adopts a client-server architecture"). The
// paper's composability claim (§1) makes every object key an independent
// register with its own configuration chain; hosting a service stack per
// (key, configuration) would cost O(keys) instances and installation
// round-trips. Instead a node hosts exactly one instance per algorithm
// family (ABD, TREAS, the reconfiguration pointer service, the consensus
// acceptor), and each instance materializes per-(key, config) state lazily
// inside a striped-lock map on the first message that names the pair. Node-scoped services (the control service) remain addressable by an
// exact (service, config) pair.
package node

import (
	"errors"
	"fmt"
	"sync"

	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// Service handles the messages of one node-scoped protocol instance.
// Implementations must be safe for concurrent use: the transport invokes
// handlers from many goroutines.
type Service interface {
	// Handle processes a message of the given type and returns the response
	// body to be encoded, or an error surfaced to the caller.
	Handle(from types.ProcessID, msgType string, payload []byte) (any, error)
}

// ServiceFunc adapts a function to Service.
type ServiceFunc func(from types.ProcessID, msgType string, payload []byte) (any, error)

// Handle implements Service.
func (f ServiceFunc) Handle(from types.ProcessID, msgType string, payload []byte) (any, error) {
	return f(from, msgType, payload)
}

// KeyedService handles the messages of one protocol family across the whole
// keyspace: the request envelope's key and configuration select (and on
// first touch create) the addressed state. Implementations must be safe for
// concurrent use and must reject (key, config) pairs they cannot resolve.
type KeyedService interface {
	HandleKeyed(from types.ProcessID, key, configID, msgType string, payload []byte) (any, error)
}

// KeyedServiceFunc adapts a function to KeyedService.
type KeyedServiceFunc func(from types.ProcessID, key, configID, msgType string, payload []byte) (any, error)

// HandleKeyed implements KeyedService.
func (f KeyedServiceFunc) HandleKeyed(from types.ProcessID, key, configID, msgType string, payload []byte) (any, error) {
	return f(from, key, configID, msgType, payload)
}

// ErrNoService reports a request for a service the node does not host —
// an unknown protocol family, or a node-scoped configuration not installed
// here.
var ErrNoService = errors.New("node: no such service instance")

// Node is a server process hosting service instances.
type Node struct {
	id types.ProcessID

	mu       sync.RWMutex
	services map[serviceKey]Service
	keyed    map[string]KeyedService
}

type serviceKey struct {
	service string
	config  string
}

// New constructs an empty node for process id.
func New(id types.ProcessID) *Node {
	return &Node{
		id:       id,
		services: make(map[serviceKey]Service),
		keyed:    make(map[string]KeyedService),
	}
}

// ID returns the node's process identifier.
func (n *Node) ID() types.ProcessID { return n.id }

// Install registers svc as the node-scoped handler for (service, configID).
// Installing over an existing instance is ignored and reported false:
// installation is idempotent, and the first installation wins so state is
// never silently discarded.
func (n *Node) Install(service string, configID string, svc Service) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := serviceKey{service: service, config: configID}
	if _, exists := n.services[key]; exists {
		return false
	}
	n.services[key] = svc
	return true
}

// InstallKeyed registers svc as the handler for every (key, config) of one
// protocol family. Like Install, the first installation wins.
func (n *Node) InstallKeyed(service string, svc KeyedService) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.keyed[service]; exists {
		return false
	}
	n.keyed[service] = svc
	return true
}

// Uninstall removes the node-scoped instance under (service, configID),
// reporting whether one was installed.
func (n *Node) Uninstall(service, configID string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := serviceKey{service: service, config: configID}
	if _, exists := n.services[key]; !exists {
		return false
	}
	delete(n.services, key)
	return true
}

// UninstallKeyed removes the keyed instance for a protocol family,
// reporting whether one was installed.
func (n *Node) UninstallKeyed(service string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.keyed[service]; !exists {
		return false
	}
	delete(n.keyed, service)
	return true
}

// Lookup returns the node-scoped service instance, if any.
func (n *Node) Lookup(service, configID string) (Service, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	svc, ok := n.services[serviceKey{service: service, config: configID}]
	return svc, ok
}

// LookupKeyed returns the keyed service hosting a protocol family, if any.
func (n *Node) LookupKeyed(service string) (KeyedService, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	svc, ok := n.keyed[service]
	return svc, ok
}

// Services returns the number of hosted service instances — keyed family
// instances plus node-scoped instances. This is the quantity that stays O(1)
// in the number of keys (for tests and introspection).
func (n *Node) Services() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.services) + len(n.keyed)
}

var _ transport.Handler = (*Node)(nil)

// HandleRequest implements transport.Handler by dispatching to the addressed
// service. A keyed family instance takes precedence; node-scoped instances
// are matched on the exact (service, config) pair.
func (n *Node) HandleRequest(from types.ProcessID, req transport.Request) transport.Response {
	n.mu.RLock()
	keyed, hasKeyed := n.keyed[req.Service]
	var svc Service
	var hasExact bool
	if !hasKeyed {
		svc, hasExact = n.services[serviceKey{service: req.Service, config: req.Config}]
	}
	n.mu.RUnlock()

	var body any
	var err error
	switch {
	case hasKeyed:
		body, err = keyed.HandleKeyed(from, req.Key, req.Config, req.Type, req.Payload)
	case hasExact:
		body, err = svc.Handle(from, req.Type, req.Payload)
	default:
		return transport.ErrResponse(fmt.Errorf("%w: %s/%s (key %q) at %s", ErrNoService, req.Service, req.Config, req.Key, n.id))
	}
	if err != nil {
		return transport.ErrResponse(err)
	}
	if body == nil {
		return transport.OKResponse(nil)
	}
	payload, err := transport.Marshal(body)
	if err != nil {
		return transport.ErrResponse(err)
	}
	return transport.OKResponse(payload)
}
