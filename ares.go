package ares

import (
	"context"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/core"
	"github.com/ares-storage/ares/internal/recon"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// Core identifier and data types, aliased from the internal packages so the
// public surface and the implementation share one definition.
type (
	// ProcessID names a client or server process.
	ProcessID = types.ProcessID
	// Value is the object value domain; values are opaque byte strings.
	Value = types.Value
	// Tag is the logical timestamp (z, writer) ordering all writes.
	Tag = tag.Tag
	// Pair couples a tag with a value, as returned by Read.
	Pair = tag.Pair
	// Config describes one configuration: servers, algorithm, parameters.
	Config = cfg.Configuration
	// ConfigID uniquely names a configuration.
	ConfigID = cfg.ID
	// Algorithm selects a configuration's atomic-memory implementation.
	Algorithm = cfg.Algorithm
	// ConfigSequence is a local view of the global configuration sequence.
	ConfigSequence = cfg.Sequence
)

// The storage algorithms shipped with the library.
const (
	// ABD replicates the full value on every server (majority quorums).
	ABD = cfg.ABD
	// TREAS erasure-codes the value with an [n, k] MDS code (⌈(n+k)/2⌉
	// quorums, δ-bounded server lists) — the paper's contribution.
	TREAS = cfg.TREAS
)

// CtlServiceName names the node-scoped control service through which
// configurations are provisioned remotely. Exposed so operational tooling
// (and tests) can account install traffic separately from data traffic.
const CtlServiceName = core.CtlServiceName

// Client is an ARES reader/writer. Obtain one from Cluster.NewClient (or
// assemble over TCP with NewTCPClient + NewRemoteClient).
type Client = core.Client

// Reconfigurer drives configuration changes. Obtain one from
// Cluster.NewReconfigurer or NewRemoteReconfigurer.
type Reconfigurer = recon.Client

// ReconOptions tunes a reconfigurer; DirectTransfer enables the §5
// server-to-server state migration.
type ReconOptions = recon.Options

// Cluster is a single-process deployment over a simulated network, the
// starting point for tests, experiments, and the examples.
type Cluster = core.Cluster

// Network is the in-memory simulated network with configurable [d, D]
// message-delay bounds, crash and partition injection, and traffic counters.
type Network = transport.Simnet

// NetworkOption configures NewSimNetwork.
type NetworkOption = transport.SimnetOption

// NewSimNetwork creates an in-memory network. With no options delivery is
// immediate; pass WithDelayRange to emulate latency.
func NewSimNetwork(opts ...NetworkOption) *Network {
	return transport.NewSimnet(opts...)
}

// WithDelayRange sets the default one-way message delay to a uniform draw
// from [min, max] — the d and D of the paper's latency analysis.
func WithDelayRange(min, max time.Duration) NetworkOption {
	return transport.WithDelayRange(min, max)
}

// WithSeed makes the network's delay sampling reproducible.
func WithSeed(seed int64) NetworkOption {
	return transport.WithSeed(seed)
}

// NewCluster deploys the initial configuration c0 on net and returns the
// cluster handle. Additional servers named in later configurations must be
// added with Cluster.AddHost before reconfiguring to them.
func NewCluster(c0 Config, net *Network, extraServers ...ProcessID) (*Cluster, error) {
	return core.NewCluster(c0, net, extraServers...)
}

// NewRemoteClient builds a reader/writer against an arbitrary transport
// (e.g. a TCP client from NewTCPClient), rooted at configuration c0.
func NewRemoteClient(self ProcessID, c0 Config, rpc transport.Client) (*Client, error) {
	return core.NewClient(self, c0, rpc, core.NewRegistry())
}

// NewRemoteReconfigurer builds a reconfigurer against an arbitrary
// transport, provisioning new configurations through the servers' control
// services.
func NewRemoteReconfigurer(self ProcessID, c0 Config, rpc transport.Client, opts ReconOptions) (*Reconfigurer, error) {
	return recon.NewClient(self, c0, rpc, core.NewRegistry(), core.RemoteInstaller(rpc), opts)
}

// ReadValue returns just the value of a Read — convenience for callers that
// do not need the tag. It is a free function (rather than a method) so the
// Client alias stays identical to the internal implementation.
func ReadValue(ctx context.Context, c *Client) (Value, error) {
	pair, err := c.Read(ctx)
	if err != nil {
		return nil, err
	}
	return pair.Value, nil
}
