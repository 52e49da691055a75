package ares

import (
	"fmt"

	"github.com/ares-storage/ares/internal/core"
	"github.com/ares-storage/ares/internal/keystate"
	"github.com/ares-storage/ares/internal/node"
	"github.com/ares-storage/ares/internal/transport"
)

// Server is a standalone ARES server process listening on TCP: the
// multi-process deployment unit started by cmd/ares-server. It hosts the
// per-configuration services (store, reconfiguration pointer, consensus
// acceptor) and a control service through which reconfigurers provision new
// configurations.
type Server struct {
	host *core.Host
	tcp  *transport.TCPServer
	out  *transport.TCPClient
}

// AddressBook resolves process IDs to TCP addresses. Multi-process
// deployments distribute a static book (flag/file) to every process.
type AddressBook = map[ProcessID]string

// TCPOption tunes the TCP data plane (dial timeout, handler bounds, queue
// depths, batch limits) of NewServer and NewTCPClient.
type TCPOption = transport.TCPOption

// WithBatchLimits caps one batched frame at maxEnvelopes envelopes and
// approximately maxBytes of payload (defaults 64 and 128 KiB).
func WithBatchLimits(maxEnvelopes, maxBytes int) TCPOption {
	return transport.WithBatchLimits(maxEnvelopes, maxBytes)
}

// Durability configures the server's persistent state. A zero Dir leaves the
// server in-memory (the pre-durability behavior); a non-zero Dir makes every
// acknowledged mutation durable under it — write-ahead logged before the
// reply leaves, snapshotted in the background, and recovered on the next
// start before the listener accepts its first connection.
type Durability struct {
	// Dir is the server's data directory, created if missing. Each server
	// process needs its own.
	Dir string
	// Fsync syncs the WAL on every group commit (the crash-safe default when
	// durability is on). Disabling it trades power-loss safety for
	// throughput: acknowledged writes survive a process kill but not a
	// machine crash.
	Fsync bool
}

// RecoveryStats describes what a server start replayed from its data
// directory.
type RecoveryStats = keystate.RecoveryStats

// NewServer starts an ARES server for process id on addr ("host:port"; use
// port 0 to auto-assign and discover via Addr). book must cover every server
// this process will talk to (peers of its configurations). Configurations
// are installed remotely by reconfigurers through the control service, or
// locally with Install.
func NewServer(id ProcessID, addr string, book AddressBook, opts ...TCPOption) (*Server, error) {
	s, _, err := NewServerWithDurability(id, addr, book, Durability{}, opts...)
	return s, err
}

// NewServerWithDurability starts an ARES server with a durability layer
// rooted at dur.Dir (no layer when dur.Dir is empty; see Durability).
// Recovery — snapshot restore plus log-tail replay — completes before the
// TCP listener starts, so the node never answers an envelope from
// pre-recovery state. The returned stats describe the recovery pass.
func NewServerWithDurability(id ProcessID, addr string, book AddressBook, dur Durability, opts ...TCPOption) (*Server, RecoveryStats, error) {
	out := transport.NewTCPClient(id, transport.StaticBook(book), opts...)
	host := core.NewHost(node.New(id), out)
	var stats RecoveryStats
	if dur.Dir != "" {
		var err error
		stats, err = host.EnableDurability(dur.Dir, keystate.WithFsync(dur.Fsync))
		if err != nil {
			out.Close()
			return nil, stats, fmt.Errorf("ares: starting server %s: %w", id, err)
		}
	}
	tcp, err := transport.NewTCPServer(id, addr, host.Node(), opts...)
	if err != nil {
		_ = host.Close()
		out.Close()
		return nil, stats, fmt.Errorf("ares: starting server %s: %w", id, err)
	}
	return &Server{host: host, tcp: tcp, out: out}, stats, nil
}

// Addr returns the server's bound TCP address.
func (s *Server) Addr() string { return s.tcp.Addr() }

// ID returns the server's process ID.
func (s *Server) ID() ProcessID { return s.host.ID() }

// Install provisions a configuration's services locally (bootstrap of c0;
// subsequent configurations usually arrive through reconfigurers).
func (s *Server) Install(c Config) error {
	return s.host.InstallConfiguration(c)
}

// Close stops the listener and all connections, then flushes and closes the
// durability layer (when one is attached).
func (s *Server) Close() error {
	s.out.Close()
	tcpErr := s.tcp.Close()
	if err := s.host.Close(); err != nil {
		return err
	}
	return tcpErr
}

// NewTCPClient returns a transport client for a client-side process (reader,
// writer, or reconfigurer) resolving servers through book. Pass the result
// to NewRemoteClient or NewRemoteReconfigurer.
func NewTCPClient(self ProcessID, book AddressBook, opts ...TCPOption) *transport.TCPClient {
	return transport.NewTCPClient(self, transport.StaticBook(book), opts...)
}
