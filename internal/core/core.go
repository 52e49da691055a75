// Package core assembles the ARES system (§4): server hosts that can install
// configurations at runtime, the reader/writer clients of Alg. 7, and the
// deployment helpers gluing the reconfiguration service, the consensus
// service, and the per-configuration DAP implementations together.
package core

import (
	"github.com/ares-storage/ares/internal/abd"
	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/dap"
	"github.com/ares-storage/ares/internal/treas"
)

// NewRegistry returns a DAP registry wired with the two algorithms shipped
// in this library: ABD and TREAS. Each ARES configuration selects one by
// name (cfg.Configuration.Algorithm), which is the paper's adaptivity —
// different configurations may run different atomic-memory algorithms
// (Remark 22).
func NewRegistry() *dap.Registry {
	r := dap.NewRegistry()
	r.Register(cfg.ABD, abd.Factory)
	r.Register(cfg.TREAS, treas.Factory)
	return r
}
