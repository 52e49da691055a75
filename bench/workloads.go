package main

import (
	"fmt"
	"time"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/cfg"
)

// Load shape shared by every workload. The worker count is a constant of the
// benchmark, not derived from the machine: results are only comparable at a
// fixed offered concurrency.
const (
	workers       = 2
	opTimeout     = 5 * time.Second
	warmup        = 2 * time.Second
	windowSlices  = 6
	setupRounds   = 3
	preloaders    = 16
	defaultSecs   = 20
	reconfigEvery = 100 * time.Millisecond
)

// workload is one traffic mix against one cluster shape.
type workload struct {
	Name string
	Why  string

	Servers int
	// Template is the per-key configuration installed before load; its ID
	// carries cfg.KeyPlaceholder.
	Template ares.Config
	// Durable gives every server a -data-dir with -fsync=true.
	Durable bool

	Keys       int
	Theta      float64 // 0 = uniform key choice, else zipfian skew
	ValueSize  int
	WriteRatio float64
	// Churn adds the reconfigurer goroutine (one Reconfig per reconfigEvery).
	Churn bool
}

func serverIDs(n int) []ares.ProcessID {
	ids := make([]ares.ProcessID, n)
	for i := range ids {
		ids[i] = ares.ProcessID(fmt.Sprintf("s%d", i+1))
	}
	return ids
}

func abdTemplate(servers []ares.ProcessID) ares.Config {
	return ares.Config{
		ID:        ares.ConfigID("bench/" + cfg.KeyPlaceholder + "/c0"),
		Algorithm: ares.ABD,
		Servers:   servers,
	}
}

func treasTemplate(servers []ares.ProcessID) ares.Config {
	return ares.Config{
		ID:        ares.ConfigID("bench/" + cfg.KeyPlaceholder + "/c0"),
		Algorithm: ares.TREAS,
		Servers:   servers,
		K:         3,
		Delta:     4,
	}
}

// workloads is the benchmark's fixed set. Each exists because it loads
// layers the others bypass; the Why strings are repeated in BENCHMARK.json.
var workloads = []workload{
	{
		Name:    "abd-small-read",
		Why:     "3-server in-memory ABD, 4096 uniform keys, 1 KiB, 90% get: per-message cost (core rounds, recon read-config, transport codec) dominates; WAL and erasure do nothing",
		Servers: 3, Template: abdTemplate(serverIDs(3)),
		Keys: 4096, ValueSize: 1 << 10, WriteRatio: 0.10,
	},
	{
		Name:    "abd-durable-write",
		Why:     "3-server ABD with WAL and fsync, 4096 zipfian(0.99) keys, 1 KiB, 90% put: the 4-round write path, hot-key contention and keystate group commit on every ack",
		Servers: 3, Template: abdTemplate(serverIDs(3)), Durable: true,
		Keys: 4096, Theta: 0.99, ValueSize: 1 << 10, WriteRatio: 0.90,
	},
	{
		Name:    "treas-large-mixed",
		Why:     "5-server in-memory TREAS [5,3] delta 4, 64 uniform keys, 256 KiB, 50% put: bytes dominate, so erasure coding, list growth and large-frame copies set the cost",
		Servers: 5, Template: treasTemplate(serverIDs(5)),
		Keys: 64, ValueSize: 256 << 10, WriteRatio: 0.50,
	},
	{
		Name:    "reconfig-churn",
		Why:     "5 in-memory servers, 64 keys, 4 KiB, 50% put, plus one Reconfig every 100 ms alternating TREAS [5,3] and ABD 3-of-5: reads and writes must continue across reconfiguration",
		Servers: 5, Template: abdTemplate(serverIDs(3)),
		Keys: 64, ValueSize: 4 << 10, WriteRatio: 0.50, Churn: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smokeSized shrinks workloads to 16 keys for the -smoke pass and the tests.
func smokeSized(ws []workload) []workload {
	out := append([]workload(nil), ws...)
	for i := range out {
		out[i].Keys = 16
	}
	return out
}

// churnTarget is the configuration key's move-th reconfiguration installs:
// even moves go to TREAS [5,3] on all five servers, odd moves to ABD on a
// rotating three of them. Every move has a fresh ID.
func churnTarget(all []ares.ProcessID, key string, keyIdx, move int) ares.Config {
	id := ares.ConfigID(fmt.Sprintf("bench/%s/c%d", key, move+1))
	if move%2 == 0 {
		c := treasTemplate(all)
		c.ID = id
		return c
	}
	r := keyIdx + move/2
	three := []ares.ProcessID{all[r%len(all)], all[(r+1)%len(all)], all[(r+2)%len(all)]}
	c := abdTemplate(three)
	c.ID = id
	return c
}
