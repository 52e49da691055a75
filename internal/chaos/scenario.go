package chaos

import (
	"fmt"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// Env is what a scenario's schedule builder gets to aim faults at: the
// process IDs the runner will actually deploy.
type Env struct {
	// Servers are the members of the initial (template) configuration.
	Servers []types.ProcessID
	// AllServers additionally includes every server of the reconfiguration
	// chain.
	AllServers []types.ProcessID
	// Clients are the client-side processes: workload writers/readers and
	// the per-key reconfigurers.
	Clients []types.ProcessID
}

// Scenario declares one adversarial execution: a deployment shape, a
// concurrent multi-key workload, an optional reconfiguration walk, and a
// fault schedule running against all of it.
type Scenario struct {
	// Name identifies the scenario in verdicts and CI matrices.
	Name string
	// Description says what adversity the scenario creates.
	Description string
	// Template is the per-key initial configuration; the runner derives
	// each key's ID from it.
	Template cfg.Configuration
	// Chain is the reconfiguration walk each key's register performs
	// during the run (IDs derived per key); empty means no reconfig.
	Chain []cfg.Configuration
	// Keys is the number of independent registers driven concurrently.
	Keys int
	// ReconfigKeys caps how many keys run the Chain walk (0 = every key).
	// High-cardinality scenarios use it to keep the run timeboxed while all
	// keys still exercise keyed routing under the scenario's faults.
	ReconfigKeys int
	// Writers and Readers are the client counts per key.
	Writers, Readers int
	// Duration is the workload window (scaled by Options.Stretch).
	Duration time.Duration
	// Delay is the network's base [d, D] one-way delay.
	Delay transport.DelayRange
	// OpTimeout bounds each operation so faults stall an attempt, not the
	// workload; timed-out writes are recorded as incomplete.
	OpTimeout time.Duration
	// Durable runs the cluster with the keystate durability layer under a
	// temporary data directory: every server journals its mutations, and an
	// EvRestart rebuilds the victim from WAL + snapshot recovery. Without it
	// an EvRestart comes back amnesiac (honest, but quorum-unsafe — a
	// scenario asserting linearizability across a restart must be Durable).
	Durable bool
	// MaxStatesPerKey, when positive, asserts the configuration-lifecycle GC
	// after the run: the per-server (key, config) state entries retained
	// across the cluster, divided by the key count, must not exceed this
	// bound. A reconfiguration-churn scenario sets it well below the
	// ungarbage-collected total (O(walks) states) and above the live window
	// (O(live configs)), so a GC regression flips the verdict.
	MaxStatesPerKey int
	// Schedule builds the fault timeline for the deployed processes; nil
	// means a fault-free run.
	Schedule func(env Env) Schedule
}

// servers builds n process IDs with a prefix.
func servers(prefix string, n int) []types.ProcessID {
	out := make([]types.ProcessID, n)
	for i := range out {
		out[i] = types.ProcessID(fmt.Sprintf("%s-s%d", prefix, i+1))
	}
	return out
}

// treasTemplate builds a TREAS [n, k] per-key configuration template.
func treasTemplate(prefix string, n, k, delta int) cfg.Configuration {
	return cfg.Configuration{Algorithm: cfg.TREAS, Servers: servers(prefix, n), K: k, Delta: delta}
}

// abdTemplate builds an ABD n-replica per-key configuration template.
func abdTemplate(prefix string, n int) cfg.Configuration {
	return cfg.Configuration{Algorithm: cfg.ABD, Servers: servers(prefix, n)}
}

// Matrix returns the built-in scenario matrix — the adversarial executions
// CI pins. Every entry finishes in under a second at Stretch 1 and ends in
// a value-based linearizability verdict.
func Matrix() []Scenario {
	return []Scenario{
		{
			Name:        "minority-partition",
			Description: "two of five ABD replicas partitioned away mid-run, then healed; operations must stay live and atomic throughout",
			Template:    abdTemplate("mp", 5),
			Keys:        2, Writers: 2, Readers: 2,
			Duration: 800 * time.Millisecond,
			Delay:    transport.DelayRange{Max: time.Millisecond},
			Schedule: func(env Env) Schedule {
				minority := env.Servers[3:]
				rest := append(append([]types.ProcessID{}, env.Servers[:3]...), env.Clients...)
				return Schedule{
					{At: 200 * time.Millisecond, Kind: EvPartition, A: minority, B: rest},
					{At: 600 * time.Millisecond, Kind: EvHeal, A: minority, B: rest},
				}
			},
		},
		{
			Name:        "majority-partition-heal",
			Description: "clients lose the server majority for a window (operations stall, writes go incomplete), then the partition heals; safety must hold across the stall",
			Template:    abdTemplate("mjp", 5),
			Keys:        2, Writers: 2, Readers: 2,
			Duration:  900 * time.Millisecond,
			Delay:     transport.DelayRange{Max: time.Millisecond},
			OpTimeout: 150 * time.Millisecond,
			Schedule: func(env Env) Schedule {
				majority := env.Servers[:3]
				return Schedule{
					{At: 250 * time.Millisecond, Kind: EvPartition, A: majority, B: env.Clients},
					{At: 550 * time.Millisecond, Kind: EvHeal, A: majority, B: env.Clients},
				}
			},
		},
		{
			Name:        "asymmetric-link",
			Description: "one-way link losses: one client's requests to a server vanish while another server's responses to a second client vanish; quorums must route around both",
			Template:    treasTemplate("asym", 5, 3, 8),
			Keys:        2, Writers: 2, Readers: 2,
			Duration: 800 * time.Millisecond,
			Delay:    transport.DelayRange{Max: time.Millisecond},
			Schedule: func(env Env) Schedule {
				s := Schedule{
					{At: 150 * time.Millisecond, Kind: EvBlockLink, From: env.Clients[0], To: env.Servers[0]},
					{At: 650 * time.Millisecond, Kind: EvUnblockLink, From: env.Clients[0], To: env.Servers[0]},
				}
				if len(env.Clients) > 1 {
					s = append(s,
						Event{At: 150 * time.Millisecond, Kind: EvBlockLink, From: env.Servers[1], To: env.Clients[1]},
						Event{At: 650 * time.Millisecond, Kind: EvUnblockLink, From: env.Servers[1], To: env.Clients[1]},
					)
				}
				return s
			},
		},
		{
			Name: "kill-and-recover-during-write",
			Description: "a TREAS server is killed mid-run with writes in flight and later restarts from WAL + snapshot recovery — " +
				"its volatile state is discarded, acknowledged pre-crash writes must survive from disk, and linearizability is verified across the restart",
			Template: treasTemplate("crw", 5, 3, 8),
			Keys:     2, Writers: 3, Readers: 2,
			Durable:  true,
			Duration: 800 * time.Millisecond,
			Delay:    transport.DelayRange{Max: time.Millisecond},
			Schedule: func(env Env) Schedule {
				victim := env.Servers[len(env.Servers)-1]
				return Schedule{
					{At: 250 * time.Millisecond, Kind: EvCrash, Target: victim},
					{At: 500 * time.Millisecond, Kind: EvRestart, Target: victim},
				}
			},
		},
		{
			Name: "crash-restart-preserve-state",
			Description: "the legacy restart semantics, now explicit: a TREAS server becomes unreachable mid-run and recovers with its " +
				"in-memory state untouched (the process never died) — the amnesia-free control for kill-and-recover-during-write",
			Template: treasTemplate("crp", 5, 3, 8),
			Keys:     2, Writers: 3, Readers: 2,
			Duration: 800 * time.Millisecond,
			Delay:    transport.DelayRange{Max: time.Millisecond},
			Schedule: func(env Env) Schedule {
				victim := env.Servers[len(env.Servers)-1]
				return Schedule{
					{At: 250 * time.Millisecond, Kind: EvCrash, Target: victim},
					{At: 500 * time.Millisecond, Kind: EvRestartPreserveState, Target: victim},
				}
			},
		},
		{
			Name:        "reconfig-under-drop",
			Description: "the configuration sequence walks TREAS [5,3] → ABD 5 → TREAS [7,4] while every link drops 10% of messages",
			Template:    treasTemplate("rud", 5, 3, 8),
			Chain: []cfg.Configuration{
				abdTemplate("rud-b", 5),
				treasTemplate("rud-c", 7, 4, 8),
			},
			Keys: 2, Writers: 2, Readers: 2,
			Duration: time.Second,
			Delay:    transport.DelayRange{Max: time.Millisecond},
			Schedule: func(env Env) Schedule {
				return Schedule{
					{At: 0, Kind: EvDefaultFaults, Faults: transport.LinkFaults{Drop: 0.10}},
					{At: 900 * time.Millisecond, Kind: EvClearFaults},
				}
			},
		},
		{
			Name:        "treas-shard-loss",
			Description: "a TREAS [7,3] register permanently loses k−1 = 2 coded shards to crashes; the remaining five servers still form quorums and decode",
			Template:    treasTemplate("tsl", 7, 3, 8),
			Keys:        2, Writers: 2, Readers: 2,
			Duration: 800 * time.Millisecond,
			Delay:    transport.DelayRange{Max: time.Millisecond},
			Schedule: func(env Env) Schedule {
				return Schedule{
					{At: 250 * time.Millisecond, Kind: EvCrash, Target: env.Servers[5]},
					{At: 400 * time.Millisecond, Kind: EvCrash, Target: env.Servers[6]},
				}
			},
		},
		{
			Name: "treas-delta-writers",
			Description: "a TREAS [7,3] δ=2 register under three concurrent writers and two readers, each reusing one client so its read floor " +
				"rises with every put-data and confirmed read, while k−1 = 2 servers crash mid-run; filtered list reads must stay atomic",
			Template: treasTemplate("tdw", 7, 3, 2),
			Keys:     2, Writers: 3, Readers: 2,
			Duration: 800 * time.Millisecond,
			Delay:    transport.DelayRange{Max: time.Millisecond},
			Schedule: func(env Env) Schedule {
				return Schedule{
					{At: 250 * time.Millisecond, Kind: EvCrash, Target: env.Servers[1]},
					{At: 400 * time.Millisecond, Kind: EvCrash, Target: env.Servers[4]},
				}
			},
		},
		{
			Name:        "keyed-1k-partition-reconfig",
			Description: "1000 independent keys routed through one keyed service stack while a minority partition opens and heals and 16 keys walk a reconfiguration; every key gets its own linearizability verdict",
			Template:    abdTemplate("k1k", 5),
			Chain: []cfg.Configuration{
				treasTemplate("k1k-b", 5, 3, 8),
			},
			Keys: 1000, ReconfigKeys: 16, Writers: 1, Readers: 1,
			Duration: 600 * time.Millisecond,
			// A wide delay range paces each client's op rate so a thousand
			// concurrent registers stay within a timeboxed run.
			Delay:     transport.DelayRange{Min: 2 * time.Millisecond, Max: 8 * time.Millisecond},
			OpTimeout: 2 * time.Second,
			Schedule: func(env Env) Schedule {
				minority := env.Servers[3:]
				rest := append(append([]types.ProcessID{}, env.Servers[:3]...), env.Clients...)
				return Schedule{
					{At: 150 * time.Millisecond, Kind: EvPartition, A: minority, B: rest},
					{At: 450 * time.Millisecond, Kind: EvHeal, A: minority, B: rest},
				}
			},
		},
		{
			Name: "reconfig-churn-gc",
			Description: "each key's register walks 8 reconfigurations (TREAS↔ABD on one server set) under 5% message drop; " +
				"finalization-driven GC must keep per-server state O(live configs) while every key stays linearizable " +
				"and late calls on retired configurations get redirected, never fresh v0 state",
			Template: treasTemplate("rcg", 5, 3, 4),
			Chain: []cfg.Configuration{
				abdTemplate("rcg", 5),
				treasTemplate("rcg", 5, 3, 4),
				abdTemplate("rcg", 5),
				treasTemplate("rcg", 5, 3, 4),
				abdTemplate("rcg", 5),
				treasTemplate("rcg", 5, 3, 4),
				abdTemplate("rcg", 5),
				treasTemplate("rcg", 5, 3, 4),
			},
			Keys: 3, Writers: 1, Readers: 1,
			Duration:  1500 * time.Millisecond,
			Delay:     transport.DelayRange{Max: time.Millisecond},
			OpTimeout: 400 * time.Millisecond,
			// Without GC a completed 8-walk chain retains ~9 configs ×
			// (DAP + pointer + acceptor) × 5 servers ≈ 130 states per key.
			// The live window is ~15 at rest but spans up to ~3 configs per
			// key when the deadline cuts a walk mid-flight (pending successor
			// + its not-yet-retired predecessor + the tail), ≈ 45–50. The
			// bound sits between that and the no-GC total.
			MaxStatesPerKey: 70,
			Schedule: func(env Env) Schedule {
				return Schedule{
					{At: 100 * time.Millisecond, Kind: EvDefaultFaults, Faults: transport.LinkFaults{Drop: 0.05}},
					{At: 1200 * time.Millisecond, Kind: EvClearFaults},
				}
			},
		},
		{
			Name:        "dup-delay-spike",
			Description: "20% of requests delivered twice plus delay spikes beyond [d, D] for the middle of the run; idempotence and timing assumptions under stress",
			Template:    treasTemplate("dds", 5, 3, 8),
			Keys:        2, Writers: 2, Readers: 2,
			Duration: 800 * time.Millisecond,
			Delay:    transport.DelayRange{Max: time.Millisecond},
			Schedule: func(env Env) Schedule {
				spike := transport.LinkFaults{
					Dup:   0.20,
					Extra: transport.DelayRange{Min: 500 * time.Microsecond, Max: 2 * time.Millisecond},
				}
				return Schedule{
					{At: 200 * time.Millisecond, Kind: EvDefaultFaults, Faults: spike},
					{At: 600 * time.Millisecond, Kind: EvClearFaults},
				}
			},
		},
	}
}
