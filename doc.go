// Package ares is a Go implementation of ARES — Adaptive, Reconfigurable,
// Erasure-coded, atomic Storage (Cadambe, Nicolaou, Konwar, Prakash, Lynch,
// Médard; ICDCS 2019) — together with TREAS, the paper's two-round
// erasure-coded algorithm for multi-writer multi-reader atomic registers.
//
// # What this library provides
//
//   - An atomic (linearizable) read/write register emulated over a set of
//     crash-prone servers connected by an asynchronous network.
//   - Two interchangeable per-configuration storage algorithms, expressed
//     as data access primitives (DAPs): ABD (replication) and TREAS
//     (erasure coding with ⌈(n+k)/2⌉ quorums and bounded server state).
//   - Live reconfiguration: the server set, the algorithm, and the code
//     parameters can all change while reads and writes continue, with
//     consensus (Paxos) deciding each successor configuration.
//   - The ARES-TREAS optimization (§5 of the paper): during reconfiguration,
//     coded state moves directly between old and new servers without passing
//     through the reconfiguration client.
//   - ObjectStore, the §1 composability claim as a multi-object layer: one
//     independent register (its own configuration chain) per key over a
//     shared server pool, with sharded bookkeeping, pooled client
//     endpoints, batched MultiPut/MultiGet fan-out, and per-key live
//     reconfiguration.
//
// # Quick start
//
//	net := ares.NewSimNetwork()
//	c0 := ares.Config{
//		ID:        "c0",
//		Algorithm: ares.TREAS,
//		Servers:   []ares.ProcessID{"s1", "s2", "s3", "s4", "s5"},
//		K:         3,
//		Delta:     4,
//	}
//	cluster, err := ares.NewCluster(c0, net)
//	// handle err
//	defer cluster.Close()
//	w, _ := cluster.NewClient("w1")
//	tag, err := w.Write(ctx, ares.Value("hello"))
//	r, _ := cluster.NewClient("r1")
//	pair, err := r.Read(ctx)
//
// See the examples directory for reconfiguration, a composed key-value
// store, and the replication-versus-erasure-coding cost comparison; see
// DESIGN.md for the architecture and EXPERIMENTS.md for the reproduction of
// the paper's analytical results.
package ares
