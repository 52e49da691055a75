// Command erasure-vs-replication measures the paper's §1 motivating
// numbers: storing a 1 MiB object on a replicated (ABD) versus an
// erasure-coded (TREAS) deployment, comparing storage at rest and bytes on
// the wire per operation.
//
// The paper's example: with 3 servers, ABD stores 3× the data and moves a
// full copy per operation, while an [3, 2] MDS code stores 1.5× and moves
// ~n/k fragments.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/benchutil"
)

const valueSize = 1 << 20 // 1 MiB

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	table := benchutil.NewTable("deployment", "storage (MiB)", "write wire (MiB)", "read wire (MiB)")

	deployments := []struct {
		name string
		conf ares.Config
	}{
		{"ABD n=3 (replication)", ares.Config{
			ID: "c0", Algorithm: ares.ABD,
			Servers: []ares.ProcessID{"a1", "a2", "a3"},
		}},
		{"TREAS [3,2] δ=1", ares.Config{
			ID: "c0", Algorithm: ares.TREAS, K: 2, Delta: 1,
			Servers: []ares.ProcessID{"t1", "t2", "t3"},
		}},
		{"TREAS [5,3] δ=1", ares.Config{
			ID: "c0", Algorithm: ares.TREAS, K: 3, Delta: 1,
			Servers: []ares.ProcessID{"u1", "u2", "u3", "u4", "u5"},
		}},
	}

	for _, d := range deployments {
		net := ares.NewSimNetwork()
		cluster, err := ares.NewCluster(d.conf, net)
		if err != nil {
			return err
		}
		defer cluster.Close()
		client, err := cluster.NewClient("w1")
		if err != nil {
			return err
		}
		value := make(ares.Value, valueSize)

		// One write, measured. Quiesce before each reset and read: a quorum
		// op returns before its straggler replies land, and those must be
		// counted in the op that sent them, not the next one.
		net.Quiesce()
		net.Counters().Reset()
		if err := client.WriteValue(ctx, value); err != nil {
			return err
		}
		net.Quiesce()
		writeBytes := net.Counters().TotalBytes(string(d.conf.Algorithm))

		// One read, measured.
		net.Counters().Reset()
		if _, err := client.ReadValue(ctx); err != nil {
			return err
		}
		net.Quiesce()
		readBytes := net.Counters().TotalBytes(string(d.conf.Algorithm))

		// Storage at rest across all servers.
		var storage int
		for _, s := range d.conf.Servers {
			host, ok := cluster.Host(s)
			if !ok {
				continue
			}
			storage += host.StorageBytes()
		}

		table.AddRow(d.name, mib(storage), mib(int(writeBytes)), mib(int(readBytes)))
	}

	fmt.Printf("object size: 1 MiB\n\n")
	table.Render(os.Stdout)
	fmt.Println("\nreplication stores n copies and ships full values;")
	fmt.Println("TREAS stores (δ+1)·n/k fragments and ships n/k per write (Theorem 3).")
	return nil
}

func mib(b int) float64 { return float64(b) / (1 << 20) }
