package ares_test

import (
	"context"
	"testing"
	"time"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/obs"
)

// Per-operation wire budgets: what one steady Get or Put costs on a
// zero-delay simulated network, in payload bytes and messages summed over
// every service (read-config and the DAP phases). The network is quiesced
// before every counter read, so straggler replies count in the op that sent
// them, and each client is warmed first, so no row pays first-touch costs.
// Byte and message counts on this path are exact, so a change that grows a
// body or adds a round fails here. Allocation budgets of the individual
// bodies live with them (TestBudgetBodyAllocs in internal/abd,
// internal/treas and internal/recon).

// The budgets. Before binary bodies the same rows measured: ABD Get 4 770 B,
// Put 4 989 B; TREAS Get 5.0140× and Put 1.6793× the value. Before the read
// floor a warmed TREAS Get measured 5.0009×, as a cold one still does: each
// of its five list replies carries every element the server holds (three
// of |v|/k after three writes), where a warmed reader's carry one.
const (
	abdGetBudget       = 3136 // B; 18 messages: read-config, query, read-config
	abdPutBudget       = 3136 // B; 24 messages: read-config, query-tag, write, read-config
	treasGetBudget     = 1.6671
	treasColdGetBudget = 5.0009
	treasPutBudget     = 1.667
	treasGetMsgs       = 30 // read-config, query-list, read-config to 5 servers
	treasPutMsgs       = 40 // read-config, query-tag, put-data, read-config
)

// opCost is the traffic of one operation, and how many of its bodies took
// the gob fallback.
type opCost struct{ bytes, msgs, gob int64 }

// measureOp runs op between two quiesced counter reads.
func measureOp(t *testing.T, net *ares.Network, op func() error) opCost {
	t.Helper()
	net.Quiesce()
	net.Counters().Reset()
	gob := gobFallbacks()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	net.Quiesce()
	return opCost{
		bytes: net.Counters().TotalBytes(""),
		msgs:  net.Counters().TotalMessages(""),
		gob:   gobFallbacks() - gob,
	}
}

// gobFallbacks reads the process-wide count of bodies that took the gob
// path.
func gobFallbacks() int64 {
	return obs.Default.Snapshot().Counters["ares_codec_gob_fallbacks_total"]
}

// steadyOps builds a zero-delay cluster on c0, warms one client with three
// write/read pairs of value, and measures one more Get and one more Put.
// cold is the first Get of a second client that has done nothing yet, taken
// between the two: a TREAS reader without a floor, which fetches whole Lists.
func steadyOps(t *testing.T, c0 ares.Config, value ares.Value) (get, put, cold opCost) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	net := ares.NewSimNetwork()
	cluster, err := ares.NewCluster(c0, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	client, err := cluster.NewClient("w1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := client.WriteValue(ctx, value); err != nil {
			t.Fatal(err)
		}
		if _, err := client.ReadValue(ctx); err != nil {
			t.Fatal(err)
		}
	}
	get = measureOp(t, net, func() error { _, err := client.ReadValue(ctx); return err })
	fresh, err := cluster.NewClient("r1")
	if err != nil {
		t.Fatal(err)
	}
	cold = measureOp(t, net, func() error { _, err := fresh.ReadValue(ctx); return err })
	put = measureOp(t, net, func() error { return client.WriteValue(ctx, value) })
	for _, c := range []opCost{get, put, cold} {
		if c.gob != 0 {
			t.Errorf("%d bodies took the gob fallback in one steady op", c.gob)
		}
	}
	return get, put, cold
}

// TestBudget pins the steady per-op rows: ABD n=3 with a 1 KiB value in
// bytes and messages, TREAS [5,3] δ=4 with a 256 KiB value in bytes per
// value byte and messages, for a warmed client and for a cold reader. No
// steady op may send a body through the gob fallback.
func TestBudget(t *testing.T) {
	t.Run("abd-n3-1KiB", func(t *testing.T) {
		get, put, _ := steadyOps(t, ares.Config{
			ID: "c0", Algorithm: ares.ABD, Servers: []ares.ProcessID{"s1", "s2", "s3"},
		}, make(ares.Value, 1<<10))
		t.Logf("Get %d B in %d messages; Put %d B in %d messages", get.bytes, get.msgs, put.bytes, put.msgs)
		if get.bytes > abdGetBudget || get.msgs != 18 {
			t.Errorf("Get: %d B in %d messages, budget %d B in 18", get.bytes, get.msgs, abdGetBudget)
		}
		if put.bytes > abdPutBudget || put.msgs != 24 {
			t.Errorf("Put: %d B in %d messages, budget %d B in 24", put.bytes, put.msgs, abdPutBudget)
		}
	})

	t.Run("treas-5-3-d4-256KiB", func(t *testing.T) {
		value := make(ares.Value, 256<<10)
		get, put, cold := steadyOps(t, ares.Config{
			ID: "c0", Algorithm: ares.TREAS, K: 3, Delta: 4,
			Servers: []ares.ProcessID{"s1", "s2", "s3", "s4", "s5"},
		}, value)
		x := func(c opCost) float64 { return float64(c.bytes) / float64(len(value)) }
		t.Logf("Get %d B (%.5f× the value) in %d messages; Put %d B (%.5f×) in %d messages; cold Get %d B (%.5f×) in %d messages",
			get.bytes, x(get), get.msgs, put.bytes, x(put), put.msgs, cold.bytes, x(cold), cold.msgs)
		for _, row := range []struct {
			name   string
			c      opCost
			budget float64
			msgs   int64
		}{
			{"Get", get, treasGetBudget, treasGetMsgs},
			{"Put", put, treasPutBudget, treasPutMsgs},
			{"cold Get", cold, treasColdGetBudget, treasGetMsgs},
		} {
			if x(row.c) > row.budget || row.c.msgs != row.msgs {
				t.Errorf("%s: %.5f× the value in %d messages; budget %.4f× in %d", row.name, x(row.c), row.c.msgs, row.budget, row.msgs)
			}
		}
	})
}
