package ares_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/ops"
)

// TestOpsAdminRoundTrip runs the full operational loop against a live TCP
// deployment: start three durable servers with a per-key template, serve
// the ops surface off one of them, then drive chain → reconfigure → chain
// through the admin HTTP API and confirm the data plane agrees — a value
// written before the admin reconfiguration must still read back after it.
func TestOpsAdminRoundTrip(t *testing.T) {
	t.Parallel()
	tmpl := ares.Config{
		ID:        "opsrt/{key}/c0",
		Algorithm: ares.ABD,
		Servers:   []ares.ProcessID{"opsrt-s1", "opsrt-s2", "opsrt-s3"},
	}

	book := ares.AddressBook{}
	var servers []*ares.Server
	defer func() {
		for _, s := range servers {
			if err := s.Close(); err != nil {
				t.Errorf("close %s: %v", s.ID(), err)
			}
		}
	}()
	for _, id := range tmpl.Servers {
		// Durability on: the scrape assertions below want live WAL counters.
		srv, _, err := ares.NewServerWithDurability(id, "127.0.0.1:0", book,
			ares.Durability{Dir: t.TempDir(), Fsync: false})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		book[id] = srv.Addr()
	}
	for _, srv := range servers {
		if err := srv.Install(tmpl); err != nil {
			t.Fatal(err)
		}
	}

	opsAddr, stopOps, err := ops.Listen("127.0.0.1:0", servers[0].OpsServer(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer stopOps()
	base := "http://" + opsAddr

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A value through the ordinary data plane, rooted at the key's derived
	// initial configuration — the same derivation the admin verbs use.
	const key = "k1"
	c0 := tmpl.ForKey(key)
	wRPC := ares.NewTCPClient("opsrt-w1", book)
	defer wRPC.Close()
	w, err := ares.NewRemoteClient("opsrt-w1", c0, wRPC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(ctx, ares.Value("before admin reconfig")); err != nil {
		t.Fatal(err)
	}

	// Chain verb: one finalized entry, the derived c0.
	chain := adminCall(t, http.MethodGet, base+"/admin/chain", url.Values{"key": {key}})
	if !strings.Contains(string(chain), "opsrt/k1/c0") || !strings.Contains(string(chain), "finalized") {
		t.Fatalf("initial chain = %s", chain)
	}

	// Reconfigure verb: propose a concrete successor through the admin API.
	next := "id=opsrt-k1-c1;alg=abd;servers=opsrt-s1,opsrt-s2,opsrt-s3"
	rec := adminCall(t, http.MethodPost, base+"/admin/reconfigure",
		url.Values{"key": {key}, "spec": {next}})
	if !strings.Contains(string(rec), "opsrt-k1-c1") {
		t.Fatalf("reconfigure result = %s", rec)
	}

	// The chain verb must now see the successor...
	chain = adminCall(t, http.MethodGet, base+"/admin/chain", url.Values{"key": {key}})
	if !strings.Contains(string(chain), "opsrt-k1-c1") {
		t.Fatalf("post-reconfig chain = %s", chain)
	}
	// ...and the data plane must still serve the pre-reconfig value.
	rRPC := ares.NewTCPClient("opsrt-r1", book)
	defer rRPC.Close()
	r, err := ares.NewRemoteClient("opsrt-r1", c0, rRPC)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := r.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(pair.Value) != "before admin reconfig" {
		t.Fatalf("read %q after admin reconfiguration", pair.Value)
	}

	// KeyState verb reports the server-local view.
	ks := adminCall(t, http.MethodGet, base+"/admin/keystate", url.Values{"key": {key}})
	if !strings.Contains(string(ks), "opsrt-s1") || !strings.Contains(string(ks), "initial_config") {
		t.Fatalf("keystate = %s", ks)
	}

	// Forget drops the cached admin client; a follow-up chain rebuilds one.
	fg := adminCall(t, http.MethodPost, base+"/admin/forget", url.Values{"key": {key}})
	if !strings.Contains(string(fg), "true") {
		t.Fatalf("forget = %s", fg)
	}
	chain = adminCall(t, http.MethodGet, base+"/admin/chain", url.Values{"key": {key}})
	if !strings.Contains(string(chain), "opsrt-k1-c1") {
		t.Fatalf("chain after forget = %s", chain)
	}

	// The acceptance bar for the metrics surface: one scrape shows live
	// instruments from every instrumented package (transport, core,
	// keystate, store) because the whole process shares one registry.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{
		"ares_codec_encodes_total",      // transport
		"ares_client_write_ops_total",   // core
		"ares_wal_appends_total",        // keystate
		"ares_store_read_ops_total",     // store
		"ares_phase_seconds",            // transport broadcast histograms
		"ares_host_materialized_states", // core host gauges
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	// The write and the WAL really happened, so their counters are nonzero.
	for _, prefix := range []string{"ares_client_write_ops_total ", "ares_wal_appends_total "} {
		if !scrapeNonzero(string(body), prefix) {
			t.Errorf("/metrics has zero %s", strings.TrimSpace(prefix))
		}
	}
}

// TestOpsLateBinding covers the ares-server startup order: the ops surface
// serves before the Server exists (healthz 503, admin 400, metrics live),
// and flips ready once bind attaches a started server.
func TestOpsLateBinding(t *testing.T) {
	t.Parallel()
	surface, bind := ares.NewOpsServer()
	addr, stop, err := ops.Listen("127.0.0.1:0", surface)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	base := "http://" + addr

	status := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/healthz"); got != http.StatusServiceUnavailable {
		t.Fatalf("pre-bind healthz = %d, want 503", got)
	}
	if got := status("/admin/chain?key=k"); got != http.StatusBadRequest {
		t.Fatalf("pre-bind admin = %d, want 400", got)
	}
	if got := status("/metrics"); got != http.StatusOK {
		t.Fatalf("pre-bind metrics = %d, want 200", got)
	}

	srv, err := ares.NewServer("opslb-s1", "127.0.0.1:0", ares.AddressBook{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bind(srv)
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("post-bind healthz = %d, want 200", got)
	}
}

// adminCall performs one admin verb and returns the raw result JSON,
// failing the test on transport errors or ok=false.
func adminCall(t *testing.T, method, u string, form url.Values) json.RawMessage {
	t.Helper()
	var (
		resp *http.Response
		err  error
	)
	if method == http.MethodPost {
		resp, err = http.PostForm(u, form)
	} else {
		resp, err = http.Get(u + "?" + form.Encode())
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vr struct {
		OK     bool            `json:"ok"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatalf("decoding %s: %v", u, err)
	}
	if resp.StatusCode != http.StatusOK || !vr.OK {
		t.Fatalf("%s %s: status=%d error=%q", method, u, resp.StatusCode, vr.Error)
	}
	return vr.Result
}

// scrapeNonzero reports whether the exposition contains a sample for the
// exact series prefix with a value other than 0.
func scrapeNonzero(body, prefix string) bool {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(rest) != "0"
		}
	}
	return false
}
