package ops

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/ares-storage/ares/internal/obs"
)

func testServer(ready *atomic.Bool) *Server {
	r := obs.NewRegistry()
	r.Counter("ares_test_ops_total", "ops").Add(7)
	return &Server{
		Registry: r,
		Ready:    ready.Load,
		Info:     func() map[string]any { return map[string]any{"id": "s1"} },
	}
}

// TestHealthzGating is the satellite's readiness contract: the listener
// answers while the server is still recovering, but /healthz must say
// 503 until the ready flag flips — and /metrics must work the whole time.
func TestHealthzGating(t *testing.T) {
	var ready atomic.Bool
	ts := httptest.NewServer(testServer(&ready).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-recovery healthz = %d, want 503", resp.StatusCode)
	}

	// Metrics are scrapeable even before readiness (a starting server's
	// recovery counters are exactly what an operator wants to watch).
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ares_test_ops_total 7") {
		t.Fatalf("metrics during startup: status=%d body=%q", resp.StatusCode, body)
	}

	ready.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("post-recovery healthz: status=%d body=%q", resp.StatusCode, body)
	}
}

func TestPprofIndexServes(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	ts := httptest.NewServer(testServer(&ready).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status=%d", resp.StatusCode)
	}
}

type verbResp struct {
	OK     bool            `json:"ok"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func doVerb(t *testing.T, method, u string, form url.Values) (int, verbResp) {
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
	var vr verbResp
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatalf("decoding %s: %v", u, err)
	}
	return resp.StatusCode, vr
}

// TestAdminVerbs exercises each verb's routing, method enforcement, key
// validation, and error mapping against stub hooks.
func TestAdminVerbs(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	s := testServer(&ready)
	s.Admin = AdminHooks{
		Chain: func(_ context.Context, key string) (any, error) {
			if key == "down" {
				return nil, errors.New("quorum unavailable")
			}
			return map[string]any{"key": key, "chain": []string{"c0", "c1"}}, nil
		},
		KeyState: func(key string) (any, error) {
			if key == "missing" {
				return nil, BadRequestError{Msg: "unknown key"}
			}
			return map[string]any{"key": key}, nil
		},
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, vr := doVerb(t, http.MethodGet, ts.URL+"/admin/chain", url.Values{"key": {"k1"}})
	if status != 200 || !vr.OK || !strings.Contains(string(vr.Result), "c1") {
		t.Fatalf("chain: status=%d resp=%+v", status, vr)
	}

	// Missing key is a 400 before the hook runs.
	status, vr = doVerb(t, http.MethodGet, ts.URL+"/admin/chain", url.Values{})
	if status != 400 || vr.OK {
		t.Fatalf("chain without key: status=%d resp=%+v", status, vr)
	}

	// Wrong method is rejected.
	status, vr = doVerb(t, http.MethodPost, ts.URL+"/admin/chain", url.Values{"key": {"k"}})
	if status != http.StatusMethodNotAllowed || vr.OK {
		t.Fatalf("POST chain: status=%d resp=%+v", status, vr)
	}

	// Hook BadRequestError maps to 400, other errors to 500.
	status, vr = doVerb(t, http.MethodGet, ts.URL+"/admin/keystate", url.Values{"key": {"missing"}})
	if status != 400 || vr.Error != "unknown key" {
		t.Fatalf("keystate missing: status=%d resp=%+v", status, vr)
	}
	status, vr = doVerb(t, http.MethodGet, ts.URL+"/admin/chain", url.Values{"key": {"down"}})
	if status != 500 || vr.Error != "quorum unavailable" {
		t.Fatalf("chain down: status=%d resp=%+v", status, vr)
	}

	// The surface has no write verbs: reconfiguration is a client protocol.
	for _, path := range []string{"/admin/reconfigure", "/admin/retire", "/admin/forget"} {
		resp, err := http.PostForm(ts.URL+path, url.Values{"key": {"k"}})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s: status=%d, want 404", path, resp.StatusCode)
		}
	}

	// A verb without a hook is a 400 naming the problem.
	s2 := testServer(&ready)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	status, vr = doVerb(t, http.MethodGet, ts2.URL+"/admin/chain", url.Values{"key": {"k"}})
	if status != 400 || vr.OK {
		t.Fatalf("unhooked chain: status=%d resp=%+v", status, vr)
	}
}

func TestListenAndMetricsJSON(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	addr, stop, err := Listen("127.0.0.1:0", testServer(&ready))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["ares_test_ops_total"] != 7 {
		t.Fatalf("snapshot = %+v", snap.Counters)
	}
}
