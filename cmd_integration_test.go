package ares_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCmdBinariesEndToEnd builds ares-server and ares-cli and exercises a
// real multi-process deployment over TCP loopback: three server processes,
// a write, a read, a reconfiguration onto three more processes, and a final
// read through the new configuration. A keyed leg drives one key of a
// template deployment on the other three processes through ares-cli -key,
// and reads its chain back through the ops surface.
func TestCmdBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	t.Parallel()

	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		return out
	}
	serverBin := build("ares-server")
	cliBin := build("ares-cli")

	// Fixed loopback ports for a static address book.
	base := 17710
	ids := []string{"s1", "s2", "s3", "s4", "s5", "s6"}
	var bookParts []string
	addr := make(map[string]string, len(ids))
	for i, id := range ids {
		addr[id] = fmt.Sprintf("127.0.0.1:%d", base+i)
		bookParts = append(bookParts, id+"="+addr[id])
	}
	book := strings.Join(bookParts, ",")
	rootSpec := "id=c0;alg=treas;servers=s1,s2,s3;k=2;delta=4"
	nextSpec := "id=c1;alg=treas;servers=s4,s5,s6;k=2;delta=4"
	keyedRoot := "id=kt/{key}/c0;alg=abd;servers=s4,s5,s6"
	keyedNext := "id=kt/{key}/c1;alg=abd;servers=s4,s5,s6"

	var servers []*exec.Cmd
	defer func() {
		for _, s := range servers {
			if s.Process != nil {
				_ = s.Process.Kill()
			}
			_ = s.Wait()
		}
	}()
	opsAddr := fmt.Sprintf("127.0.0.1:%d", base+100)
	keyedOpsAddr := fmt.Sprintf("127.0.0.1:%d", base+101)
	for _, id := range ids {
		args := []string{"-id", id, "-listen", addr[id], "-peers", book}
		switch id {
		case "s1", "s2", "s3":
			args = append(args, "-bootstrap", rootSpec)
		default:
			args = append(args, "-bootstrap", keyedRoot)
		}
		switch id {
		case "s1":
			args = append(args, "-ops-addr", opsAddr)
		case "s4":
			args = append(args, "-ops-addr", keyedOpsAddr)
		}
		cmd := exec.Command(serverBin, args...)
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", id, err)
		}
		servers = append(servers, cmd)
	}
	// Wait for listeners.
	time.Sleep(300 * time.Millisecond)

	cli := func(clientID string, extra ...string) string {
		args := append([]string{"-id", clientID, "-peers", book, "-root", rootSpec, "-timeout", "20s"}, extra...)
		cmd := exec.Command(cliBin, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("ares-cli %v: %v\n%s", extra, err, out)
		}
		return string(out)
	}

	if out := cli("w1", "write", "multi process"); !strings.Contains(out, "ok tag=") {
		t.Fatalf("write output: %s", out)
	}
	if out := cli("r1", "read"); !strings.Contains(out, `value="multi process"`) {
		t.Fatalf("read output: %s", out)
	}
	if out := cli("g1", "-direct", "reconfig", nextSpec); !strings.Contains(out, "ok installed=c1") {
		t.Fatalf("reconfig output: %s", out)
	}
	// A fresh client rooted at c0 discovers c1 and reads through it.
	if out := cli("r2", "read"); !strings.Contains(out, `value="multi process"`) {
		t.Fatalf("read after reconfig: %s", out)
	}

	// The ops surface of s1, scraped through the CLI's metrics verb: the
	// traffic above must show up as nonzero wire counters on the server.
	out := cli("m1", "-ops", opsAddr, "metrics")
	if !strings.Contains(out, "ares_wire_encodes_total") || strings.Contains(out, "ares_wire_encodes_total 0\n") {
		t.Fatalf("ops metrics scrape missing live wire counters:\n%s", out)
	}

	// Keyed leg: -key binds -root and reconfig's target to key k1 (the
	// later -root overrides the one cli passes first).
	keyed := func(clientID string, extra ...string) string {
		return cli(clientID, append([]string{"-root", keyedRoot, "-key", "k1"}, extra...)...)
	}
	if out := keyed("kw1", "write", "keyed value"); !strings.Contains(out, "ok tag=") {
		t.Fatalf("keyed write output: %s", out)
	}
	if out := keyed("kg1", "reconfig", keyedNext); !strings.Contains(out, "ok installed=kt/k1/c1") {
		t.Fatalf("keyed reconfig output: %s", out)
	}
	if out := keyed("kr1", "read"); !strings.Contains(out, `value="keyed value"`) {
		t.Fatalf("keyed read after reconfig: %s", out)
	}
	if out := cli("km1", "-ops", keyedOpsAddr, "chain", "k1"); !strings.Contains(out, "kt/k1/c0") || !strings.Contains(out, "kt/k1/c1") {
		t.Fatalf("ops chain for k1 lacks the successor:\n%s", out)
	}
}

// TestCmdKillDashNineAndRecover is the end-to-end durability test: real
// ares-server processes with -data-dir are killed with SIGKILL — no shutdown
// hook, no flush — and restarted on the same directories. Every write the
// cluster acknowledged before the kill must be readable afterwards, recovered
// purely from WAL + snapshot state on disk.
func TestCmdKillDashNineAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	t.Parallel()

	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		return out
	}
	serverBin := build("ares-server")
	cliBin := build("ares-cli")

	base := 17750
	ids := []string{"s1", "s2", "s3"}
	var bookParts []string
	addr := make(map[string]string, len(ids))
	for i, id := range ids {
		addr[id] = fmt.Sprintf("127.0.0.1:%d", base+i)
		bookParts = append(bookParts, id+"="+addr[id])
	}
	book := strings.Join(bookParts, ",")
	rootSpec := "id=c0;alg=treas;servers=s1,s2,s3;k=2;delta=4"
	dataRoot := t.TempDir()

	var servers []*exec.Cmd
	kill := func() {
		for _, s := range servers {
			if s.Process != nil {
				_ = s.Process.Signal(syscall.SIGKILL)
			}
			_ = s.Wait()
		}
		servers = nil
	}
	defer kill()
	spawn := func() {
		for _, id := range ids {
			cmd := exec.Command(serverBin,
				"-id", id, "-listen", addr[id], "-peers", book,
				"-bootstrap", rootSpec,
				"-data-dir", filepath.Join(dataRoot, id), "-fsync=false")
			if err := cmd.Start(); err != nil {
				t.Fatalf("starting %s: %v", id, err)
			}
			servers = append(servers, cmd)
		}
		time.Sleep(300 * time.Millisecond) // wait for recovery + listeners
	}

	cli := func(clientID string, extra ...string) string {
		args := append([]string{"-id", clientID, "-peers", book, "-root", rootSpec, "-timeout", "20s"}, extra...)
		cmd := exec.Command(cliBin, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("ares-cli %v: %v\n%s", extra, err, out)
		}
		return string(out)
	}

	spawn()
	// A few acknowledged writes; the last one is what a read must return.
	for i := 0; i < 5; i++ {
		if out := cli("w1", "write", fmt.Sprintf("durable-%d", i)); !strings.Contains(out, "ok tag=") {
			t.Fatalf("write %d output: %s", i, out)
		}
	}

	// SIGKILL every server — the processes get no chance to flush or say
	// goodbye — then restart them on the same data directories.
	kill()
	spawn()

	if out := cli("r1", "read"); !strings.Contains(out, `value="durable-4"`) {
		t.Fatalf("read after kill -9 + recovery: %s", out)
	}
	// The recovered cluster keeps taking writes.
	if out := cli("w2", "write", "post-recovery"); !strings.Contains(out, "ok tag=") {
		t.Fatalf("post-recovery write output: %s", out)
	}
	if out := cli("r2", "read"); !strings.Contains(out, `value="post-recovery"`) {
		t.Fatalf("post-recovery read output: %s", out)
	}
}
