package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/core"
	"github.com/ares-storage/ares/internal/obs"
	"github.com/ares-storage/ares/internal/transport"
)

// cluster is a set of spawned ares-server processes on loopback TCP, each
// with its own ops HTTP listener (and data directory, when durable). The
// spawn/ready/stop shape follows cmd/ares-bench's -tcp suite, which is
// package main and cannot be imported.
type cluster struct {
	ids      []ares.ProcessID
	book     ares.AddressBook
	opsAddrs []string
	dir      string // holds <id>.log and, when durable, data/<id>/
	bin      string
	argv     [][]string
	procs    []*exec.Cmd
	// spawned is when the first server was exec'd — the start of setup_s.
	spawned time.Time
}

// live tracks the clusters with running processes, so an interrupted harness
// can take its servers down with it (see killOnSignal).
var live = struct {
	sync.Mutex
	clusters map[*cluster]bool
}{clusters: make(map[*cluster]bool)}

// killOnSignal makes SIGINT/SIGTERM kill every spawned server before the
// harness exits: a benchmark that is timed out must not leave five servers
// running under the next one.
func killOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		live.Lock()
		for c := range live.clusters {
			for _, cmd := range c.procs {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
		}
		os.Exit(1)
	}()
}

// freeLoopbackAddrs reserves n distinct loopback ports by binding and
// releasing them; the window before a server rebinds is acceptable on a
// bench host.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	var listeners []net.Listener
	defer func() {
		for _, ln := range listeners {
			_ = ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// spawnCluster starts n servers under dir and returns once all are exec'd;
// call awaitReady before using them.
func spawnCluster(bin, dir string, n int, durable bool) (*cluster, error) {
	addrs, err := freeLoopbackAddrs(2 * n)
	if err != nil {
		return nil, err
	}
	c := &cluster{ids: serverIDs(n), book: make(ares.AddressBook, n), dir: dir, bin: bin}
	var peers []string
	for i, id := range c.ids {
		c.book[id] = addrs[i]
		peers = append(peers, fmt.Sprintf("%s=%s", id, addrs[i]))
	}
	for i, id := range c.ids {
		ops := addrs[n+i]
		c.opsAddrs = append(c.opsAddrs, ops)
		args := []string{"-id", string(id), "-listen", addrs[i], "-peers", strings.Join(peers, ","), "-ops-addr", ops}
		if durable {
			args = append(args, "-data-dir", filepath.Join(dir, "data", string(id)), "-fsync=true")
		}
		c.argv = append(c.argv, args)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := c.start(); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// start execs every server with its recorded command line, appending output
// to <dir>/<id>.log.
func (c *cluster) start() error {
	live.Lock()
	defer live.Unlock()
	live.clusters[c] = true
	c.spawned = time.Now()
	for i, args := range c.argv {
		logFile, err := os.OpenFile(c.logPath(i), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		cmd := exec.Command(c.bin, args...)
		cmd.Stdout = logFile
		cmd.Stderr = logFile
		err = cmd.Start()
		_ = logFile.Close() // the child holds its own descriptor
		if err != nil {
			return fmt.Errorf("starting %s: %w", c.ids[i], err)
		}
		c.procs = append(c.procs, cmd)
	}
	return nil
}

func (c *cluster) logPath(i int) string { return filepath.Join(c.dir, string(c.ids[i])+".log") }

// awaitReady pings every server's control service until it answers; any
// response proves recovery is done and the data plane is listening.
func (c *cluster) awaitReady(rpc transport.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range c.ids {
		for {
			if err := ping(rpc, id, 500*time.Millisecond); err == nil {
				break
			} else if time.Now().After(deadline) {
				return fmt.Errorf("server %s not ready after 30s: %v\n%s", id, err, c.logTails())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

func ping(rpc transport.Client, dst ares.ProcessID, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_, err := rpc.Invoke(ctx, dst, transport.Request{Service: core.CtlServiceName, Config: core.CtlConfigKey, Type: "ping"})
	return err
}

// kill SIGKILLs and reaps every server: no shutdown hook, no flush.
func (c *cluster) kill() {
	live.Lock()
	defer live.Unlock()
	for _, cmd := range c.procs {
		_ = cmd.Process.Kill()
	}
	for _, cmd := range c.procs {
		_ = cmd.Wait()
	}
	c.procs = nil
	delete(live.clusters, c)
}

// stop asks every server to shut down (SIGINT), escalates to SIGKILL after
// a grace period, and reaps them all.
func (c *cluster) stop() {
	for _, cmd := range c.procs {
		_ = cmd.Process.Signal(os.Interrupt)
	}
	done := make(chan struct{})
	go func() {
		for _, cmd := range c.procs {
			_ = cmd.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		for _, cmd := range c.procs {
			_ = cmd.Process.Kill()
		}
		<-done
	}
	live.Lock()
	c.procs = nil
	delete(live.clusters, c)
	live.Unlock()
}

// logTails returns the last lines of every server's log, for diagnostics.
func (c *cluster) logTails() string {
	var b strings.Builder
	for i, id := range c.ids {
		data, err := os.ReadFile(c.logPath(i))
		if err != nil {
			continue
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) > 20 {
			lines = lines[len(lines)-20:]
		}
		fmt.Fprintf(&b, "--- %s ---\n%s\n", id, strings.Join(lines, "\n"))
	}
	return b.String()
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU returns the CPU time (user+system) a process has used, read from
// /proc/<pid>/stat. A process that is gone or a zombie is an error: a
// server died under the benchmark.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

func parseProcStat(stat string) (time.Duration, error) {
	// The command name (field 2) is parenthesised and may contain spaces;
	// fields are counted from after its closing parenthesis.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat %q", stat)
	}
	if f[0] == "Z" || f[0] == "X" {
		return 0, fmt.Errorf("process exited (state %s)", f[0])
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// serverCPU sums procCPU over the cluster; an error names the dead server.
func (c *cluster) serverCPU() (time.Duration, error) {
	var total time.Duration
	for i, cmd := range c.procs {
		d, err := procCPU(cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("server %s died early: %v\n%s", c.ids[i], err, c.logTails())
		}
		total += d
	}
	return total, nil
}

// peakRSS reads VmHWM (peak resident set) of a process in bytes.
func peakRSS(pid string) (int64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", rest)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// peakRSSTotal is Σ server VmHWM + this process's own.
func (c *cluster) peakRSSTotal() (int64, error) {
	total, err := peakRSS("self")
	if err != nil {
		return 0, err
	}
	for _, cmd := range c.procs {
		rss, err := peakRSS(strconv.Itoa(cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += rss
	}
	return total, nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serverScrape is the sum over servers of what their ops surfaces report.
type serverScrape struct {
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]obs.HistSnapshot
	mallocs  int64
}

var scrapeClient = &http.Client{Timeout: 10 * time.Second}

// scrape reads every server's /metrics.json and the Mallocs line of its
// heap profile header, and sums them.
func (c *cluster) scrape() (serverScrape, error) {
	out := serverScrape{counters: map[string]int64{}, gauges: map[string]int64{}, hists: map[string]obs.HistSnapshot{}}
	for i, addr := range c.opsAddrs {
		var snap obs.Snapshot
		if err := getJSON("http://"+addr+"/metrics.json", &snap); err != nil {
			return out, fmt.Errorf("scraping %s: %w", c.ids[i], err)
		}
		for k, v := range snap.Counters {
			out.counters[k] += v
		}
		for k, v := range snap.Gauges {
			out.gauges[k] += v
		}
		for k, h := range snap.Histograms {
			out.hists[k] = addHist(out.hists[k], h)
		}
		m, err := scrapeMallocs("http://" + addr + "/debug/pprof/heap?debug=1")
		if err != nil {
			return out, fmt.Errorf("scraping %s heap profile: %w", c.ids[i], err)
		}
		out.mallocs += m
	}
	return out, nil
}

func getJSON(url string, v any) error {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeMallocs pulls "# Mallocs = N" out of a debug=1 heap profile, the
// only place a server's cumulative allocation count is visible from
// outside.
func scrapeMallocs(url string) (int64, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# Mallocs = "); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no Mallocs line", url)
}

// addHist sums two snapshots of same-bounds histograms.
func addHist(a, b obs.HistSnapshot) obs.HistSnapshot {
	if len(a.Counts) == 0 {
		b.Counts = append([]int64(nil), b.Counts...)
		return b
	}
	for i := range a.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}

// histDelta is cur − prev for one histogram.
func histDelta(prev, cur obs.HistSnapshot) obs.HistSnapshot {
	if len(prev.Counts) == 0 {
		return cur
	}
	d := obs.HistSnapshot{Bounds: cur.Bounds, Counts: make([]int64, len(cur.Counts)), Count: cur.Count - prev.Count, Sum: cur.Sum - prev.Sum}
	for i := range cur.Counts {
		d.Counts[i] = cur.Counts[i] - prev.Counts[i]
	}
	return d
}

// histP50 estimates the median of a bucketed histogram in nanoseconds by
// interpolating linearly inside the bucket that holds the middle sample.
// (HistSnapshot.Quantile returns the bucket's upper bound, which moves only
// when the median crosses a bucket edge.)
func histP50(h obs.HistSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := float64(h.Count) / 2
	var cum float64
	for i, n := range h.Counts {
		if cum+float64(n) >= rank && n > 0 {
			var lo, hi float64
			if i > 0 {
				lo = float64(h.Bounds[i-1])
			}
			if i < len(h.Bounds) {
				hi = float64(h.Bounds[i])
			} else {
				return lo // overflow bucket: the last finite bound is a floor
			}
			return lo + (hi-lo)*(rank-cum)/float64(n)
		}
		cum += float64(n)
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}
