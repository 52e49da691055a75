// Command ares-cli is the client companion of ares-server: it performs a
// write, read, or reconfiguration against a running multi-process
// deployment.
//
// Usage:
//
//	ares-cli -id w1 -peers "s1=...,s2=...,s3=..." \
//	  -root "id=c0;alg=treas;servers=s1,s2,s3;k=2;delta=4" \
//	  write "hello world"
//
//	ares-cli -id r1 -peers ... -root ... read
//
//	ares-cli -id g1 -peers ... -root ... -direct \
//	  reconfig "id=c1;alg=treas;servers=s4,s5,s6;k=2;delta=4"
//
// Against a per-key deployment (servers bootstrapped with a template such
// as "id=kt/{key}/c0;alg=abd;servers=s1,s2,s3"), -key K addresses one key's
// register: -root and reconfig's target are both bound to K, the way
// ObjectStore.ReconfigureKey binds them.
//
//	ares-cli -id g1 -peers ... -root "id=kt/{key}/c0;..." -key k1 \
//	  reconfig "id=kt/{key}/c1;alg=abd;servers=s4,s5,s6"
//
// Against a server started with -ops-addr, the ops verbs read the admin
// HTTP API instead of the data plane (no -peers/-root needed):
//
//	ares-cli -ops 127.0.0.1:9090 metrics
//	ares-cli -ops 127.0.0.1:9090 chain k1
//	ares-cli -ops 127.0.0.1:9090 keystate k1
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/spec"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		id      = flag.String("id", "cli", "process ID of this client")
		peers   = flag.String("peers", "", "address book: id=addr,... (required)")
		root    = flag.String("root", "", "bootstrap configuration spec (required)")
		direct  = flag.Bool("direct", false, "use §5 direct state transfer for reconfig")
		key     = flag.String("key", "", "object key: bind -root and reconfig's target to it (for template deployments)")
		timeout = flag.Duration("timeout", 30*time.Second, "operation timeout")
		opsAddr = flag.String("ops", "", "ops HTTP address of a server started with -ops-addr (for metrics|chain|keystate)")
	)
	flag.Parse()

	// The ops verbs go over the admin HTTP API and need only -ops.
	switch flag.Arg(0) {
	case "metrics", "chain", "keystate":
		if *opsAddr == "" {
			return fmt.Errorf("%s requires -ops (the server's -ops-addr address)", flag.Arg(0))
		}
		return runOps(*opsAddr, *timeout, flag.Args())
	}

	if *peers == "" || *root == "" || flag.NArg() < 1 {
		flag.Usage()
		return fmt.Errorf("-peers, -root and an operation (write|read|reconfig) are required")
	}

	book, err := spec.ParseBook(*peers)
	if err != nil {
		return err
	}
	c0, err := spec.Parse(*root)
	if err != nil {
		return err
	}
	if *key != "" {
		c0 = c0.ForKey(*key)
	}
	rpc := ares.NewTCPClient(ares.ProcessID(*id), book)
	defer rpc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch op := flag.Arg(0); op {
	case "write":
		if flag.NArg() < 2 {
			return fmt.Errorf("write requires a value argument")
		}
		client, err := ares.NewRemoteClient(ares.ProcessID(*id), c0, rpc)
		if err != nil {
			return err
		}
		t, err := client.Write(ctx, ares.Value(flag.Arg(1)))
		if err != nil {
			return err
		}
		fmt.Printf("ok tag=%v\n", t)
	case "read":
		client, err := ares.NewRemoteClient(ares.ProcessID(*id), c0, rpc)
		if err != nil {
			return err
		}
		pair, err := client.Read(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("tag=%v value=%q\n", pair.Tag, string(pair.Value))
	case "reconfig":
		if flag.NArg() < 2 {
			return fmt.Errorf("reconfig requires a configuration spec argument")
		}
		next, err := spec.Parse(flag.Arg(1))
		if err != nil {
			return err
		}
		if *key != "" {
			next = next.ForKey(*key)
		}
		g, err := ares.NewRemoteReconfigurer(ares.ProcessID(*id), c0, rpc, ares.ReconOptions{DirectTransfer: *direct})
		if err != nil {
			return err
		}
		installed, err := g.Reconfig(ctx, next)
		if err != nil {
			return err
		}
		fmt.Printf("ok installed=%s sequence=%v\n", installed.ID, g.Sequence())
	default:
		return fmt.Errorf("unknown operation %q (want write|read|reconfig, or an ops verb with -ops)", op)
	}
	return nil
}

// runOps executes one admin-API verb against a server's ops surface.
func runOps(addr string, timeout time.Duration, args []string) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: timeout}

	get := func(path string, q url.Values) ([]byte, int, error) {
		u := base + path
		if len(q) > 0 {
			u += "?" + q.Encode()
		}
		resp, err := client.Get(u)
		if err != nil {
			return nil, 0, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return body, resp.StatusCode, err
	}

	verb := args[0]
	switch verb {
	case "metrics":
		body, status, err := get("/metrics", nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("metrics: HTTP %d", status)
		}
		_, err = os.Stdout.Write(body)
		return err
	case "chain", "keystate":
		if len(args) < 2 {
			return fmt.Errorf("%s requires a key argument", verb)
		}
		body, _, err := get("/admin/"+verb, url.Values{"key": {args[1]}})
		if err != nil {
			return err
		}
		return printAdminResult(body)
	}
	return fmt.Errorf("unknown ops verb %q", verb)
}

// printAdminResult renders one admin verb response: the result JSON
// (indented) on success, the error message as a failure otherwise.
func printAdminResult(body []byte) error {
	var vr struct {
		OK     bool            `json:"ok"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &vr); err != nil {
		return fmt.Errorf("malformed admin response %q: %w", body, err)
	}
	if !vr.OK {
		return fmt.Errorf("admin: %s", vr.Error)
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, vr.Result, "", "  "); err != nil {
		return err
	}
	fmt.Println(pretty.String())
	return nil
}
