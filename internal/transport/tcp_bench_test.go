package transport

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/ares-storage/ares/internal/types"
)

// benchEchoServer starts an echo server and a client wired to it for one
// benchmark.
func benchEchoServer(b *testing.B) (*TCPClient, func()) {
	b.Helper()
	srv, err := NewTCPServer("s1", "127.0.0.1:0", echoHandler(nil))
	if err != nil {
		b.Fatal(err)
	}
	client := NewTCPClient("c1", StaticBook(map[types.ProcessID]string{"s1": srv.Addr()}))
	return client, func() {
		client.Close()
		_ = srv.Close()
	}
}

// BenchmarkTCPInvoke measures request/response round trips over one
// connection, sequentially and with concurrent invokers. The concurrent
// cases are the pipelining demonstration: all goroutines multiplex one
// socket, so ops/s must scale with parallelism instead of serializing
// behind a per-connection lock (the pre-PR 6 behaviour).
func BenchmarkTCPInvoke(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5A}, 1024)
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			client, cleanup := benchEchoServer(b)
			defer cleanup()
			ctx := context.Background()
			// Warm the connection so dial cost stays out of the loop.
			if _, err := client.Invoke(ctx, "s1", Request{Payload: payload}); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / workers
			for w := 0; w < workers; w++ {
				n := per
				if w == 0 {
					n += b.N % workers
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := client.Invoke(ctx, "s1", Request{Service: "bench", Type: "echo", Payload: payload}); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
		})
	}
}
