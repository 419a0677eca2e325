package transport

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
)

// The client's pool is its connections times their negotiated stream
// limit: requests beyond it wait for a free stream.
func TestClientPoolCapBlocksAndRecovers(t *testing.T) {
	store := blockstore.NewSlowStore(blockstore.NewMemStore(),
		blockstore.SlowProfile{BaseLatency: 100 * time.Millisecond}, 1)
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := dial(ln.Addr().String(), ClientOptions{MaxConns: 2}, muxSettings{window: defaultMuxWindow, maxStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	// Six concurrent puts through two single-stream connections: all
	// must finish.
	var wg sync.WaitGroup
	errCh := make(chan error, 6)
	start := time.Now()
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := client.Put(ctx, "s", i, []byte{byte(i)}); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// With a cap of 2 and 100ms per op, 6 ops take >= ~300ms.
	if time.Since(start) < 250*time.Millisecond {
		t.Fatalf("pool cap not enforced: %v", time.Since(start))
	}
}

func TestClientPoolWaiterHonorsContext(t *testing.T) {
	store := blockstore.NewSlowStore(blockstore.NewMemStore(),
		blockstore.SlowProfile{BaseLatency: 5 * time.Second}, 1)
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := dial(ln.Addr().String(), ClientOptions{MaxConns: 1}, muxSettings{window: defaultMuxWindow, maxStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Occupy the single stream.
	go client.Put(context.Background(), "s", 0, []byte("slow"))
	time.Sleep(50 * time.Millisecond)
	// A second request must give up when its context expires while
	// waiting for a stream.
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := client.Put(ctx, "s", 1, []byte("x")); err == nil {
		t.Fatal("pool waiter ignored context")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("pool waiter stuck for %v", time.Since(start))
	}
}

func TestCloseUnblocksPoolWaiters(t *testing.T) {
	store := blockstore.NewSlowStore(blockstore.NewMemStore(),
		blockstore.SlowProfile{BaseLatency: 3 * time.Second}, 1)
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := dial(ln.Addr().String(), ClientOptions{MaxConns: 1}, muxSettings{window: defaultMuxWindow, maxStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	go client.Put(context.Background(), "s", 0, []byte("slow"))
	time.Sleep(50 * time.Millisecond)
	errCh := make(chan error, 1)
	go func() {
		errCh <- client.Put(context.Background(), "s", 1, []byte("x"))
	}()
	time.Sleep(50 * time.Millisecond)
	client.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("put through closed client succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock pool waiter")
	}
}

func TestServeOnClosedServer(t *testing.T) {
	srv := NewServer(blockstore.NewMemStore(), ServerOptions{})
	srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve on closed server succeeded")
	}
}

func TestServerAddr(t *testing.T) {
	srv := NewServer(blockstore.NewMemStore(), ServerOptions{})
	if srv.Addr() != nil {
		t.Fatal("Addr before Serve should be nil")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	time.Sleep(20 * time.Millisecond)
	if srv.Addr() == nil {
		t.Fatal("Addr after Serve is nil")
	}
}

// TestEntryBufPoolSurvivesOddSizes: entry buffers of many distinct
// sizes pass through the pool, yet the common share size still leases
// without allocating afterwards — no early mix of sizes, hostile or
// not, turns pooling off — and every lease has exactly its size.
func TestEntryBufPoolSurvivesOddSizes(t *testing.T) {
	for n := 1; n <= 1<<20; n = n*3 + 1 {
		b := leaseEntryBuf(n)
		if len(*b) != n {
			t.Fatalf("leaseEntryBuf(%d) has length %d", n, len(*b))
		}
		releaseEntryBuf(b)
	}
	const share = 64<<10 + 13
	for _, n := range []int{share, share - 1000, share} {
		b := leaseEntryBuf(n)
		if len(*b) != n {
			t.Fatalf("leaseEntryBuf(%d) has length %d", n, len(*b))
		}
		releaseEntryBuf(b)
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	allocs := testing.AllocsPerRun(100, func() {
		releaseEntryBuf(leaseEntryBuf(share))
	})
	if allocs != 0 {
		t.Fatalf("leasing a %d-byte entry after odd sizes allocated %.0f times per run, want 0", share, allocs)
	}
}
