package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/blockstore"
)

// startServer runs a server over a fresh in-memory store and returns a
// connected client.
func startServer(t *testing.T, opts ServerOptions) (*Client, *blockstore.MemStore) {
	t.Helper()
	store := blockstore.NewMemStore()
	srv := NewServer(store, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, store
}

func TestPutGetRoundTrip(t *testing.T) {
	client, _ := startServer(t, ServerOptions{})
	ctx := context.Background()
	data := bytes.Repeat([]byte("xyz"), 1000)
	if err := client.Put(ctx, "seg", 5, data); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(ctx, "seg", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}
}

func TestGetMissingMapsToErrNotFound(t *testing.T) {
	client, _ := startServer(t, ServerOptions{})
	if _, err := client.Get(context.Background(), "seg", 1); !errors.Is(err, blockstore.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDeleteAndList(t *testing.T) {
	client, _ := startServer(t, ServerOptions{})
	ctx := context.Background()
	for _, i := range []int{9, 2, 5} {
		if err := client.Put(ctx, "s", i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := client.List(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(idx) != "[2 5 9]" {
		t.Fatalf("List = %v", idx)
	}
	if err := client.Delete(ctx, "s", 5); err != nil {
		t.Fatal(err)
	}
	idx, _ = client.List(ctx, "s")
	if fmt.Sprint(idx) != "[2 9]" {
		t.Fatalf("List after delete = %v", idx)
	}
}

func TestEmptyList(t *testing.T) {
	client, _ := startServer(t, ServerOptions{})
	idx, err := client.List(context.Background(), "nothing")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 0 {
		t.Fatalf("List = %v", idx)
	}
}

func TestServerErrorPropagates(t *testing.T) {
	client, _ := startServer(t, ServerOptions{})
	// Empty segment fails store validation server-side.
	if err := client.Put(context.Background(), "", 0, []byte("x")); err == nil {
		t.Fatal("invalid Put succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	client, _ := startServer(t, ServerOptions{})
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				seg := fmt.Sprintf("seg%d", g)
				if err := client.Put(ctx, seg, i, []byte{byte(g), byte(i)}); err != nil {
					errCh <- err
					return
				}
				got, err := client.Get(ctx, seg, i)
				if err != nil {
					errCh <- err
					return
				}
				if got[0] != byte(g) || got[1] != byte(i) {
					errCh <- fmt.Errorf("payload mismatch g=%d i=%d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestContextCancellationAbortsGet(t *testing.T) {
	// A slow store + canceled context: the Get must return promptly.
	mem := blockstore.NewMemStore()
	mem.Put(context.Background(), "s", 0, []byte("x"))
	store := blockstore.NewSlowStore(mem, blockstore.SlowProfile{
		BaseLatency: 5 * time.Second,
	}, 1)
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := Dial(ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Get(ctx, "s", 0)
	if err == nil {
		t.Fatal("canceled Get succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", ClientOptions{}); err == nil {
		t.Fatal("Dial to dead port succeeded")
	}
}

func TestAdmissionBusyResponse(t *testing.T) {
	ctrl, err := admission.NewCapacity(admission.Config{MaxBytes: 4})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := startServer(t, ServerOptions{Admission: ctrl})
	// A PUT bigger than the byte budget is refused outright.
	err = client.Put(context.Background(), "s", 0, []byte("too large"))
	if err == nil || !errors.Is(err, err) /* message-carrying error */ {
		t.Fatalf("over-budget Put = %v", err)
	}
	if got := err.Error(); !bytes.Contains([]byte(got), []byte("busy")) {
		t.Fatalf("expected busy error, got %q", got)
	}
	// A small PUT passes.
	if err := client.Put(context.Background(), "s", 0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	client, _ := startServer(t, ServerOptions{})
	if err := client.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestClientUsableAfterServerRoundTrips(t *testing.T) {
	// Connection reuse: many sequential requests over few connections.
	client, _ := startServer(t, ServerOptions{})
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if err := client.Put(ctx, "s", i, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	client.muxMu.Lock()
	nconns := len(client.muxConns)
	client.muxMu.Unlock()
	if nconns > 2 {
		t.Fatalf("sequential requests opened %d connections", nconns)
	}
}

func TestProtocolEncodingEdgeCases(t *testing.T) {
	if _, err := encodeRequest(opGet, string(make([]byte, 70000)), 0, nil); err == nil {
		t.Fatal("oversized segment accepted")
	}
	if _, err := encodeRequest(opGet, "s", -1, nil); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := decodeRequest([]byte{1, 2}); err == nil {
		t.Fatal("short frame accepted")
	}
	if _, err := decodeRequest([]byte{1, 0, 10, 'a', 0, 0, 0, 0}); err == nil {
		t.Fatal("truncated segment accepted")
	}
	if _, err := decodeIndices([]byte{1, 2, 3}); err == nil {
		t.Fatal("misaligned index list accepted")
	}
	// Round trip.
	body, err := encodeRequest(opPut, "seg", 42, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if req.op != opPut || req.segment != "seg" || req.index != 42 || string(req.payload) != "payload" {
		t.Fatalf("decoded %+v", req)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := writeMuxFrame(&lockedWriter{w: &buf}, muxKindReq, 1, []byte{muxFlagFIN}, make([]byte, MaxFrame)); err == nil || buf.Len() != 0 {
		t.Fatal("oversized frame written")
	}
	// A fake header advertising a huge frame must be rejected.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, muxKindReq, 0, 0, 0, 1, 0})
	if _, err := newMuxReader(&buf).next(); err == nil {
		t.Fatal("oversized inbound frame accepted")
	}
}
