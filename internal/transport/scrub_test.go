package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"

	"repro/internal/blockstore"
)

// startChecksumServer runs a server whose store holds sealed shares and
// scrubs their envelopes, exposing both the wrapped store (what the
// wire sees) and the raw inner store (so tests can rot blocks beneath
// the checksums).
func startChecksumServer(t *testing.T) (*Client, *blockstore.MemStore) {
	t.Helper()
	inner := blockstore.NewMemStore()
	srv := NewServer(blockstore.WithChecksums(inner), ServerOptions{})
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
	return client, inner
}

// TestScrubRoundTrip verifies the SCRUB op end-to-end: a clean
// segment scrubs empty, then corrupting two blocks beneath the
// server's checksum layer surfaces exactly those indices.
func TestScrubRoundTrip(t *testing.T) {
	client, inner := startChecksumServer(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := client.Put(ctx, "seg", i, sealed("seg", i, byte(i), 0xAA)); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := client.Scrub(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("clean segment scrubbed bad=%v", bad)
	}
	// Rot blocks 1 and 3 directly in the inner store, beneath the
	// checksum frame.
	for _, i := range []int{1, 3} {
		framed, err := inner.Get(ctx, "seg", i)
		if err != nil {
			t.Fatal(err)
		}
		rotten := append([]byte(nil), framed...)
		rotten[len(rotten)-1] ^= 0xFF
		if err := inner.Put(ctx, "seg", i, rotten); err != nil {
			t.Fatal(err)
		}
	}
	bad, err = client.Scrub(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(bad) != "[1 3]" {
		t.Fatalf("Scrub = %v, want [1 3]", bad)
	}
	// An empty segment scrubs empty, not as an error.
	bad, err = client.Scrub(ctx, "nothing")
	if err != nil || len(bad) != 0 {
		t.Fatalf("Scrub(empty) = %v, %v", bad, err)
	}
}

// sealed returns payload sealed as block index of segment.
func sealed(segment string, index int, payload ...byte) []byte {
	return blockstore.SealShare(append(make([]byte, blockstore.ShareOverhead), payload...), segment, index)
}

// TestScrubCatchesMisfiledShares: over the SCRUB op, an entry holding
// another index's intact share, or the same index of another segment,
// is reported corrupt while its neighbours scrub clean.
func TestScrubCatchesMisfiledShares(t *testing.T) {
	client, _ := startChecksumServer(t)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := client.Put(ctx, "seg", i, sealed("seg", i, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Entry 1 gets share 2's bytes; entry 3 gets block 3 of "other".
	if err := client.Put(ctx, "seg", 1, sealed("seg", 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := client.Put(ctx, "seg", 3, sealed("other", 3, 3)); err != nil {
		t.Fatal(err)
	}
	bad, err := client.Scrub(ctx, "seg")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(bad) != "[1 3]" {
		t.Fatalf("Scrub = %v, want [1 3]", bad)
	}
}

// TestScrubUnsupportedStatus checks that a server without a
// ChecksumStore answers SCRUB with a status mapping to ErrScrubUnsupported
// rather than a generic failure.
func TestScrubUnsupportedStatus(t *testing.T) {
	client, _ := startServer(t, ServerOptions{}) // bare MemStore, no checksums
	_, err := client.Scrub(context.Background(), "seg")
	if !errors.Is(err, blockstore.ErrScrubUnsupported) {
		t.Fatalf("Scrub err = %v, want ErrScrubUnsupported", err)
	}
}

// TestScrubCanceledContext confirms caller cancellation wins over the
// idempotent-retry loop.
func TestScrubCanceledContext(t *testing.T) {
	client, _ := startChecksumServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Scrub(ctx, "seg"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Scrub err = %v, want context.Canceled", err)
	}
}
