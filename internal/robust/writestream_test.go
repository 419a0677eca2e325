package robust

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/transport"
)

// streamOptions is the small chunked geometry most tests here use:
// 2 KB blocks, 8 KB chunks -> K=4 per full chunk.
func streamOptions() Options {
	return Options{BlockBytes: 2 << 10, ChunkBytes: 8 << 10}
}

func TestWriteFromChunkedRoundTrip(t *testing.T) {
	c, _ := newTestClient(t, 6, streamOptions())
	ctx := context.Background()
	data := randData(50<<10+123, 9) // 6 full 8 KB chunks + a 2171-byte tail

	ws, err := c.WriteFrom(ctx, "stream", bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Committed < ws.N {
		t.Fatalf("committed %d < N %d", ws.Committed, ws.N)
	}
	if ws.FirstCommit <= 0 || ws.FirstCommit > ws.Duration {
		t.Fatalf("first-commit latency %v outside (0, %v]", ws.FirstCommit, ws.Duration)
	}

	seg, err := c.meta.LookupSegment("stream")
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Chunks) != 7 {
		t.Fatalf("chunks = %d, want 7", len(seg.Chunks))
	}
	if seg.ChunkStride <= 0 {
		t.Fatalf("chunk stride = %d, want > 0", seg.ChunkStride)
	}
	var sumSize int64
	var sumK, sumN int
	for _, ch := range seg.Chunks {
		sumSize += ch.Size
		sumK += ch.K
		sumN += ch.N
	}
	if sumSize != int64(len(data)) {
		t.Fatalf("chunk sizes sum to %d, want %d", sumSize, len(data))
	}
	if sumK != seg.Coding.K || sumN != seg.Coding.N {
		t.Fatalf("chunk K/N sums (%d/%d) != coding (%d/%d)", sumK, sumN, seg.Coding.K, seg.Coding.N)
	}

	got, rs, err := c.Read(ctx, "stream")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data differs from streamed input")
	}
	if rs.Received < rs.K {
		t.Fatalf("received %d < K %d", rs.Received, rs.K)
	}
}

func TestWriteFromUnknownSize(t *testing.T) {
	c, _ := newTestClient(t, 5, streamOptions())
	ctx := context.Background()

	// Unknown size (-1): the pump reads until EOF, including an input
	// that ends exactly on a chunk boundary (the empty-final-read case).
	for _, n := range []int{3 * (8 << 10), 20<<10 + 77} {
		data := randData(n, int64(n))
		name := "anon-" + string(rune('a'+n%26))
		ws, err := c.WriteFrom(ctx, name, bytes.NewReader(data), -1, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if ws.Committed < ws.N {
			t.Fatalf("n=%d: committed %d < N %d", n, ws.Committed, ws.N)
		}
		seg, err := c.meta.LookupSegment(name)
		if err != nil {
			t.Fatal(err)
		}
		if seg.Size != int64(n) {
			t.Fatalf("n=%d: recorded size %d", n, seg.Size)
		}
		got, _, err := c.Read(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d: read data differs", n)
		}
	}
}

func TestWriteChunkedSlicePath(t *testing.T) {
	// Client.Write with ChunkBytes set runs the same chunked engine by
	// slicing the in-memory buffer; the stored layout must match the
	// streamed one and round-trip.
	c, _ := newTestClient(t, 5, streamOptions())
	ctx := context.Background()
	data := randData(30<<10, 4) // 3 full chunks + 6 KB tail

	if _, err := c.Write(ctx, "sliced", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("sliced")
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Chunks) != 4 || seg.ChunkStride <= 0 {
		t.Fatalf("chunks=%d stride=%d, want 4 chunks with positive stride", len(seg.Chunks), seg.ChunkStride)
	}
	got, _, err := c.Read(ctx, "sliced")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data differs")
	}
}

func TestWriteLegacyLayoutUnchanged(t *testing.T) {
	// ChunkBytes=0 (the default) must keep the single-graph layout:
	// no chunk table, no stride, seed derived from the segment name.
	c, _ := newTestClient(t, 5, Options{BlockBytes: 2 << 10})
	ctx := context.Background()
	data := randData(20<<10, 2)

	if _, err := c.Write(ctx, "legacy", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if seg.Chunks != nil || seg.ChunkStride != 0 {
		t.Fatalf("legacy write produced chunked layout: chunks=%d stride=%d", len(seg.Chunks), seg.ChunkStride)
	}
	if seg.Coding.GraphSeed != graphSeed("legacy", int64(len(data))) {
		t.Fatalf("legacy graph seed changed: %d", seg.Coding.GraphSeed)
	}

	// WriteFrom without ChunkBytes falls back to buffering the reader
	// and producing the identical legacy layout.
	if _, err := c.WriteFrom(ctx, "legacy2", bytes.NewReader(data), int64(len(data)), nil); err != nil {
		t.Fatal(err)
	}
	seg2, err := c.meta.LookupSegment("legacy2")
	if err != nil {
		t.Fatal(err)
	}
	if seg2.Chunks != nil || seg2.ChunkStride != 0 {
		t.Fatal("WriteFrom fallback produced chunked layout")
	}
	got, _, err := c.Read(ctx, "legacy2")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fallback read data differs")
	}
}

func TestWriteFromShortInput(t *testing.T) {
	c, stores := newTestClient(t, 4, streamOptions())
	ctx := context.Background()
	data := randData(12<<10, 3)

	// Declared 20 KB, reader delivers 12 KB: the write must fail, leave
	// no metadata, and delete the shares the first chunk already placed.
	_, err := c.WriteFrom(ctx, "short", bytes.NewReader(data), 20<<10, nil)
	if err == nil {
		t.Fatal("short input accepted")
	}
	if !strings.Contains(err.Error(), "short input") {
		t.Fatalf("error %q does not mention short input", err)
	}
	if _, lerr := c.meta.LookupSegment("short"); !errors.Is(lerr, metadata.ErrSegmentNotFound) {
		t.Fatalf("metadata survived a failed stream: %v", lerr)
	}
	for i, ms := range stores {
		if idx, _ := ms.List(ctx, "short"); len(idx) != 0 {
			t.Fatalf("store %d kept %d orphaned shares after failed stream", i, len(idx))
		}
	}
}

func TestWriteChunkedShortWriteCleansUp(t *testing.T) {
	// Four capped stores with room for the first chunk but not the
	// second: the write fails with ErrShortWrite and the first chunk's
	// already-committed shares are deleted, not orphaned.
	opts := streamOptions()
	opts.BlockBytes = 1024
	opts.ChunkBytes = 4096 // K=4, N=16 per chunk
	meta := metadata.NewService()
	c, err := NewClient(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]*capStore, 4)
	for i := range caps {
		caps[i] = newCapStore(5)
		addr := []string{"cap-a", "cap-b", "cap-c", "cap-d"}[i]
		if err := c.AttachStore(addr, caps[i]); err != nil {
			t.Fatal(err)
		}
		meta.RegisterServer(metadata.Server{Addr: addr})
	}

	ctx := context.Background()
	data := randData(8192, 5) // two chunks; 20 total put slots < 32 needed
	_, werr := c.Write(ctx, "capped", data, nil)
	if !errors.Is(werr, ErrShortWrite) {
		t.Fatalf("err = %v, want ErrShortWrite", werr)
	}
	if _, lerr := meta.LookupSegment("capped"); !errors.Is(lerr, metadata.ErrSegmentNotFound) {
		t.Fatalf("metadata survived a short chunked write: %v", lerr)
	}
	for i, cs := range caps {
		if idx, _ := cs.Store.List(ctx, "capped"); len(idx) != 0 {
			t.Fatalf("store %d kept %d shares from the committed chunk", i, len(idx))
		}
	}
}

func TestChunkedRepairHealthUpdate(t *testing.T) {
	// Surviving a lost server takes a share cap: uncapped, the first
	// worker to start can claim a whole chunk in one run.
	opts := streamOptions()
	opts.MaxServerShare = 0.3
	c, _ := newTestClient(t, 5, opts)
	ctx := context.Background()
	data := randData(28<<10, 6) // 3 full chunks + 4 KB tail

	ws, err := c.WriteFrom(ctx, "fixme", bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Lose the biggest holder's shares outright.
	victim, _ := c.store(holdersByShare(ws.PerServer)[0])
	idx, err := victim.List(ctx, "fixme")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range idx {
		if err := victim.Delete(ctx, "fixme", i); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := c.Health(ctx, "fixme")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Missing == 0 {
		t.Fatal("health saw no missing shares after wiping a store")
	}
	if !rep.Decodable {
		t.Fatal("segment undecodable with one lost store; geometry too tight")
	}

	if _, err := c.Repair(ctx, "fixme"); err != nil {
		t.Fatal(err)
	}
	rep, err = c.Health(ctx, "fixme")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Missing != 0 {
		t.Fatalf("repair left %d shares missing", rep.Missing)
	}

	// Patch spanning the chunk 0/1 boundary, then verify both the
	// affected-block accounting and the read-back.
	patch := randData(4<<10, 7)
	off := int64(6 << 10) // last 2 KB of chunk 0 + first 2 KB of chunk 1
	affected, err := c.AffectedBlocks("fixme", off, int64(len(patch)))
	if err != nil {
		t.Fatal(err)
	}
	if affected <= 0 {
		t.Fatalf("affected blocks = %d for a cross-chunk patch", affected)
	}
	if err := c.Update(ctx, "fixme", off, patch); err != nil {
		t.Fatal(err)
	}
	copy(data[off:], patch)
	got, _, err := c.Read(ctx, "fixme")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read after cross-chunk update differs")
	}
}

// slowStore delays every Put so a context cancellation lands while
// workers still hold leased share buffers.
type slowStore struct {
	blockstore.Store
	delay time.Duration
}

func (s *slowStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return ctx.Err()
	}
	return s.Store.Put(ctx, segment, index, data)
}

func TestWriteShareBufLeaseBalance(t *testing.T) {
	ctx := context.Background()

	t.Run("success", func(t *testing.T) {
		before := shareBufLeases.Load()
		c, _ := newTestClient(t, 5, streamOptions())
		data := randData(24<<10, 8)
		if _, err := c.WriteFrom(ctx, "ok", bytes.NewReader(data), int64(len(data)), nil); err != nil {
			t.Fatal(err)
		}
		if got := shareBufLeases.Load(); got != before {
			t.Fatalf("leases drifted %d -> %d after a successful write", before, got)
		}
	})

	t.Run("short write", func(t *testing.T) {
		before := shareBufLeases.Load()
		opts := Options{BlockBytes: 1024, ChunkBytes: 4096}
		meta := metadata.NewService()
		c, err := NewClient(meta, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range []string{"lease-a", "lease-b", "lease-c"} {
			if err := c.AttachStore(addr, newCapStore(3)); err != nil {
				t.Fatal(err)
			}
			meta.RegisterServer(metadata.Server{Addr: addr})
		}
		if _, werr := c.Write(ctx, "starved", randData(8192, 9), nil); werr == nil {
			t.Fatal("capped write unexpectedly succeeded")
		}
		if got := shareBufLeases.Load(); got != before {
			t.Fatalf("leases drifted %d -> %d after a failed write", before, got)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		before := shareBufLeases.Load()
		meta := metadata.NewService()
		c, err := NewClient(meta, streamOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, addr := range []string{"slow-a", "slow-b", "slow-c"} {
			st := &slowStore{Store: blockstore.NewMemStore(), delay: 5 * time.Millisecond}
			if err := c.AttachStore(addr, st); err != nil {
				t.Fatal(err)
			}
			meta.RegisterServer(metadata.Server{Addr: addr})
		}
		wctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		go func() {
			_, werr := c.WriteFrom(wctx, "doomed", bytes.NewReader(randData(64<<10, 10)), 64<<10, nil)
			done <- werr
		}()
		time.Sleep(8 * time.Millisecond) // land mid-chunk
		cancel()
		if werr := <-done; werr == nil {
			// The write may have squeaked through on a fast machine;
			// either way the lease balance below is the real assertion.
			t.Log("canceled write completed before cancellation landed")
		}
		if got := shareBufLeases.Load(); got != before {
			t.Fatalf("leases drifted %d -> %d after a canceled write", before, got)
		}
	})
}

func TestStreamingWriteUsesPutStream(t *testing.T) {
	// End-to-end over real transport: a chunked WriteFrom against mux
	// servers must exercise the PUTSTREAM op (not per-op batches), and
	// the data must round-trip.
	reg := obs.NewRegistry()
	meta := metadata.NewService()
	opts := streamOptions()
	opts.BatchBlocks = 8
	c, err := NewClient(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		srv := transport.NewServer(blockstore.NewMemStore(), transport.ServerOptions{Obs: reg})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		tc, err := transport.Dial(ln.Addr().String(), transport.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tc.Close() })
		if err := c.AttachStore(ln.Addr().String(), tc); err != nil {
			t.Fatal(err)
		}
		meta.RegisterServer(metadata.Server{Addr: ln.Addr().String()})
	}

	ctx := context.Background()
	data := randData(64<<10, 11) // 8 chunks
	ws, err := c.WriteFrom(ctx, "wired", bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Committed < ws.N {
		t.Fatalf("committed %d < N %d", ws.Committed, ws.N)
	}
	got, _, err := c.Read(ctx, "wired")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data differs over transport")
	}
	snap := reg.Snapshot()
	if snap.Counters["transport_server_put_stream_total"] == 0 {
		t.Fatal("no PUTSTREAM ops reached the servers; streaming path not taken")
	}
}
