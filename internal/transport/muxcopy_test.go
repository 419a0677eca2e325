package transport

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/obs"
)

// Tests for the copy-once mux data path: every chunk is read from the
// socket straight into the buffer that keeps it, PUTSTREAM entries are
// assembled in leased buffers of their exact size, and a buffered
// response is allocated once at the length its first frame announces.

// staticStore serves one shared block for every Get without copying
// it, so an allocation count sees only the transport.
type staticStore struct {
	blockstore.Store
	block []byte
}

func (s *staticStore) Get(context.Context, string, int) ([]byte, error) { return s.block, nil }

// discardStore accepts every Put without keeping (or copying) it.
type discardStore struct{ blockstore.Store }

func (discardStore) Put(context.Context, string, int, []byte) error { return nil }

// allocBytesPerOp runs op once to warm up (dial the mux, fill the
// pools), then n times with the GC off so pooled buffers stay pooled,
// and returns the heap bytes the process allocated per run — client
// and server together.
func allocBytesPerOp(n int, op func()) float64 {
	op()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestGetAllocatesResponseOnce: a 256 KiB Get over a loopback mux pair
// allocates its response once, at its final size, and little else —
// no per-frame read buffers, no append regrowth.
func TestGetAllocatesResponseOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const size = 256 << 10
	block := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(block)
	client := startMuxPair(t, &staticStore{Store: blockstore.NewMemStore(), block: block}, ClientOptions{MuxConns: 1})
	ctx := context.Background()
	per := allocBytesPerOp(20, func() {
		got, err := client.Get(ctx, "seg", 0)
		if err != nil || len(got) != size {
			t.Fatalf("Get = %d bytes, %v", len(got), err)
		}
	})
	if limit := 1.1 * size; per > limit {
		t.Fatalf("a %d-byte Get allocated %.0f bytes per op, want at most %.0f", size, per, limit)
	}
	t.Logf("%.0f bytes allocated per %d-byte Get (%.3fx)", per, size, per/size)
}

// TestPutStreamServerAllocatesNoFrameBuffers: a 16 × 256 KiB
// PUTSTREAM moves over 32 full frames, yet allocates less per call
// than one frame buffer — entries land in recycled leases and no frame
// is read into a fresh buffer.
func TestPutStreamServerAllocatesNoFrameBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	client := startMuxPair(t, discardStore{blockstore.NewMemStore()}, ClientOptions{MuxConns: 1})
	puts := make([]blockstore.BatchPut, 16)
	for i := range puts {
		puts[i] = blockstore.BatchPut{Index: i, Data: bytes.Repeat([]byte{byte(i)}, 256<<10)}
	}
	ctx := context.Background()
	// The entry pool grows to the stream's peak of live entries, which
	// timing decides; over 50 calls that growth is a small share.
	per := allocBytesPerOp(50, func() {
		failed := 0
		if err := client.PutStream(ctx, "seg", puts, func(_ int, err error) {
			if err != nil {
				failed++
			}
		}); err != nil || failed > 0 {
			t.Fatalf("PutStream = %v with %d failed entries", err, failed)
		}
	})
	if limit := float64(muxChunkSize); per > limit {
		t.Fatalf("a 16 x 256 KiB PutStream allocated %.0f bytes per call, want under %.0f", per, limit)
	}
	t.Logf("%.0f bytes allocated per 16 x 256 KiB PutStream", per)
}

// TestPutStreamEntryLargerThanWindow is the regression test for the
// PUTSTREAM deadlock: an entry of 1 MiB + 16 B on the wire (8 B entry
// header, 8 B share envelope, a 1 MiB block) under the default 1 MiB
// window used to stall both sides, because credit came back only per
// whole entry. The borrowing entry's credit now returns as it lands.
func TestPutStreamEntryLargerThanWindow(t *testing.T) {
	mem := blockstore.NewMemStore()
	client := startMuxPair(t, mem, ClientOptions{MuxConns: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(2))
	puts := make([]blockstore.BatchPut, 3)
	for i := range puts {
		data := make([]byte, 1<<20+8)
		rng.Read(data)
		puts[i] = blockstore.BatchPut{Index: i, Data: data}
	}
	acks := make([]error, len(puts))
	if err := client.PutStream(ctx, "big", puts, func(i int, err error) { acks[i] = err }); err != nil {
		t.Fatalf("PutStream: %v", err)
	}
	for i, p := range puts {
		if acks[i] != nil {
			t.Fatalf("entry %d: %v", i, acks[i])
		}
		got, err := mem.Get(ctx, "big", p.Index)
		if err != nil || !bytes.Equal(got, p.Data) {
			t.Fatalf("entry %d stored %d bytes (%v), want its %d", i, len(got), err, len(p.Data))
		}
	}
}

// TestMuxConcurrentGetAndPutStreamByteExact runs many GET and
// PUTSTREAM streams at once on one connection, with a window small
// enough that most entries exceed it, and checks every payload byte
// for byte. Under -race it also shows that no consumer ever holds the
// connection's reused read buffers.
func TestMuxConcurrentGetAndPutStreamByteExact(t *testing.T) {
	mem := blockstore.NewMemStore()
	client := startMuxPair(t, mem, ClientOptions{MuxConns: 1, MuxWindow: 64 << 10})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	blocks := make([][]byte, 24)
	for i := range blocks {
		blocks[i] = make([]byte, rng.Intn(300<<10))
		rng.Read(blocks[i])
		if err := mem.Put(ctx, "pre", i, blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	streams := make([][]blockstore.BatchPut, 4)
	for s := range streams {
		for i := 0; i < 6; i++ {
			data := make([]byte, rng.Intn(200<<10))
			rng.Read(data)
			streams[s] = append(streams[s], blockstore.BatchPut{Index: i, Data: data})
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				i := (g*7 + k*5) % len(blocks)
				got, err := client.Get(ctx, "pre", i)
				if err != nil {
					errs <- fmt.Errorf("get %d: %w", i, err)
					return
				}
				if !bytes.Equal(got, blocks[i]) {
					errs <- fmt.Errorf("get %d: %d bytes differ from the stored %d", i, len(got), len(blocks[i]))
					return
				}
			}
		}(g)
	}
	for s, puts := range streams {
		wg.Add(1)
		go func(seg string, puts []blockstore.BatchPut) {
			defer wg.Done()
			var ackErr error
			if err := client.PutStream(ctx, seg, puts, func(i int, err error) {
				if err != nil && ackErr == nil {
					ackErr = fmt.Errorf("%s entry %d: %w", seg, i, err)
				}
			}); err != nil {
				errs <- fmt.Errorf("%s: %w", seg, err)
				return
			}
			if ackErr != nil {
				errs <- ackErr
				return
			}
			for _, p := range puts {
				got, err := client.Get(ctx, seg, p.Index)
				if len(p.Data) == 0 && err == nil && len(got) == 0 {
					continue
				}
				if err != nil || !bytes.Equal(got, p.Data) {
					errs <- fmt.Errorf("%s entry %d read back %d bytes (%v), want %d", seg, p.Index, len(got), err, len(p.Data))
					return
				}
			}
		}(fmt.Sprintf("put-%d", s), puts)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxColdStartWaitsForEstablishment: the first burst of a fresh
// client rides the mux. Callers that arrive while the first MUXUP is
// in flight wait for it instead of falling back to v1.
func TestMuxColdStartWaitsForEstablishment(t *testing.T) {
	mem := blockstore.NewMemStore()
	if err := mem.Put(context.Background(), "seg", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := NewServer(mem, ServerOptions{Obs: reg})
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
	ctx := context.Background()
	if client.capabilities(ctx)&capMux == 0 {
		t.Fatal("server did not advertise capMux")
	}
	const burst = 8
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Get(ctx, "seg", 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("transport_server_mux_streams_total").Value(); got != burst {
		t.Fatalf("%d of %d cold-start Gets rode the mux", got, burst)
	}
	if got := reg.Counter("transport_server_get_total").Value(); got != burst {
		t.Fatalf("server served %d Gets, want %d", got, burst)
	}
}

// TestReadRespNeedsAnnouncedLength: a buffered response is read into
// one buffer of the length its first frame announces; response bytes
// without an announced length, or past it, are protocol violations.
func TestReadRespNeedsAnnouncedLength(t *testing.T) {
	frames := func(heads [][]byte, chunks [][]byte) *muxReader {
		var wire bytes.Buffer
		for i := range heads {
			if err := writeMuxFrame(&lockedWriter{w: &wire}, muxKindResp, 1, heads[i], chunks[i]); err != nil {
				t.Fatal(err)
			}
		}
		return newMuxReader(&wire)
	}
	read := func(r *muxReader, s *muxStream) error {
		for {
			f, err := r.next()
			if err != nil {
				return nil // every frame consumed
			}
			if err := s.readResp(r, f); err != nil {
				return err
			}
		}
	}

	s := &muxStream{}
	r := frames([][]byte{respLenHead(0, statusOK, 7), {muxFlagFIN, statusOK}}, [][]byte{[]byte("pay"), []byte("load")})
	if err := read(r, s); err != nil || string(s.buf) != "payload" || cap(s.buf) != 7 {
		t.Fatalf("sized response = %q (cap %d), %v", s.buf, cap(s.buf), err)
	}

	r = frames([][]byte{{muxFlagFIN, statusOK}}, [][]byte{[]byte("x")})
	if err := read(r, &muxStream{}); err == nil {
		t.Fatal("response bytes without an announced length accepted")
	}

	r = frames([][]byte{respLenHead(0, statusOK, 3), {muxFlagFIN, statusOK}}, [][]byte{[]byte("abc"), []byte("d")})
	if err := read(r, &muxStream{}); err == nil {
		t.Fatal("response bytes past the announced length accepted")
	}
}
