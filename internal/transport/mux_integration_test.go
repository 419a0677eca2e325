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

	"repro/internal/blockstore"
	"repro/internal/obs"
)

// stallingStore blocks Get on one segment until released (or the
// request's context ends), letting tests park a mux stream server-side
// at an exact point.
type stallingStore struct {
	blockstore.Store
	segment string
	gate    chan struct{}
}

func (s *stallingStore) Get(ctx context.Context, segment string, index int) ([]byte, error) {
	if segment == s.segment {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.Store.Get(ctx, segment, index)
}

// startMuxPair runs a server over the given store and returns a
// client connected with the given options, proposing mux settings
// proposal.
func startMuxPair(t *testing.T, store blockstore.Store, copts ClientOptions, proposal muxSettings) *Client {
	t.Helper()
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	if copts.Obs == nil {
		copts.Obs = obs.NewRegistry() // the tests assert on mux counters
	}
	client, err := dial(ln.Addr().String(), copts, proposal)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestMuxInterleavedStreamReassembly drives many concurrent exchanges
// with mixed payload sizes through one mux connection with a window
// small enough to force chunking and flow-control stalls, and checks
// every stream reassembles to exactly its own payload.
func TestMuxInterleavedStreamReassembly(t *testing.T) {
	// A tiny window: every sizable block needs several chunks.
	client := startMuxPair(t, blockstore.NewMemStore(), ClientOptions{MaxConns: 1},
		muxSettings{window: 8 << 10, maxStreams: defaultMuxStreams})
	ctx := context.Background()

	const streams = 24
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			size := (i * 7919) % (96 << 10) // 0 .. ~96 KB, several windows each
			data := bytes.Repeat([]byte{byte(i + 1)}, size)
			seg := fmt.Sprintf("seg-%d", i)
			if err := client.Put(ctx, seg, i, data); err != nil {
				errs <- fmt.Errorf("put %d: %w", i, err)
				return
			}
			got, err := client.Get(ctx, seg, i)
			if err != nil {
				errs <- fmt.Errorf("get %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("stream %d reassembled %d bytes, want %d", i, len(got), len(data))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if v := client.m.muxDials.Value(); v != 1 {
		t.Errorf("muxDials = %d, want 1 (all streams share one conn)", v)
	}
	if v := client.m.muxStreams.Value(); v < 2*streams {
		t.Errorf("muxStreams = %d, want >= %d (one per put + one per get)", v, 2*streams)
	}
	if sent, st := client.m.muxFramesSent.Value(), client.m.muxStreams.Value(); sent <= st {
		t.Errorf("muxFramesSent = %d with %d streams: payloads were not chunked", sent, st)
	}
}

// TestMuxStreamTimeoutDoesNotPoisonConn is the regression test for
// per-stream timeout isolation: a stalled GET times out on every
// attempt of its retry budget, while concurrent and subsequent streams
// on the SAME mux connection keep working.
func TestMuxStreamTimeoutDoesNotPoisonConn(t *testing.T) {
	mem := blockstore.NewMemStore()
	gate := make(chan struct{})
	store := &stallingStore{Store: mem, segment: "slow", gate: gate}
	defer close(gate)
	client := startMuxPair(t, store, ClientOptions{
		MaxConns:       1,
		RequestTimeout: 250 * time.Millisecond,
	}, muxDefaults)
	ctx := context.Background()
	if err := client.Put(ctx, "fast", 0, []byte("quick")); err != nil {
		t.Fatal(err)
	}
	if err := client.Put(ctx, "slow", 0, []byte("never")); err != nil {
		t.Fatal(err)
	}

	slowErr := make(chan error, 1)
	go func() {
		_, err := client.Get(ctx, "slow", 0)
		slowErr <- err
	}()

	// While the slow stream is parked server-side, sibling streams on
	// the same connection must complete well within its timeout.
	for i := 0; i < 5; i++ {
		if _, err := client.Get(ctx, "fast", 0); err != nil {
			t.Fatalf("concurrent get %d alongside stalled stream: %v", i, err)
		}
	}

	select {
	case err := <-slowErr:
		if !errors.Is(err, ErrRequestTimeout) {
			t.Fatalf("stalled get err = %v, want ErrRequestTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled get never timed out")
	}

	// The connection survived the abandoned stream.
	if got, err := client.Get(ctx, "fast", 0); err != nil || string(got) != "quick" {
		t.Fatalf("get after stream timeout = %q, %v", got, err)
	}
	if v := client.m.muxDials.Value(); v != 1 {
		t.Errorf("muxDials = %d, want 1: the timeout must not burn the connection", v)
	}
	// A GET is idempotent: the first attempt and each retry time out.
	if v := client.m.muxStreamTimeouts.Value(); v != 1+maxRetries {
		t.Errorf("muxStreamTimeouts = %d, want %d (1 + maxRetries)", v, 1+maxRetries)
	}
	if v := client.m.muxConnFailures.Value(); v != 0 {
		t.Errorf("muxConnFailures = %d, want 0", v)
	}
}

// rawMuxPeer is a hand-rolled client for hostile-input tests: it
// exchanges prefaces and then speaks raw frames.
type rawMuxPeer struct {
	t    *testing.T
	conn net.Conn
}

func dialRawMux(t *testing.T, addr string) *rawMuxPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(encodePreface(muxSettings{window: defaultMuxWindow, maxStreams: 8})); err != nil {
		t.Fatal(err)
	}
	if _, err := readPreface(conn); err != nil {
		t.Fatalf("bad preface answer: %v", err)
	}
	return &rawMuxPeer{t: t, conn: conn}
}

func (p *rawMuxPeer) sendReq(id uint32, op byte, segment string, index int, payload []byte) {
	p.t.Helper()
	body, err := encodeRequest(op, segment, index, payload)
	if err != nil {
		p.t.Fatal(err)
	}
	w := &lockedWriter{w: p.conn}
	if err := writeMuxFrame(w, muxKindReq, id, []byte{muxFlagFIN}, body); err != nil {
		p.t.Fatal(err)
	}
}

// readFrameFor reads frames until one for the given stream arrives.
func (p *rawMuxPeer) readFrameFor(id uint32) testFrame {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		body, err := readFrame(p.conn)
		if err != nil {
			p.t.Fatalf("readFrame waiting for stream %d: %v", id, err)
		}
		f, err := decodeMuxFrame(body)
		if err != nil {
			p.t.Fatalf("decodeMuxFrame: %v", err)
		}
		if f.id == id {
			return f
		}
	}
}

// TestMuxDuplicateStreamIDResetsOnlyThatStream sends a second request
// on a stream id whose request half already finished: the server must
// RESET that stream and keep serving the others on the connection.
func TestMuxDuplicateStreamIDResetsOnlyThatStream(t *testing.T) {
	mem := blockstore.NewMemStore()
	gate := make(chan struct{})
	defer close(gate)
	store := &stallingStore{Store: mem, segment: "slow", gate: gate}
	if err := mem.Put(context.Background(), "fast", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	peer := dialRawMux(t, ln.Addr().String())
	// Stream 7 parks in the store; its id is now in use.
	peer.sendReq(7, opGet, "slow", 0, nil)
	// Reusing the id while the stream is open is a protocol violation
	// scoped to that stream.
	peer.sendReq(7, opPing, "-", 0, nil)
	if f := peer.readFrameFor(7); f.kind != muxKindReset {
		t.Fatalf("duplicate stream id answered with kind %d, want RESET", f.kind)
	}
	// The connection is still healthy: a fresh stream round-trips.
	peer.sendReq(8, opGet, "fast", 0, nil)
	var got []byte
	for {
		f := peer.readFrameFor(8)
		if f.kind != muxKindResp {
			t.Fatalf("stream 8 got kind %d, want RESP", f.kind)
		}
		if f.status != statusOK {
			t.Fatalf("stream 8 status = %d", f.status)
		}
		got = append(got, f.chunk...)
		if f.flags&muxFlagFIN != 0 {
			break
		}
	}
	if string(got) != "payload" {
		t.Fatalf("stream 8 payload = %q", got)
	}
}

// TestMuxUnknownFrameKindKillsConnection: a frame kind that survives
// no decode path is connection-fatal (unlike per-stream violations).
func TestMuxUnknownFrameKindKillsConnection(t *testing.T) {
	srv := NewServer(blockstore.NewMemStore(), ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	peer := dialRawMux(t, ln.Addr().String())
	// kind 9 does not exist; the server must drop the connection.
	if err := writeFrame(peer.conn, []byte{9, 0, 0, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	peer.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(peer.conn); err == nil {
		t.Fatal("connection survived an unknown frame kind")
	}
}
