package transport_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/transport"
)

// legacyServer is a hand-rolled single-op RobuSTore block server: it
// speaks only the original PUT/GET/DELETE/LIST/PING ops and answers
// anything newer — CAPS and the batch ops included — with an error
// status, exactly as a server that predates the batch protocol does.
// The wire handling is written against the documented frame layout,
// not the package's own codec, so this also pins the format.
type legacyServer struct {
	ln net.Listener

	mu     sync.Mutex
	blocks map[string][]byte
	ops    map[byte]int // op byte -> times served
	caps   uint32       // nonzero: answer CAPS with this mask (set under mu)
}

func startLegacyServer(t *testing.T) *legacyServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &legacyServer{ln: ln, blocks: make(map[string][]byte), ops: make(map[byte]int)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return s
}

func (s *legacyServer) serve(conn net.Conn) {
	defer conn.Close()
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		if len(body) < 7 {
			return
		}
		op := body[0]
		segLen := int(binary.BigEndian.Uint16(body[1:3]))
		if len(body) < 3+segLen+4 {
			return
		}
		seg := string(body[3 : 3+segLen])
		idx := int(binary.BigEndian.Uint32(body[3+segLen : 3+segLen+4]))
		payload := body[3+segLen+4:]

		status, resp := s.handle(op, seg, idx, payload)
		var out []byte
		out = binary.BigEndian.AppendUint32(out, uint32(1+len(resp)))
		out = append(out, status)
		out = append(out, resp...)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

func (s *legacyServer) handle(op byte, seg string, idx int, payload []byte) (byte, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops[op]++
	key := fmt.Sprintf("%s/%d", seg, idx)
	switch op {
	case 1: // PUT
		s.blocks[key] = append([]byte(nil), payload...)
		return 0, nil
	case 2: // GET
		data, ok := s.blocks[key]
		if !ok {
			return 2, nil // statusNotFound
		}
		return 0, data
	case 3: // DELETE
		delete(s.blocks, key)
		return 0, nil
	case 5: // PING
		return 0, nil
	case 10: // CAPS
		if s.caps != 0 {
			return 0, binary.BigEndian.AppendUint32(nil, s.caps)
		}
		return 1, []byte("unknown op 0x0a")
	default: // LIST, SCRUB, CAPS, batch ops: this server predates them
		return 1, []byte(fmt.Sprintf("unknown op 0x%02x", op))
	}
}

func (s *legacyServer) served(op byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops[op]
}

// TestBatchClientAgainstLegacyServer proves the mixed-version path: a
// batch-speaking client against a single-op server must degrade to
// per-block operations — same results, per-entry errors intact — and
// account the downgrade in transport_client_batch_fallbacks_total.
func TestBatchClientAgainstLegacyServer(t *testing.T) {
	srv := startLegacyServer(t)
	reg := obs.NewRegistry()
	client, err := transport.Dial(srv.ln.Addr().String(), transport.ClientOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	puts := []blockstore.BatchPut{
		{Index: 0, Data: []byte("alpha")},
		{Index: 1, Data: []byte("beta")},
		{Index: 5, Data: []byte("gamma")},
	}
	for i, err := range client.PutBatch(ctx, "seg", puts) {
		if err != nil {
			t.Fatalf("PutBatch entry %d: %v", i, err)
		}
	}

	datas, errs := client.GetBatch(ctx, "seg", []int{0, 1, 5, 9})
	for i, want := range [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")} {
		if errs[i] != nil || !bytes.Equal(datas[i], want) {
			t.Fatalf("GetBatch entry %d: got %q err %v, want %q", i, datas[i], errs[i], want)
		}
	}
	if !errors.Is(errs[3], blockstore.ErrNotFound) {
		t.Fatalf("GetBatch missing entry: got %v, want ErrNotFound", errs[3])
	}

	for i, err := range client.DeleteBatch(ctx, "seg", []int{0, 1, 5}) {
		if err != nil {
			t.Fatalf("DeleteBatch entry %d: %v", i, err)
		}
	}
	if _, errs := client.GetBatch(ctx, "seg", []int{0}); !errors.Is(errs[0], blockstore.ErrNotFound) {
		t.Fatalf("block survived DeleteBatch: %v", errs[0])
	}

	snap := counters(reg)
	if snap["transport_client_batch_fallbacks_total"] < 4 {
		t.Errorf("batch fallbacks = %d, want >= 4 (put, 2 gets, delete)",
			snap["transport_client_batch_fallbacks_total"])
	}
	if snap["transport_client_batches_total"] != 0 {
		t.Errorf("wire batches = %d against a legacy server, want 0",
			snap["transport_client_batches_total"])
	}
	if srv.served(7)+srv.served(8)+srv.served(9) != 0 {
		t.Errorf("legacy server saw batch ops after the failed CAPS probe")
	}
	if srv.served(10) != 1 {
		t.Errorf("CAPS probed %d times, want exactly 1 (cached)", srv.served(10))
	}
}

// TestRobustClientOverLegacyServer runs the full robust client —
// batched write, read, and delete paths — against single-op servers
// only. The rateless pipeline must fall back cleanly and round-trip
// the data.
func TestRobustClientOverLegacyServer(t *testing.T) {
	c, err := robust.NewClient(metadata.NewService(), robust.Options{BlockBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		srv := startLegacyServer(t)
		store, err := transport.Dial(srv.ln.Addr().String(), transport.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		if err := c.AttachStore(fmt.Sprintf("legacy%d", i), store); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := c.Write(ctx, "obj", data, nil); err != nil {
		t.Fatal(err)
	}
	got, stats, err := c.Read(ctx, "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back wrong data through legacy servers")
	}
	if stats.FailedGets != 0 || stats.CorruptShares != 0 {
		t.Fatalf("legacy read not clean: %+v", stats)
	}
	if err := c.Delete(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
}

// counters flattens a registry snapshot into name -> value.
func counters(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range reg.Snapshot().Counters {
		out[name] = v
	}
	return out
}

// startV2Server runs the real (mux-capable) server over a fresh
// in-memory store.
func startV2Server(t *testing.T) string {
	t.Helper()
	srv := transport.NewServer(blockstore.NewMemStore(), transport.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestMuxClientAgainstLegacyServerFallsBack: a v2 (mux-capable)
// client against a v1-only server must stay entirely on the v1
// single-op wire — no MUXUP is ever attempted (the failed CAPS probe
// already settled the question) and the streaming read path reports
// ErrMuxUnavailable without delivering anything.
func TestMuxClientAgainstLegacyServerFallsBack(t *testing.T) {
	srv := startLegacyServer(t)
	reg := obs.NewRegistry()
	client, err := transport.Dial(srv.ln.Addr().String(), transport.ClientOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	if err := client.Put(ctx, "seg", 0, []byte("v1 payload")); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(ctx, "seg", 0)
	if err != nil || !bytes.Equal(got, []byte("v1 payload")) {
		t.Fatalf("round trip over legacy server: %q, %v", got, err)
	}

	delivered := 0
	err = client.GetStream(ctx, "seg", []int{0}, func(int, []byte, error) { delivered++ })
	if !errors.Is(err, transport.ErrMuxUnavailable) {
		t.Fatalf("GetStream err = %v, want ErrMuxUnavailable", err)
	}
	if delivered != 0 {
		t.Fatalf("GetStream delivered %d blocks while unavailable, want 0", delivered)
	}

	if n := srv.served(11); n != 0 {
		t.Errorf("legacy server saw %d MUXUP attempts, want 0 (CAPS already failed)", n)
	}
	if n := srv.served(10); n != 1 {
		t.Errorf("CAPS probed %d times, want exactly 1 (cached)", n)
	}
	snap := counters(reg)
	if snap["transport_client_mux_dials_total"] != 0 {
		t.Errorf("mux dials = %d against a legacy server, want 0", snap["transport_client_mux_dials_total"])
	}
}

// TestMuxClientAgainstLegacyMuxServerStaysOnV1: a server whose CAPS
// advertise the mux and PUTSTREAM (bits 3 and 4) but not sized
// responses (bit 5) predates the RESP length field, so the client must
// never upgrade to it: single ops stay on v1 and both streaming paths
// report ErrMuxUnavailable without delivering anything.
func TestMuxClientAgainstLegacyMuxServerStaysOnV1(t *testing.T) {
	srv := startLegacyServer(t)
	srv.mu.Lock()
	srv.caps = 1<<3 | 1<<4
	srv.mu.Unlock()
	reg := obs.NewRegistry()
	client, err := transport.Dial(srv.ln.Addr().String(), transport.ClientOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	delivered := 0
	err = client.GetStream(ctx, "seg", []int{0}, func(int, []byte, error) { delivered++ })
	if !errors.Is(err, transport.ErrMuxUnavailable) || delivered != 0 {
		t.Fatalf("GetStream = %v (%d delivered), want ErrMuxUnavailable and 0", err, delivered)
	}
	acked := 0
	puts := []blockstore.BatchPut{{Index: 0, Data: []byte("streamed")}}
	err = client.PutStream(ctx, "seg", puts, func(int, error) { acked++ })
	if !errors.Is(err, transport.ErrMuxUnavailable) || acked != 0 {
		t.Fatalf("PutStream = %v (%d acked), want ErrMuxUnavailable and 0", err, acked)
	}
	if err := client.Put(ctx, "seg", 1, []byte("v1 payload")); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(ctx, "seg", 1)
	if err != nil || !bytes.Equal(got, []byte("v1 payload")) {
		t.Fatalf("round trip over a pre-length mux server: %q, %v", got, err)
	}
	if n := srv.served(11); n != 0 {
		t.Errorf("server saw %d MUXUP attempts, want 0 (no sized-response capability)", n)
	}
	if n := counters(reg)["transport_client_mux_dials_total"]; n != 0 {
		t.Errorf("mux dials = %d, want 0", n)
	}
}

// TestLegacyMuxClientGetsUnsizedResponses: a v2 client that predates
// the RESP length field proposes the original 8-byte MUXUP settings
// and parses RESP as [flags][status][chunk]. The server must answer in
// that form, acking 8-byte settings and never setting the length flag,
// or the client would read the length as payload. The frames are
// hand-rolled against the documented layout.
func TestLegacyMuxClientGetsUnsizedResponses(t *testing.T) {
	addr := startV2Server(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	payload := make([]byte, 300<<10) // three RESP chunks, inside one window
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if st, _ := v1Exchange(t, conn, 1, "seg", 0, payload); st != 0 {
		t.Fatalf("PUT status = %d", st)
	}
	var settings []byte
	settings = binary.BigEndian.AppendUint32(settings, 1<<20) // window
	settings = binary.BigEndian.AppendUint32(settings, 8)     // streams
	st, ack := v1Exchange(t, conn, 11, "-", 0, settings)
	if st != 0 || len(ack) != 8 {
		t.Fatalf("MUXUP ack = status %d, %d settings bytes; want 0 and 8", st, len(ack))
	}

	// REQ frame: [4B len][1B kind=1][4B id][1B flags=FIN][v1 GET body].
	body := []byte{2}
	body = binary.BigEndian.AppendUint16(body, 3)
	body = append(body, "seg"...)
	body = binary.BigEndian.AppendUint32(body, 0)
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+4+1+len(body)))
	frame = append(frame, 1)
	frame = binary.BigEndian.AppendUint32(frame, 1)
	frame = append(frame, 1)
	frame = append(frame, body...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}

	var got []byte
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		f := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, f); err != nil {
			t.Fatal(err)
		}
		if len(f) < 5 || f[0] != 2 { // WINDOW grants for the request, etc.
			continue
		}
		if len(f) < 7 {
			t.Fatalf("short RESP frame (%d bytes)", len(f))
		}
		flags, status := f[5], f[6]
		if status != 0 {
			t.Fatalf("GET status = %d: %q", status, f[7:])
		}
		if flags&^1 != 0 {
			t.Fatalf("RESP flags = %#x, want only FIN for a client that did not propose lengths", flags)
		}
		got = append(got, f[7:]...)
		if flags&1 != 0 {
			break
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("GET over the mux returned %d bytes, want the %d stored", len(got), len(payload))
	}
}

// v1Exchange hand-rolls one legacy single-op exchange against the
// documented frame layout — the behavior of a client binary that
// predates both the batch protocol and transport v2.
func v1Exchange(t *testing.T, conn net.Conn, op byte, seg string, idx int, payload []byte) (byte, []byte) {
	t.Helper()
	body := []byte{op}
	body = binary.BigEndian.AppendUint16(body, uint16(len(seg)))
	body = append(body, seg...)
	body = binary.BigEndian.AppendUint32(body, uint32(idx))
	body = append(body, payload...)
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	out = append(out, body...)
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	if len(resp) < 1 {
		t.Fatal("empty response frame")
	}
	return resp[0], resp[1:]
}

// TestLegacyClientAgainstMuxServer: a v1-only client that never sends
// MUXUP must get plain v1 service from a v2 server on the same
// connection, even though CAPS advertises the mux capability.
func TestLegacyClientAgainstMuxServer(t *testing.T) {
	addr := startV2Server(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if st, _ := v1Exchange(t, conn, 1, "seg", 3, []byte("old client")); st != 0 {
		t.Fatalf("legacy PUT status = %d", st)
	}
	st, data := v1Exchange(t, conn, 2, "seg", 3, nil)
	if st != 0 || !bytes.Equal(data, []byte("old client")) {
		t.Fatalf("legacy GET = status %d, %q", st, data)
	}
	if st, _ := v1Exchange(t, conn, 5, "-", 0, nil); st != 0 {
		t.Fatalf("legacy PING status = %d", st)
	}
	// CAPS advertises mux (bit 3) — but merely probing it must not
	// upgrade the connection, as the next v1 exchange proves.
	st, mask := v1Exchange(t, conn, 10, "-", 0, nil)
	if st != 0 || len(mask) != 4 {
		t.Fatalf("CAPS = status %d, %d bytes", st, len(mask))
	}
	if binary.BigEndian.Uint32(mask)&(1<<3) == 0 {
		t.Error("v2 server does not advertise the mux capability")
	}
	if st, _ := v1Exchange(t, conn, 2, "seg", 3, nil); st != 0 {
		t.Error("v1 exchange after CAPS failed: connection was upgraded implicitly")
	}
}

// TestMixedVersionClientsShareMuxServer: a pinned-to-v1 client
// (DisableMux) and a v2 client work the same server concurrently;
// each stays on its own transport version and both round-trip.
func TestMixedVersionClientsShareMuxServer(t *testing.T) {
	addr := startV2Server(t)
	regOld := obs.NewRegistry()
	oldClient, err := transport.Dial(addr, transport.ClientOptions{DisableMux: true, Obs: regOld})
	if err != nil {
		t.Fatal(err)
	}
	defer oldClient.Close()
	regNew := obs.NewRegistry()
	newClient, err := transport.Dial(addr, transport.ClientOptions{Obs: regNew})
	if err != nil {
		t.Fatal(err)
	}
	defer newClient.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for name, client := range map[string]*transport.Client{"old": oldClient, "new": newClient} {
		wg.Add(1)
		go func(name string, c *transport.Client) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				seg := fmt.Sprintf("%s-%d", name, i)
				data := bytes.Repeat([]byte(name), 1000+i)
				if err := c.Put(ctx, seg, i, data); err != nil {
					errs <- fmt.Errorf("%s put %d: %w", name, i, err)
					return
				}
				got, err := c.Get(ctx, seg, i)
				if err != nil || !bytes.Equal(got, data) {
					errs <- fmt.Errorf("%s get %d: %q, %v", name, i, got, err)
					return
				}
			}
			// Force a CAPS probe on both so the mux decision is made.
			if _, errs := c.GetBatch(ctx, name+"-0", []int{0}); len(errs) != 1 {
				t.Error("GetBatch shape")
			}
			if _, err := c.Get(ctx, name+"-0", 0); err != nil {
				errs <- fmt.Errorf("%s get after caps: %w", name, err)
			}
		}(name, client)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if n := counters(regOld)["transport_client_mux_dials_total"]; n != 0 {
		t.Errorf("DisableMux client made %d mux dials, want 0", n)
	}
	if n := counters(regNew)["transport_client_mux_dials_total"]; n < 1 {
		t.Errorf("v2 client made %d mux dials, want >= 1", n)
	}
}

// TestDisableMuxPinsClientToV1: the explicit escape hatch — a client
// with DisableMux set never upgrades and its streaming path reports
// ErrMuxUnavailable even though the server advertises mux.
func TestDisableMuxPinsClientToV1(t *testing.T) {
	addr := startV2Server(t)
	reg := obs.NewRegistry()
	client, err := transport.Dial(addr, transport.ClientOptions{DisableMux: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	if err := client.Put(ctx, "seg", 0, []byte("pinned")); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	err = client.GetStream(ctx, "seg", []int{0}, func(int, []byte, error) { delivered++ })
	if !errors.Is(err, transport.ErrMuxUnavailable) || delivered != 0 {
		t.Fatalf("GetStream with DisableMux = %v (%d delivered), want ErrMuxUnavailable and 0", err, delivered)
	}
	if got, err := client.Get(ctx, "seg", 0); err != nil || !bytes.Equal(got, []byte("pinned")) {
		t.Fatalf("v1 round trip = %q, %v", got, err)
	}
	snap := counters(reg)
	if snap["transport_client_mux_dials_total"] != 0 {
		t.Errorf("mux dials = %d with DisableMux, want 0", snap["transport_client_mux_dials_total"])
	}
}
