package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blockstore"
)

// buildPutEntries encodes entries exactly as the client's PUTSTREAM
// writer does: [4B index][4B length][data] per entry.
func buildPutEntries(entries [][]byte) []byte {
	var wire []byte
	for i, e := range entries {
		wire = appendPutEntryHeader(wire, i, len(e))
		wire = append(wire, e...)
	}
	return wire
}

// feedPutStream hands chunk to the assembler exactly as the server's
// read loop does: as the chunk of one REQ frame on a frame reader.
func feedPutStream(ps *muxPutStream, chunk []byte, fin bool) error {
	var wire bytes.Buffer
	flags := byte(0)
	if fin {
		flags = muxFlagFIN
	}
	if err := writeMuxFrame(&lockedWriter{w: &wire}, muxKindReq, 1, []byte{flags}, chunk); err != nil {
		return err
	}
	r := newMuxReader(&wire)
	if _, err := r.next(); err != nil {
		return err
	}
	return ps.readFrom(r, fin)
}

// nextPutEntry takes the next complete entry, copies its data out and
// releases it, as servePutStream does once the store returns.
func nextPutEntry(ps *muxPutStream) (int, []byte, error) {
	e, err := ps.next()
	if err != nil {
		return 0, nil, err
	}
	data := bytes.Clone(e.data)
	ps.release(e)
	return e.index, data, nil
}

// newTestPutStream builds an assembler whose grants are summed.
func newTestPutStream(declared, window int) (*muxPutStream, *atomic.Int64) {
	var granted atomic.Int64
	return newMuxPutStream("seg", declared, window, func(n int) { granted.Add(int64(n)) }), &granted
}

// TestQuickPutStreamEntryRoundTrip feeds randomly-chunked entry bytes
// through the assembler and checks the consumer sees every entry, in
// order, and that every wire byte is granted back exactly once.
func TestQuickPutStreamEntryRoundTrip(t *testing.T) {
	f := func(raw [][]byte, seed int64) bool {
		if len(raw) > 8 {
			raw = raw[:8]
		}
		entries := make([][]byte, len(raw))
		for i, e := range raw {
			if len(e) > 1024 {
				e = e[:1024]
			}
			entries[i] = e
		}
		wire := buildPutEntries(entries)
		ps, granted := newTestPutStream(len(entries), defaultMuxWindow)
		rng := rand.New(rand.NewSource(seed))
		go func() {
			rest := wire
			for len(rest) > 0 {
				n := 1 + rng.Intn(len(rest))
				if err := feedPutStream(ps, rest[:n], n == len(rest)); err != nil {
					return
				}
				rest = rest[n:]
			}
			if len(wire) == 0 {
				feedPutStream(ps, nil, true)
			}
		}()
		for i := range entries {
			idx, data, err := nextPutEntry(ps)
			if err != nil || idx != i || !bytes.Equal(data, entries[i]) {
				return false
			}
		}
		if _, _, err := nextPutEntry(ps); err != io.EOF {
			return false
		}
		return granted.Load() == int64(len(wire))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPutStreamTruncatedEntryFailsClean: FIN landing mid-entry (in
// the header and in the data) must surface an error, not EOF and not
// a hang.
func TestPutStreamTruncatedEntryFailsClean(t *testing.T) {
	wire := buildPutEntries([][]byte{bytes.Repeat([]byte{7}, 64)})
	for _, cut := range []int{3, putEntryOverhead + 10} {
		ps, _ := newTestPutStream(1, defaultMuxWindow)
		if err := feedPutStream(ps, wire[:cut], true); err != nil {
			t.Fatalf("cut=%d: feed: %v", cut, err)
		}
		_, _, err := nextPutEntry(ps)
		if err == nil || err == io.EOF {
			t.Fatalf("cut=%d: truncated stream yielded err=%v", cut, err)
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut=%d: err %q does not say truncated", cut, err)
		}
	}
}

// TestPutStreamOversizedEntryRejected: an entry header claiming more
// than MaxFrame bytes is a protocol violation, caught before any
// buffer is leased.
func TestPutStreamOversizedEntryRejected(t *testing.T) {
	var hdr [putEntryOverhead]byte
	binary.BigEndian.PutUint32(hdr[0:4], 0)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(MaxFrame+1))
	ps, _ := newTestPutStream(1, defaultMuxWindow)
	feedPutStream(ps, hdr[:], false) // the error also reaches the consumer
	if _, _, err := nextPutEntry(ps); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("oversized entry yielded err=%v", err)
	}
}

// TestPutStreamFeedOverflow: a peer that streams past its credit —
// more owed entry bytes than the window while the consumer holds the
// borrowing entry — is stopped instead of growing server buffering.
func TestPutStreamFeedOverflow(t *testing.T) {
	const window = 64 << 10
	ps, _ := newTestPutStream(4, window)
	// Entry 0 borrows (granted as it lands); entries 1 and 2, headers
	// included, fill the window exactly; one more entry header is past
	// the client's credit.
	half := window/2 - putEntryOverhead
	fill := buildPutEntries([][]byte{make([]byte, 32<<10), make([]byte, half), make([]byte, half)})
	if err := feedPutStream(ps, fill, false); err != nil {
		t.Fatalf("feed within the window failed: %v", err)
	}
	if err := feedPutStream(ps, appendPutEntryHeader(nil, 3, 0), false); err == nil {
		t.Fatal("feed past the window accepted")
	}
	if _, _, err := nextPutEntry(ps); err == nil {
		t.Fatal("consumer not told about the overflow")
	}
}

// TestPutStreamFailWakesBlockedConsumer: a reset while the consumer
// waits for bytes must wake it with the terminal error — the
// mid-chunk RESET path.
func TestPutStreamFailWakesBlockedConsumer(t *testing.T) {
	ps, _ := newTestPutStream(2, defaultMuxWindow)
	// Half an entry: the consumer blocks waiting for the rest.
	wire := buildPutEntries([][]byte{bytes.Repeat([]byte{3}, 32)})
	if err := feedPutStream(ps, wire[:putEntryOverhead+5], false); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := nextPutEntry(ps)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	want := errors.New("stream reset by peer")
	ps.fail(want)
	select {
	case err := <-errc:
		if !errors.Is(err, want) {
			t.Fatalf("consumer woke with %v, want %v", err, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer still blocked after fail")
	}
}

// TestPutStreamCreditBorrowing pins the flow-control rule that keeps
// an entry larger than the window from deadlocking: the oldest
// unreleased entry's bytes are granted as they land, later entries'
// bytes only once everything before them is released.
func TestPutStreamCreditBorrowing(t *testing.T) {
	const window = 16 << 10
	ps, granted := newTestPutStream(2, window)
	big := buildPutEntries([][]byte{make([]byte, 3*window), make([]byte, window-putEntryOverhead)})
	first := putEntryOverhead + 3*window
	// The first entry is three windows long: it must complete with
	// every byte granted on arrival.
	for off := 0; off < first; off += window / 2 {
		if err := feedPutStream(ps, big[off:min(off+window/2, first)], false); err != nil {
			t.Fatal(err)
		}
	}
	if got := granted.Load(); got != int64(first) {
		t.Fatalf("granted %d of the borrowing entry's %d bytes", got, first)
	}
	// The second entry lands while the first is unreleased: all of
	// it, header included, is owed.
	if err := feedPutStream(ps, big[first:], true); err != nil {
		t.Fatal(err)
	}
	if got := granted.Load(); got != int64(first) {
		t.Fatalf("granted %d, want %d before the first release", got, first)
	}
	e, err := ps.next()
	if err != nil || len(e.data) != 3*window {
		t.Fatalf("first entry = %v, %v", e, err)
	}
	ps.release(e)
	if got := granted.Load(); got != int64(len(big)) {
		t.Fatalf("granted %d after release, want all %d", got, len(big))
	}
}

// gatePutStore parks every Put until the gate closes, keeping a
// PUTSTREAM stream alive at a deterministic point.
type gatePutStore struct {
	blockstore.Store
	gate chan struct{}
}

func (s *gatePutStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	<-s.gate
	return s.Store.Put(ctx, segment, index, data)
}

// startRawPutStreamServer launches a mux server over the given store
// and returns a raw peer speaking frames at it.
func startRawPutStreamServer(t *testing.T, store blockstore.Store) *rawMuxPeer {
	t.Helper()
	srv := NewServer(store, ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return dialRawMux(t, ln.Addr().String())
}

// sendPutStreamReq writes one REQ frame carrying the PUTSTREAM header
// (declared entries) plus whatever entry bytes follow, FIN-controlled.
func (p *rawMuxPeer) sendPutStreamReq(id uint32, segment string, declared int, entryBytes []byte, fin bool) {
	p.t.Helper()
	body, err := encodeRequest(opPutStream, segment, declared, nil)
	if err != nil {
		p.t.Fatal(err)
	}
	body = append(body, entryBytes...)
	flags := byte(0)
	if fin {
		flags = muxFlagFIN
	}
	w := &lockedWriter{w: p.conn}
	if err := writeMuxFrame(w, muxKindReq, id, []byte{flags}, body); err != nil {
		p.t.Fatal(err)
	}
}

// awaitKind reads frames for the stream until one of the wanted kind
// arrives, skipping flow-control WINDOW grants; the read deadline
// bounds the wait.
func (p *rawMuxPeer) awaitKind(id uint32, kind byte) testFrame {
	p.t.Helper()
	for {
		f := p.readFrameFor(id)
		if f.kind == kind {
			return f
		}
		if f.kind != muxKindWindow {
			p.t.Fatalf("stream %d: got kind %d, want %d", id, f.kind, kind)
		}
	}
}

// TestPutStreamDuplicateStreamIDResets: reusing a PUTSTREAM stream's
// id after its request half finished is a per-stream violation — that
// stream RESETs, the connection keeps serving.
func TestPutStreamDuplicateStreamIDResets(t *testing.T) {
	mem := blockstore.NewMemStore()
	gate := make(chan struct{})
	defer close(gate)
	if err := mem.Put(context.Background(), "fast", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	peer := startRawPutStreamServer(t, &gatePutStore{Store: mem, gate: gate})

	// Stream 5: a complete one-entry PUTSTREAM whose store Put parks,
	// keeping the id occupied with its request half done.
	entry := buildPutEntries([][]byte{[]byte("blockdata")})
	peer.sendPutStreamReq(5, "slow", 1, entry, true)
	peer.sendReq(5, opPing, "-", 0, nil)
	f := peer.awaitKind(5, muxKindReset)
	if !strings.Contains(string(f.chunk), "duplicate") {
		t.Fatalf("reset reason %q does not mention duplicate id", f.chunk)
	}

	// The connection is still healthy.
	peer.sendReq(8, opGet, "fast", 0, nil)
	if f := peer.awaitKind(8, muxKindResp); f.status != statusOK {
		t.Fatalf("stream 8 status = %d after duplicate reset", f.status)
	}
}

// TestPutStreamTruncatedWireResets: FIN mid-entry on the wire RESETs
// the stream with the truncation reason.
func TestPutStreamTruncatedWireResets(t *testing.T) {
	peer := startRawPutStreamServer(t, blockstore.NewMemStore())
	entry := buildPutEntries([][]byte{bytes.Repeat([]byte{9}, 128)})
	peer.sendPutStreamReq(3, "seg", 1, entry[:putEntryOverhead+30], true)
	f := peer.awaitKind(3, muxKindReset)
	if !strings.Contains(string(f.chunk), "truncated") {
		t.Fatalf("reset reason %q does not mention truncation", f.chunk)
	}
}

// TestPutStreamExcessEntriesReset: more entries than the header
// declared is a protocol violation.
func TestPutStreamExcessEntriesReset(t *testing.T) {
	peer := startRawPutStreamServer(t, blockstore.NewMemStore())
	two := buildPutEntries([][]byte{[]byte("one"), []byte("two")})
	peer.sendPutStreamReq(4, "seg", 1, two, true)
	// The declared entry is acked (RESP) before the excess one trips
	// the check, so skip acks while waiting for the RESET.
	for {
		f := peer.readFrameFor(4)
		if f.kind == muxKindWindow || f.kind == muxKindResp {
			continue
		}
		if f.kind != muxKindReset {
			t.Fatalf("stream 4: got kind %d, want RESET", f.kind)
		}
		if !strings.Contains(string(f.chunk), "exceed") {
			t.Fatalf("reset reason %q does not mention the declared count", f.chunk)
		}
		break
	}
}

// TestPutStreamMidChunkReset: the client abandons a PUTSTREAM halfway
// through an entry. The entries acked before the reset are durable,
// nothing after it lands, and the connection survives.
func TestPutStreamMidChunkReset(t *testing.T) {
	mem := blockstore.NewMemStore()
	if err := mem.Put(context.Background(), "fast", 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	peer := startRawPutStreamServer(t, mem)

	wire := buildPutEntries([][]byte{[]byte("first-entry"), bytes.Repeat([]byte{5}, 64)})
	firstLen := putEntryOverhead + len("first-entry")
	// Entry 0 complete, entry 1 cut mid-data, no FIN.
	peer.sendPutStreamReq(6, "seg", 2, wire[:firstLen+putEntryOverhead+10], false)
	// Entry 0's ack arrives while the stream is still open.
	ack := peer.awaitKind(6, muxKindResp)
	if len(ack.chunk) < batchResultOverhead || ack.chunk[4] != statusOK {
		t.Fatalf("entry 0 ack malformed or failed: %v", ack.chunk)
	}
	// Abandon mid-entry.
	w := &lockedWriter{w: peer.conn}
	if err := writeMuxFrame(w, muxKindReset, 6, nil, []byte("client gave up")); err != nil {
		t.Fatal(err)
	}

	// The connection still serves new streams, and only entry 0 landed.
	peer.sendReq(9, opGet, "fast", 0, nil)
	if f := peer.awaitKind(9, muxKindResp); f.status != statusOK {
		t.Fatalf("stream 9 status = %d after mid-chunk reset", f.status)
	}
	idx, err := mem.List(context.Background(), "seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || idx[0] != 0 {
		t.Fatalf("stored indices after reset = %v, want [0]", idx)
	}
}

// TestPutStreamNegativeCreditKillsConnection: a WINDOW frame with the
// sign bit set fails frame decoding, which is connection-fatal.
func TestPutStreamNegativeCreditKillsConnection(t *testing.T) {
	peer := startRawPutStreamServer(t, blockstore.NewMemStore())
	if err := writeFrame(peer.conn, []byte{muxKindWindow, 0, 0, 0, 6, 0x80, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	peer.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(peer.conn); err == nil {
		t.Fatal("connection survived a negative credit grant")
	}
}
