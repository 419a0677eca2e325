package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Transport v2: a framed, multiplexed connection (DESIGN.md §12).
//
// A v1 connection carries one request/response exchange at a time, so
// a scrub, a ping, and a read against the same server serialize
// behind each other even with batch ops. Transport v2 upgrades a
// connection (negotiated through CAPS + MUXUP, with clean fallback
// for legacy peers) to a stream-multiplexed framing where every
// exchange is its own stream: request IDs, out-of-order responses,
// chunked bodies so a 16 MB GET never head-of-line-blocks a PING, and
// per-stream windowed flow control so one slow consumer stalls only
// its own stream.
//
// v2 frame layout (all integers big-endian), reusing the v1 outer
// length prefix:
//
//	[4B frame length][1B kind][4B stream id][body...]
//
// kinds:
//
//	REQ    body = [1B flags][chunk]                          client→server
//	RESP   body = [1B flags][1B status][4B total]?[chunk]    server→client
//	WINDOW body = [4B credit bytes]                          either direction
//	RESET  body = [error text]                               either direction
//
// The concatenated REQ chunks of a stream form exactly one v1 request
// body (op, segment, index, payload); the concatenated RESP chunks
// form the response payload, with the status carried on every RESP
// frame (the first one wins). flags bit 0 (FIN) marks a stream's last
// chunk in that direction. flags bit 1 (LEN), set only on the first
// RESP frame of a buffered response, announces the response's total
// payload length in the 4-byte field after the status, so the client
// allocates the response once at its final size and reads every chunk
// straight into place; streamed responses (PUTSTREAM acks) omit it.
// LEN is negotiated: the server sends it only on a connection whose
// MUXUP proposal carried muxFeatureLen, and a client upgrades only to
// a server whose CAPS advertise capMuxLen, so neither end meets the
// field unless it reads it.
// Chunk payload bytes are debited from the
// sender's per-stream credit window; the receiver returns credit with
// WINDOW frames as it consumes chunks, and stops granting the moment
// it abandons a stream — a stalled or timed-out stream therefore
// quiesces without poisoning its neighbors. RESET aborts one stream
// in both directions (the receiver cancels the stream's server-side
// context); only a malformed frame kills the connection.
//
// Buffer ownership: a frame's bytes are valid only until the next
// frame is read off the connection. The read loops parse each frame
// head in place and read the chunk either straight into the buffer
// that keeps it (a request body, a PUTSTREAM entry, a sized response)
// or into one per-connection scratch buffer (control text, streamed
// acks) that the next frame overwrites — so anything that keeps chunk
// bytes past its callback must copy them.
type muxFrame struct {
	kind   byte
	id     uint32
	flags  byte
	status byte
	credit int
	total  int // announced response length (RESP with muxFlagLen)
	n      int // chunk bytes following the head
}

// v2 frame kinds.
const (
	muxKindReq    = byte(1)
	muxKindResp   = byte(2)
	muxKindWindow = byte(3)
	muxKindReset  = byte(4)
)

// RESP/REQ flag bits: muxFlagFIN marks the last chunk of a stream
// direction; muxFlagLen marks a RESP frame carrying the response's
// total length.
const (
	muxFlagFIN = byte(1)
	muxFlagLen = byte(2)
)

// Mux sizing defaults. The window is per stream and per direction;
// the chunk size bounds how long one stream may monopolize the write
// side of a connection (a 16 MB GET response becomes ~128 frames any
// other stream's frames can interleave between).
const (
	defaultMuxWindow     = 1 << 20
	defaultMuxStreams    = 64
	muxChunkSize         = 128 << 10
	muxHeaderLen         = 1 + 4 // kind + stream id
	muxReqChunkOverhead  = 1     // flags
	muxRespChunkOverhead = 2     // flags + status
	muxRespLenOverhead   = 4     // announced total (muxFlagLen)
	// muxMaxHeadLen is the longest frame head: kind, stream id, RESP
	// flags and status, and the announced total.
	muxMaxHeadLen = muxHeaderLen + muxRespChunkOverhead + muxRespLenOverhead
	// muxReadBuffer sizes a connection's read buffer: frame heads and
	// small control frames are served from it, while chunks at least
	// this large are read from the socket directly into place.
	muxReadBuffer = 8 << 10
)

// muxHdrPool pools the [kind][id] header bytes of outgoing v2 frames;
// like frameHdrPool, a leased header must survive until the vectored
// write drains, which the synchronous writeFrameVec guarantees.
var muxHdrPool = sync.Pool{New: func() any { return new([muxMaxHeadLen]byte) }}

// writeMuxFrame writes one v2 frame under the caller's write lock.
// head is the kind-specific prefix placed between the stream id and
// the chunk (flags for REQ, flags+status for RESP, nothing for the
// control kinds).
func writeMuxFrame(w *lockedWriter, kind byte, id uint32, head []byte, chunk []byte) error {
	hdr := muxHdrPool.Get().(*[muxMaxHeadLen]byte)
	defer muxHdrPool.Put(hdr)
	hdr[0] = kind
	hdr[1] = byte(id >> 24)
	hdr[2] = byte(id >> 16)
	hdr[3] = byte(id >> 8)
	hdr[4] = byte(id)
	n := muxHeaderLen
	n += copy(hdr[n:], head)
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(chunk) == 0 {
		return writeFrame(w.w, hdr[:n])
	}
	return writeFrame(w.w, hdr[:n], chunk)
}

// encodeMuxWindow packs a WINDOW body.
func encodeMuxWindow(credit int) [4]byte {
	return [4]byte{byte(credit >> 24), byte(credit >> 16), byte(credit >> 8), byte(credit)}
}

// parseMuxHead decodes the head of a v2 frame whose body (the bytes
// after the outer length prefix) is frameLen bytes long. head holds
// the body's first min(frameLen, muxMaxHeadLen) bytes. It returns the
// frame, with n set to the length of the chunk after the head, and the
// head's length.
func parseMuxHead(head []byte, frameLen int) (muxFrame, int, error) {
	if frameLen < muxHeaderLen {
		return muxFrame{}, 0, fmt.Errorf("transport: short mux frame (%d bytes)", frameLen)
	}
	f := muxFrame{
		kind: head[0],
		id:   binary.BigEndian.Uint32(head[1:muxHeaderLen]),
	}
	hl := muxHeaderLen
	switch f.kind {
	case muxKindReq:
		if frameLen < hl+muxReqChunkOverhead {
			return muxFrame{}, 0, fmt.Errorf("transport: short mux REQ frame")
		}
		f.flags = head[hl]
		hl += muxReqChunkOverhead
	case muxKindResp:
		if frameLen < hl+muxRespChunkOverhead {
			return muxFrame{}, 0, fmt.Errorf("transport: short mux RESP frame")
		}
		f.flags = head[hl]
		f.status = head[hl+1]
		hl += muxRespChunkOverhead
		if f.flags&muxFlagLen != 0 {
			if frameLen < hl+muxRespLenOverhead {
				return muxFrame{}, 0, fmt.Errorf("transport: short mux RESP length")
			}
			total := binary.BigEndian.Uint32(head[hl:])
			hl += muxRespLenOverhead
			if total > MaxFrame || frameLen-hl > int(total) {
				return muxFrame{}, 0, fmt.Errorf("transport: bad mux RESP length %d for a %d-byte chunk", total, frameLen-hl)
			}
			f.total = int(total)
		}
	case muxKindWindow:
		if frameLen != hl+4 {
			return muxFrame{}, 0, fmt.Errorf("transport: malformed mux WINDOW frame (%d bytes)", frameLen-hl)
		}
		credit := binary.BigEndian.Uint32(head[hl:])
		// The wire field is a signed 31-bit credit; a set sign bit is
		// malformed regardless of the host int width.
		if credit > 0x7FFFFFFF {
			return muxFrame{}, 0, fmt.Errorf("transport: negative mux window credit")
		}
		f.credit = int(credit)
		hl += 4
	case muxKindReset:
	default:
		return muxFrame{}, 0, fmt.Errorf("transport: unknown mux frame kind %d", f.kind)
	}
	f.n = frameLen - hl
	return f, hl, nil
}

// muxReader reads v2 frames off one connection without allocating per
// frame. next parses a frame's head in place in the read buffer and
// leaves the chunk on the wire; the consumer then reads the chunk
// straight into the buffer that keeps it (Read), or into the reader's
// scratch buffer (chunk), or leaves it for next to skip. Chunk bytes
// returned by chunk follow the ownership rule above: they are valid
// only until the next call to next.
type muxReader struct {
	br      *bufio.Reader
	remain  int   // unread chunk bytes of the current frame
	err     error // sticky: once a read fails the connection is done
	scratch []byte
}

func newMuxReader(r io.Reader) *muxReader {
	return &muxReader{br: bufio.NewReaderSize(r, muxReadBuffer)}
}

// next skips whatever the previous frame's consumer left unread and
// parses the next frame's head. Any error is connection-fatal.
func (r *muxReader) next() (muxFrame, error) {
	if r.err == nil && r.remain > 0 {
		_, r.err = r.br.Discard(r.remain)
		r.remain = 0
	}
	if r.err != nil {
		return muxFrame{}, r.err
	}
	f, err := r.head()
	if err != nil {
		r.err = err
		return muxFrame{}, err
	}
	r.remain = f.n
	return f, nil
}

func (r *muxReader) head() (muxFrame, error) {
	prefix, err := r.br.Peek(4)
	if err != nil {
		return muxFrame{}, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n > MaxFrame {
		return muxFrame{}, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	r.br.Discard(4)
	frameLen := int(n)
	head, err := r.br.Peek(min(frameLen, muxMaxHeadLen))
	if err != nil {
		return muxFrame{}, err
	}
	f, hl, err := parseMuxHead(head, frameLen)
	if err != nil {
		return muxFrame{}, err
	}
	r.br.Discard(hl)
	return f, nil
}

// Read reads the current frame's chunk, never past it: io.EOF at its
// end. It makes a chunk an io.Reader, so consumers fill their own
// buffers straight from the connection.
func (r *muxReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.remain == 0 {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	if len(p) > r.remain {
		p = p[:r.remain]
	}
	n, err := r.br.Read(p)
	r.remain -= n
	if err != nil {
		r.err = err
	}
	return n, err
}

// readFull fills p from the current frame's chunk.
func (r *muxReader) readFull(p []byte) error {
	_, err := io.ReadFull(r, p)
	return err
}

// chunk reads the rest of the current frame's chunk into the scratch
// buffer. The bytes are valid only until the next call to next.
func (r *muxReader) chunk() ([]byte, error) {
	if cap(r.scratch) < r.remain {
		r.scratch = make([]byte, r.remain)
	}
	b := r.scratch[:r.remain]
	if err := r.readFull(b); err != nil {
		return nil, err
	}
	return b, nil
}

// lockedWriter serializes frame writes onto one shared connection.
// The lock is held per frame, never across flow-control waits — a
// stream blocked on credit must not wedge the peer's WINDOW grants.
type lockedWriter struct {
	mu sync.Mutex
	w  interface{ Write([]byte) (int, error) }
}

// creditGate is one direction of a stream's flow-control window: the
// sender takes credit before each chunk, the demux goroutine grants
// it back as the peer acknowledges consumption, and closing the gate
// releases any waiting sender with an error.
type creditGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	credit int
	err    error
}

func newCreditGate(initial int) *creditGate {
	g := &creditGate{credit: initial}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// take blocks until at least min(want, chunk window) credit is
// available or the gate closes, then debits and returns the number of
// bytes the caller may send (never more than want). stalled, when
// non-nil, is invoked once if the caller had to wait — the mux stall
// metric.
func (g *creditGate) take(want int, stalled func()) (int, error) {
	if want > muxChunkSize {
		want = muxChunkSize
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	waited := false
	for g.err == nil && g.credit <= 0 {
		if !waited && stalled != nil {
			stalled()
		}
		waited = true
		g.cond.Wait()
	}
	if g.err != nil {
		return 0, g.err
	}
	n := want
	if n > g.credit {
		n = g.credit
	}
	g.credit -= n
	return n, nil
}

// grant returns credit to the sender.
func (g *creditGate) grant(n int) {
	g.mu.Lock()
	g.credit += n
	g.mu.Unlock()
	g.cond.Broadcast()
}

// close releases any waiting sender with err.
func (g *creditGate) close(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// ctlQueue decouples control frames (WINDOW grants, RESETs) from the
// connection's read loop. A read loop that writes inline can deadlock
// when both TCP directions fill: each side's reader blocks writing a
// grant the other side cannot drain because its own reader is blocked
// the same way. Queuing the control frames and writing them from a
// dedicated goroutine keeps both read loops always reading, so the
// peer's writes always eventually drain. Grants coalesce per stream,
// bounding queue memory by the open-stream count.
type ctlQueue struct {
	mu     sync.Mutex
	grants map[uint32]int
	resets []ctlReset
	kick   chan struct{}
	done   chan struct{} // closed when run exits; join point for owners
	closed bool
}

type ctlReset struct {
	id  uint32
	msg string
}

func newCtlQueue() *ctlQueue {
	return &ctlQueue{
		grants: make(map[uint32]int),
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// grant enqueues a WINDOW grant (coalesced per stream).
func (q *ctlQueue) grant(id uint32, n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.grants[id] += n
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// reset enqueues a RESET for one stream.
func (q *ctlQueue) reset(id uint32, msg string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.resets = append(q.resets, ctlReset{id: id, msg: msg})
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// close stops the queue; further grants/resets are dropped (the
// connection is dying, so they are moot).
func (q *ctlQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.kick)
}

// swap takes the pending work.
func (q *ctlQueue) swap() (map[uint32]int, []ctlReset) {
	q.mu.Lock()
	defer q.mu.Unlock()
	grants, resets := q.grants, q.resets
	q.grants = make(map[uint32]int)
	q.resets = nil
	return grants, resets
}

// run writes queued control frames until the queue closes; onErr is
// invoked once on the first write failure (the conn is broken — the
// owner tears it down, which also closes the queue). done is closed on
// exit so owners can join after closing the queue and the conn.
func (q *ctlQueue) run(w *lockedWriter, onErr func(error)) {
	defer close(q.done)
	for range q.kick {
		grants, resets := q.swap()
		for id, n := range grants {
			win := encodeMuxWindow(n)
			if err := writeMuxFrame(w, muxKindWindow, id, nil, win[:]); err != nil {
				onErr(err)
				return
			}
		}
		for _, r := range resets {
			if err := writeMuxFrame(w, muxKindReset, r.id, nil, []byte(r.msg)); err != nil {
				onErr(err)
				return
			}
		}
	}
}

// muxSettings are the negotiated per-connection parameters: the
// initial per-stream window (bytes, each direction), the maximum
// number of concurrently open streams, and the optional wire features
// both ends speak (muxFeature* bits).
type muxSettings struct {
	window     int
	maxStreams int
	features   uint32
}

// muxFeatureLen: the server marks the first RESP frame of a buffered
// response with muxFlagLen and its total length. A server sends the
// field only to a client that proposed it, because a client that
// predates it would read the 4 bytes as payload.
const muxFeatureLen = uint32(1 << 0)

// Lengths of a MUXUP payload: the original window+streams form, and
// the form that appends a 4-byte feature mask.
const (
	muxSettingsLen         = 8
	muxSettingsFeaturesLen = 12
)

// encodeMuxSettings packs the MUXUP request/response payload. Settings
// without features keep the original 8-byte form, so a server answers
// a client that predates the feature mask in the form it can parse.
func encodeMuxSettings(s muxSettings) []byte {
	out := make([]byte, muxSettingsLen, muxSettingsFeaturesLen)
	binary.BigEndian.PutUint32(out[0:], uint32(s.window))
	binary.BigEndian.PutUint32(out[4:], uint32(s.maxStreams))
	if s.features != 0 {
		out = binary.BigEndian.AppendUint32(out, s.features)
	}
	return out
}

// decodeMuxSettings unpacks a MUXUP payload in either form.
func decodeMuxSettings(payload []byte) (muxSettings, error) {
	if len(payload) != muxSettingsLen && len(payload) != muxSettingsFeaturesLen {
		return muxSettings{}, fmt.Errorf("transport: malformed mux settings (%d bytes)", len(payload))
	}
	s := muxSettings{
		window:     int(binary.BigEndian.Uint32(payload[0:])),
		maxStreams: int(binary.BigEndian.Uint32(payload[4:])),
	}
	if len(payload) == muxSettingsFeaturesLen {
		s.features = binary.BigEndian.Uint32(payload[8:])
	}
	if s.window <= 0 || s.maxStreams <= 0 {
		return muxSettings{}, fmt.Errorf("transport: non-positive mux settings")
	}
	return s, nil
}

// negotiate clamps the peer's proposed settings to local bounds: both
// sides end up with the min of the two proposals and the features both
// offered, so neither can be pushed past what it offered.
func (s muxSettings) negotiate(peer muxSettings) muxSettings {
	out := s
	if peer.window < out.window {
		out.window = peer.window
	}
	if peer.maxStreams < out.maxStreams {
		out.maxStreams = peer.maxStreams
	}
	out.features &= peer.features
	return out
}
