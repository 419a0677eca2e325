package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// The multiplexed framing (DESIGN.md §12) is the only framing: after
// the preface every exchange is its own stream — request IDs,
// out-of-order responses, chunked bodies so a 16 MB GET never
// head-of-line-blocks a PING, and per-stream windowed flow control so
// one slow consumer stalls only its own stream.
//
// Frame layout (all integers big-endian):
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
// The concatenated REQ chunks of a stream form exactly one request
// body (op, segment, index, payload); the concatenated RESP chunks
// form the response payload, with the status carried on every RESP
// frame (the first one wins). flags bit 0 (FIN) marks a stream's last
// chunk in that direction. flags bit 1 (LEN), set on the first RESP
// frame of every buffered response, announces the response's total
// payload length in the 4-byte field after the status, so the client
// allocates the response once at its final size and reads every chunk
// straight into place; streamed responses (PUTSTREAM acks) omit it.
// Chunk payload bytes are debited from the sender's per-stream credit
// window; the receiver returns credit with WINDOW frames as it
// consumes chunks, and stops granting the moment it abandons a stream
// — a stalled or timed-out stream therefore quiesces without
// poisoning its neighbors. RESET aborts one stream in both directions
// (the receiver cancels the stream's server-side context); only a
// malformed frame kills the connection.
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

// Frame kinds.
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

// muxInlineChunk is the largest chunk writeMuxFrame copies in behind
// the head (control frames, acks, request headers, error text).
const muxInlineChunk = 512

// muxWriteBuf is the pooled scratch of one frame write: prefix, head
// and inline chunk, or the two-piece vector of a large chunk.
type muxWriteBuf struct {
	b    [4 + muxMaxHeadLen + muxInlineChunk]byte
	vec  [2][]byte
	bufs net.Buffers
}

var muxWritePool = sync.Pool{New: func() any { return new(muxWriteBuf) }}

// appendMuxHead appends a frame's length prefix, kind, stream id and
// kind-specific head to dst; the frame's chunk of chunkLen bytes
// follows it on the wire.
func appendMuxHead(dst []byte, kind byte, id uint32, head []byte, chunkLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(muxHeaderLen+len(head)+chunkLen))
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, id)
	return append(dst, head...)
}

// writeMuxFrame writes one frame under the write lock in one call: a
// Write when the chunk fits inline, else net.Buffers{head, chunk}
// (one writev on a raw TCP conn, a Write per piece on a wrapped one).
// head is the kind-specific prefix between the stream id and the chunk
// (flags for REQ, flags+status for RESP, nothing for control kinds).
func writeMuxFrame(w *lockedWriter, kind byte, id uint32, head []byte, chunk []byte) error {
	if size := muxHeaderLen + len(head) + len(chunk); size > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	p := muxWritePool.Get().(*muxWriteBuf)
	defer muxWritePool.Put(p)
	b := appendMuxHead(p.b[:0], kind, id, head, len(chunk))
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(chunk) <= muxInlineChunk {
		_, err := w.w.Write(append(b, chunk...))
		return err
	}
	p.vec = [2][]byte{b, chunk}
	p.bufs = p.vec[:]
	_, err := p.bufs.WriteTo(w.w)
	p.vec = [2][]byte{} // the pool must not pin the chunk
	return err
}

// encodeMuxWindow packs a WINDOW body.
func encodeMuxWindow(credit int) [4]byte {
	return [4]byte{byte(credit >> 24), byte(credit >> 16), byte(credit >> 8), byte(credit)}
}

// parseMuxHead decodes the head of a frame whose body (the bytes
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

// muxReader reads frames off one connection without allocating per
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
// buffer, growing it as bytes arrive rather than trusting the frame's
// length. The bytes are valid only until the next call to next.
func (r *muxReader) chunk() ([]byte, error) {
	b := r.scratch[:0]
	for r.remain > 0 {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):min(cap(b), len(b)+r.remain)])
		b = b[:len(b)+n]
		if err != nil {
			return nil, err
		}
	}
	r.scratch = b
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
// bounding queue memory by the open-stream count, and everything one
// kick finds queued goes out in a single Write.
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

// drain appends every queued grant and reset to dst as whole frames
// and empties the queue, keeping its map and slice for the next kick.
func (q *ctlQueue) drain(dst []byte) []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	for id, n := range q.grants {
		win := encodeMuxWindow(n)
		dst = append(appendMuxHead(dst, muxKindWindow, id, nil, len(win)), win[:]...)
	}
	clear(q.grants)
	for _, r := range q.resets {
		dst = append(appendMuxHead(dst, muxKindReset, r.id, nil, len(r.msg)), r.msg...)
	}
	clear(q.resets)
	q.resets = q.resets[:0]
	return dst
}

// run writes queued control frames until the queue closes; onErr is
// invoked once on the first write failure (the conn is broken — the
// owner tears it down, which also closes the queue). done is closed on
// exit so owners can join after closing the queue and the conn.
func (q *ctlQueue) run(w *lockedWriter, onErr func(error)) {
	defer close(q.done)
	var buf []byte
	for range q.kick {
		if buf = q.drain(buf[:0]); len(buf) == 0 {
			continue
		}
		w.mu.Lock()
		_, err := w.w.Write(buf)
		w.mu.Unlock()
		if err != nil {
			onErr(err)
			return
		}
	}
}

// muxSettings are the negotiated per-connection parameters: the
// initial per-stream window (bytes, each direction) and the maximum
// number of concurrently open streams.
type muxSettings struct {
	window     int
	maxStreams int
}

// muxSettingsLen is the encoded settings size: [4B window][4B streams].
const muxSettingsLen = 8

// encodeMuxSettings packs settings for the preface.
func encodeMuxSettings(s muxSettings) []byte {
	out := make([]byte, muxSettingsLen)
	binary.BigEndian.PutUint32(out[0:], uint32(s.window))
	binary.BigEndian.PutUint32(out[4:], uint32(s.maxStreams))
	return out
}

// decodeMuxSettings unpacks settings, rejecting non-positive ones.
func decodeMuxSettings(payload []byte) (muxSettings, error) {
	if len(payload) != muxSettingsLen {
		return muxSettings{}, fmt.Errorf("transport: malformed mux settings (%d bytes)", len(payload))
	}
	w, n := binary.BigEndian.Uint32(payload[0:]), binary.BigEndian.Uint32(payload[4:])
	// Both are signed 31-bit on the wire, whatever the host int width.
	if w == 0 || n == 0 || w > 0x7FFFFFFF || n > 0x7FFFFFFF {
		return muxSettings{}, fmt.Errorf("transport: non-positive mux settings")
	}
	return muxSettings{window: int(w), maxStreams: int(n)}, nil
}

// negotiate clamps the peer's proposed settings to local bounds: both
// sides end up with the min of the two proposals, so neither can be
// pushed past what it offered.
func (s muxSettings) negotiate(peer muxSettings) muxSettings {
	return muxSettings{window: min(s.window, peer.window), maxStreams: min(s.maxStreams, peer.maxStreams)}
}

// The connection preface: [4B magic][settings], sent by the client
// with its proposal as the first bytes of a connection and answered by
// the server with the settings it chose. The magic exceeds MaxFrame,
// so no frame length prefix can pass for a preface.
const (
	muxPrefaceMagic = uint32(0x52534d32) // "RSM2"
	muxPrefaceLen   = 4 + muxSettingsLen
)

// encodePreface packs a preface carrying s.
func encodePreface(s muxSettings) []byte {
	out := binary.BigEndian.AppendUint32(make([]byte, 0, muxPrefaceLen), muxPrefaceMagic)
	return append(out, encodeMuxSettings(s)...)
}

// decodePreface validates a preface and returns its settings.
func decodePreface(b []byte) (muxSettings, error) {
	if len(b) != muxPrefaceLen || binary.BigEndian.Uint32(b) != muxPrefaceMagic {
		return muxSettings{}, fmt.Errorf("transport: not a connection preface")
	}
	return decodeMuxSettings(b[4:])
}

// readPreface reads and validates the peer's preface.
func readPreface(r io.Reader) (muxSettings, error) {
	var b [muxPrefaceLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return muxSettings{}, err
	}
	return decodePreface(b[:])
}
