package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/admission"
)

// serverMuxDefaults bound what a server will accept during MUXUP
// negotiation regardless of the client's proposal.
var serverMuxDefaults = muxSettings{window: defaultMuxWindow, maxStreams: defaultMuxStreams, features: muxFeatureLen}

// upgradeMux answers one MUXUP request. A malformed proposal is
// refused in-band (the connection stays on v1); a valid one is
// acknowledged with the clamped settings, after which the connection
// speaks v2 frames until it drops. Returns served=true when the
// connection was consumed by the mux loop.
func (s *Server) upgradeMux(ctx context.Context, conn net.Conn, req request) (served bool, err error) {
	peer, derr := decodeMuxSettings(req.payload)
	if derr != nil {
		return false, writeFrame(conn, []byte{statusErr}, []byte(derr.Error()))
	}
	chosen := serverMuxDefaults.negotiate(peer)
	ack := make([]byte, 0, 9)
	ack = append(ack, statusOK)
	ack = append(ack, encodeMuxSettings(chosen)...)
	if err := writeFrame(conn, ack); err != nil {
		return false, err
	}
	m := &muxServerConn{
		s:        s,
		conn:     conn,
		w:        &lockedWriter{w: conn},
		r:        newMuxReader(conn),
		ctl:      newCtlQueue(),
		settings: chosen,
		ctx:      ctx,
		streams:  make(map[uint32]*muxServerStream),
	}
	// Control frames go out async so the serve read loop never blocks
	// on the write side; a control write failure means the conn is
	// broken, so closing it unblocks the frame reader and ends serve.
	go m.ctl.run(m.w, func(error) { m.conn.Close() })
	m.serve()
	// serve's teardown closed the queue; closing the conn unblocks any
	// control write still in flight so the writer goroutine can exit.
	conn.Close()
	<-m.ctl.done
	return true, nil
}

// muxServerConn is the server half of one multiplexed connection: the
// serve loop reassembles per-stream requests and dispatches each as
// its own goroutine with its own context, so a RESET (or a client
// abandoning a timed-out stream) cancels exactly one request.
type muxServerConn struct {
	s        *Server
	conn     net.Conn
	w        *lockedWriter
	r        *muxReader
	ctl      *ctlQueue
	settings muxSettings
	ctx      context.Context

	mu      sync.Mutex
	streams map[uint32]*muxServerStream
	wg      sync.WaitGroup
}

// muxServerStream is one stream's server-side state.
type muxServerStream struct {
	id     uint32
	buf    []byte
	fin    bool
	stream *muxPutStream // non-nil once the stream switched to PUTSTREAM mode
	send   *creditGate   // response-direction flow control
	cancel context.CancelFunc
	done   bool
}

// serve is the connection's v2 read loop. Like Server.handle, the
// loop lives exactly as long as the connection: a dropped conn (or
// Server.Close) unblocks the frame reader, and teardown cancels every
// in-flight stream.
func (m *muxServerConn) serve() {
	defer m.teardown()
	//lint:ignore ctxcancel conn-lifetime loop; teardown cancels per-stream ctxs and conn close unblocks the frame reader
	for {
		f, err := m.r.next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				m.s.logf("transport: mux connection from %v: %v", m.conn.RemoteAddr(), err)
			}
			return
		}
		switch f.kind {
		case muxKindReq:
			m.handleReq(f)
		case muxKindWindow:
			m.mu.Lock()
			st, ok := m.streams[f.id]
			m.mu.Unlock()
			if ok {
				st.send.grant(f.credit)
			}
		case muxKindReset:
			m.resetStream(f.id, nil)
		default:
			m.s.logf("transport: unexpected mux frame kind %d from %v", f.kind, m.conn.RemoteAddr())
			return
		}
	}
}

// handleReq folds one REQ chunk into its stream, reading it off the
// connection straight into the stream's request body (or, for a
// PUTSTREAM, into its entry buffers) and dispatching the request when
// the FIN chunk completes it. Per-stream violations (limit exceeded,
// oversized body, duplicate id after FIN, malformed request) RESET
// that stream only — never the connection. A read error just returns:
// the reader keeps it, and the next frame read ends the loop.
func (m *muxServerConn) handleReq(f muxFrame) {
	m.mu.Lock()
	st, ok := m.streams[f.id]
	if ok && st.fin {
		// Duplicate request id: frames for a stream that already
		// finished its request half. Kill that stream, not the conn —
		// its neighbors are innocent.
		m.mu.Unlock()
		m.resetStream(f.id, []byte("transport: duplicate mux stream id"))
		return
	}
	if !ok {
		if len(m.streams) >= m.settings.maxStreams {
			m.mu.Unlock()
			m.sendReset(f.id, "transport: mux stream limit exceeded")
			return
		}
		st = &muxServerStream{id: f.id, send: newCreditGate(m.settings.window)}
		m.streams[f.id] = st
	}
	m.mu.Unlock()

	fin := f.flags&muxFlagFIN != 0
	if st.stream != nil {
		// PUTSTREAM mode: entry bytes go straight into their entry
		// buffers; the assembler grants credit as it goes, which is
		// what bounds server-side buffering (see muxPutStream).
		if fin {
			st.fin = true
		}
		if err := st.stream.readFrom(m.r, fin); err != nil {
			m.resetStream(f.id, []byte(err.Error()))
		}
		return
	}
	if len(st.buf)+f.n > MaxFrame {
		m.resetStream(f.id, []byte("transport: mux request body overflow"))
		return
	}
	// Read up to the end of the request header first, so a PUTSTREAM
	// switches to per-entry assembly before any entry byte is buffered.
	prev := len(st.buf)
	for m.r.remain > 0 {
		need := requestHeaderNeed(st.buf)
		if need == 0 {
			break
		}
		if m.readBody(st, min(need, m.r.remain)) != nil {
			return
		}
	}
	if op, hdrLen, ok := peekRequest(st.buf); ok && op == opPutStream {
		m.startPutStream(st, hdrLen, hdrLen-prev, fin)
		return
	}
	if m.readBody(st, m.r.remain) != nil {
		return
	}
	if !fin {
		// Return the consumed credit (async, so the read loop never
		// blocks on the write side) so the client keeps streaming.
		if f.n > 0 {
			m.ctl.grant(f.id, f.n)
		}
		return
	}
	st.fin = true
	req, err := decodeRequest(st.buf)
	if err != nil {
		m.resetStream(f.id, []byte(err.Error()))
		return
	}
	sctx, cancel := context.WithCancel(m.ctx)
	st.cancel = cancel
	m.s.m.muxStreams.Inc()
	m.wg.Add(1)
	go m.serveStream(sctx, st, req)
}

// readBody appends the next n chunk bytes to the stream's request
// body, reading them off the connection in place.
func (m *muxServerConn) readBody(st *muxServerStream, n int) error {
	off := len(st.buf)
	st.buf = slices.Grow(st.buf, n)[:off+n]
	return m.r.readFull(st.buf[off:])
}

// startPutStream switches a stream into incremental PUTSTREAM mode
// the moment its request header is complete: the rest of this chunk
// and every later one go to the stream's assembler, and a consumer
// goroutine stores the entries as they complete.
func (m *muxServerConn) startPutStream(st *muxServerStream, hdrLen, hdrBytes int, fin bool) {
	req, err := decodeRequest(st.buf[:hdrLen])
	if err != nil {
		m.resetStream(st.id, []byte(err.Error()))
		return
	}
	id := st.id
	ps := newMuxPutStream(req.segment, req.index, m.settings.window, func(n int) { m.ctl.grant(id, n) })
	st.stream = ps
	st.fin = fin
	st.buf = nil
	// Chunks that arrived before the header completed were granted on
	// receipt; of this chunk the header bytes are consumed now, and the
	// assembler accounts for the entry bytes.
	if hdrBytes > 0 && !fin {
		m.ctl.grant(id, hdrBytes)
	}
	if err := ps.readFrom(m.r, fin); err != nil {
		m.resetStream(id, []byte(err.Error()))
		return
	}
	sctx, cancel := context.WithCancel(m.ctx)
	st.cancel = cancel
	m.s.m.muxStreams.Inc()
	m.wg.Add(1)
	go m.servePutStream(sctx, st, ps)
}

// sendReset tells the client to abandon one stream.
func (m *muxServerConn) sendReset(id uint32, msg string) {
	m.s.m.muxResets.Inc()
	m.ctl.reset(id, msg)
}

// resetStream aborts one stream: its dispatch context is canceled,
// its response writer released, and (when msg is non-nil) the client
// told to stop. Unknown ids are ignored — resets race completion.
func (m *muxServerConn) resetStream(id uint32, msg []byte) {
	m.mu.Lock()
	st, ok := m.streams[id]
	if ok {
		delete(m.streams, id)
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	st.send.close(fmt.Errorf("transport: mux stream %d reset", id))
	if st.stream != nil {
		st.stream.fail(fmt.Errorf("transport: mux stream %d reset", id))
	}
	if st.cancel != nil {
		st.cancel()
	}
	if msg != nil {
		m.sendReset(id, string(msg))
	}
}

// finishStream retires a completed stream.
func (m *muxServerConn) finishStream(st *muxServerStream) {
	m.mu.Lock()
	delete(m.streams, st.id)
	m.mu.Unlock()
	st.send.close(fmt.Errorf("transport: mux stream %d finished", st.id))
	if st.stream != nil {
		// If the consumer quit early (broken conn mid-ack) the read
		// loop may still feed the stream; failing it makes feed drop
		// further chunks instead of buffering them forever.
		st.stream.fail(fmt.Errorf("transport: mux stream %d finished", st.id))
	}
	if st.cancel != nil {
		st.cancel()
	}
}

// teardown fails every in-flight stream and waits for their handlers.
func (m *muxServerConn) teardown() {
	m.ctl.close()
	m.mu.Lock()
	streams := make([]*muxServerStream, 0, len(m.streams))
	for _, st := range m.streams {
		streams = append(streams, st)
	}
	m.streams = make(map[uint32]*muxServerStream)
	m.mu.Unlock()
	for _, st := range streams {
		st.send.close(fmt.Errorf("transport: mux connection closed"))
		if st.stream != nil {
			st.stream.fail(fmt.Errorf("transport: mux connection closed"))
		}
		if st.cancel != nil {
			st.cancel()
		}
	}
	m.wg.Wait()
}

// serveStream executes one reassembled request and streams its
// response back as credit-gated RESP chunks. It runs as its own
// goroutine: a 16 MB GET, a scrub, and a PING proceed concurrently on
// one connection, each blocking only on its own stream's window.
func (m *muxServerConn) serveStream(ctx context.Context, st *muxServerStream, req request) {
	defer m.wg.Done()
	defer m.finishStream(st)
	m.s.m.muxInflight.Add(1)
	defer m.s.m.muxInflight.Add(-1)
	var status byte
	var chunks [][]byte
	switch req.op {
	case opPutBatch, opGetBatch, opDeleteBatch, opCaps:
		start := time.Now()
		m.s.m.ops[req.op].Inc()
		scratch := getScratch()
		defer putScratch(scratch)
		status, chunks = m.s.dispatchBatch(ctx, req, scratch)
		m.s.m.opSeconds[req.op].Observe(time.Since(start).Seconds())
		if status != statusOK {
			m.s.m.errors.Inc()
		}
	case opMuxUpgrade:
		status, chunks = statusErr, [][]byte{[]byte("transport: connection already multiplexed")}
	default:
		st2, payload := m.s.dispatch(ctx, req)
		status = st2
		if len(payload) > 0 {
			chunks = [][]byte{payload}
		}
	}
	m.writeResponse(st, status, chunks)
}

// writeResponse streams one response as chunked RESP frames, taking
// per-stream credit before each chunk so a slow or abandoned reader
// stalls only this stream. The status rides on every frame (first
// wins client-side), so even an empty response carries it; on a
// connection that negotiated muxFeatureLen the first frame of a
// non-empty response also announces its total length.
func (m *muxServerConn) writeResponse(st *muxServerStream, status byte, chunks [][]byte) {
	total := 0
	for _, ch := range chunks {
		total += len(ch)
	}
	sized := m.settings.features&muxFeatureLen != 0
	stalled := func() { m.s.m.muxStalls.Inc() }
	var head [muxRespChunkOverhead + muxRespLenOverhead]byte
	head[1] = status
	written := 0
	for _, ch := range chunks {
		for len(ch) > 0 {
			n, err := st.send.take(len(ch), stalled)
			if err != nil {
				return // stream reset or connection down
			}
			h := head[:muxRespChunkOverhead]
			head[0] = 0
			if written == 0 && sized {
				head[0] = muxFlagLen
				binary.BigEndian.PutUint32(head[muxRespChunkOverhead:], uint32(total))
				h = head[:]
			}
			if written+n == total {
				head[0] |= muxFlagFIN
			}
			if err := writeMuxFrame(m.w, muxKindResp, st.id, h, ch[:n]); err != nil {
				return
			}
			written += n
			ch = ch[n:]
		}
	}
	if total == 0 {
		writeMuxFrame(m.w, muxKindResp, st.id, []byte{muxFlagFIN, status}, nil)
	}
}

// muxPutStream assembles one PUTSTREAM request's entries straight out
// of the connection's REQ chunks. The read loop parses each 8-byte
// entry header as it arrives, leases a buffer of exactly the entry's
// size and reads the entry's bytes into it; complete entries queue for
// the consumer goroutine (servePutStream), which stores each one and
// then releases it — returning the lease and the entry's credit.
//
// Flow control: an entry's wire bytes (header and data) stay owed to
// the client until its release, except that the oldest unreleased
// entry borrows — its bytes are granted the moment they land. Server
// buffering is therefore bounded by the stream window of owed bytes
// plus that one entry, and an entry larger than the window still
// completes. owed past the window means the client sent past its
// credit.
type muxPutStream struct {
	segment  string
	declared int // entry count from the request header's index field
	window   int
	grant    func(n int)

	// Assembly state, touched only by the connection's read loop.
	hdr  [putBatchEntryOverhead]byte
	hdrN int
	cur  *putStreamEntry // entry being assembled

	mu        sync.Mutex
	cond      *sync.Cond
	live      []*putStreamEntry // unreleased entries in stream order; live[0] borrows
	owed      int               // landed entry bytes not yet granted
	fin       bool
	truncated bool // FIN arrived mid-entry
	err       error
}

// putStreamEntry is one entry being assembled, queued or stored.
type putStreamEntry struct {
	index int
	data  []byte
	lease *[]byte // data's pooled backing buffer; nil for empty entries
	fill  int     // bytes of data landed so far
	owed  int     // landed bytes not yet granted
	done  bool
}

func newMuxPutStream(segment string, declared, window int, grant func(n int)) *muxPutStream {
	p := &muxPutStream{segment: segment, declared: declared, window: window, grant: grant}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// readFrom consumes the rest of the current REQ chunk from r into the
// stream's entries. A malformed entry or a client past its credit
// fails the stream and is returned; a read error is returned as is
// (the reader keeps it). Chunks after a failure are left unread — the
// reset is already on its way to the client.
func (p *muxPutStream) readFrom(r *muxReader, fin bool) error {
	for r.remain > 0 {
		p.mu.Lock()
		err := p.err
		p.mu.Unlock()
		if err != nil {
			return nil
		}
		if p.cur == nil {
			n := min(putBatchEntryOverhead-p.hdrN, r.remain)
			if err := r.readFull(p.hdr[p.hdrN : p.hdrN+n]); err != nil {
				return err
			}
			p.hdrN += n
			if p.hdrN < putBatchEntryOverhead {
				continue
			}
			if err := p.begin(); err != nil {
				return err
			}
			continue
		}
		e := p.cur
		n := min(len(e.data)-e.fill, r.remain)
		if err := r.readFull(e.data[e.fill : e.fill+n]); err != nil {
			return err
		}
		e.fill += n
		if err := p.landed(e, n); err != nil {
			return err
		}
	}
	if fin {
		p.mu.Lock()
		p.fin = true
		p.truncated = p.hdrN > 0 || p.cur != nil
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	return nil
}

// begin starts the entry whose header just completed, accounting for
// the header's bytes as the entry's first.
func (p *muxPutStream) begin() error {
	idx := int(binary.BigEndian.Uint32(p.hdr[0:4]))
	n := int(binary.BigEndian.Uint32(p.hdr[4:8]))
	p.hdrN = 0
	if idx < 0 || n < 0 || n > MaxFrame {
		err := fmt.Errorf("transport: malformed put stream entry (index %d, %d bytes)", idx, n)
		p.fail(err)
		return err
	}
	e := &putStreamEntry{index: idx}
	if n > 0 {
		//lint:ignore poollease ownership moves to the entry; release returns it after the store's Put
		e.lease = leaseEntryBuf(n)
		e.data = *e.lease
		p.cur = e
	}
	p.mu.Lock()
	p.live = append(p.live, e)
	p.mu.Unlock()
	return p.landed(e, putBatchEntryOverhead)
}

// landed accounts for n wire bytes of e that just arrived, granting
// them at once when e is the borrowing entry, and queues e once
// complete.
func (p *muxPutStream) landed(e *putStreamEntry, n int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live[0] == e {
		p.grant(n)
	} else {
		e.owed += n
		p.owed += n
		if p.owed > p.window {
			return p.failLocked(errors.New("transport: mux request body overflow"))
		}
	}
	if e.fill == len(e.data) {
		e.done = true
		p.cur = nil
		p.cond.Broadcast()
	}
	return nil
}

// next blocks until the oldest unreleased entry is complete and
// returns it; the caller must release it before calling next again.
// Complete entries are handed out even after a truncating FIN, which
// is reported once they are; io.EOF means the FIN chunk arrived and
// every entry was handed out.
func (p *muxPutStream) next() (*putStreamEntry, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.err != nil {
			return nil, p.err
		}
		if len(p.live) > 0 && p.live[0].done {
			return p.live[0], nil
		}
		if p.fin {
			if p.truncated {
				return nil, errors.New("transport: truncated put stream entry")
			}
			return nil, io.EOF
		}
		p.cond.Wait()
	}
}

// release retires the entry next returned once the store is done with
// it: its buffer goes back to the pool, and the following entry
// becomes the borrower, so the bytes it owes are granted now. (The
// released entry owes nothing: it has borrowed since it became the
// oldest.)
func (p *muxPutStream) release(e *putStreamEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live[0] = nil
	p.live = p.live[1:]
	releaseEntryBuf(e.lease)
	if p.err != nil || len(p.live) == 0 {
		return
	}
	if b := p.live[0]; b.owed > 0 {
		p.owed -= b.owed
		p.grant(b.owed)
		b.owed = 0
	}
}

// fail wakes the consumer with a terminal error (stream reset,
// connection down). The first error wins.
func (p *muxPutStream) fail(err error) {
	p.mu.Lock()
	p.failLocked(err)
	p.mu.Unlock()
}

func (p *muxPutStream) failLocked(err error) error {
	if p.err == nil {
		p.err = err
	}
	p.cond.Broadcast()
	return err
}

// servePutStream consumes one PUTSTREAM request's entries as they
// arrive, storing and acking each one immediately — the server half
// of the pipelined write path. An entry's credit returns when its
// store completes, so a stalled store backpressures the client instead
// of buffering the request.
func (m *muxServerConn) servePutStream(ctx context.Context, st *muxServerStream, ps *muxPutStream) {
	defer m.wg.Done()
	defer m.finishStream(st)
	m.s.m.muxInflight.Add(1)
	defer m.s.m.muxInflight.Add(-1)
	start := time.Now()
	m.s.m.ops[opPutStream].Inc()
	defer func() {
		m.s.m.opSeconds[opPutStream].Observe(time.Since(start).Seconds())
	}()
	var ackBuf []byte
	count := 0
	for {
		if ctx.Err() != nil {
			return // connection tearing down; finishStream fails the feed
		}
		e, err := ps.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			m.s.m.errors.Inc()
			m.resetStream(st.id, []byte(err.Error()))
			return
		}
		count++
		if count > ps.declared {
			m.s.m.errors.Inc()
			m.resetStream(st.id, []byte("transport: put stream entries exceed declared count"))
			return
		}
		m.s.m.batchBlocks.Inc()
		status, msg := m.putStreamEntry(ctx, ps.segment, e.index, e.data)
		// The store does not retain entry data (blockstore.Store), so
		// the buffer and its credit go back as soon as Put returns.
		ps.release(e)
		ackBuf = appendBatchResultHeader(ackBuf[:0], e.index, status, len(msg))
		ackBuf = append(ackBuf, msg...)
		if !m.writeAck(st, ackBuf) {
			return
		}
	}
	if count != ps.declared {
		m.s.m.errors.Inc()
		m.resetStream(st.id, []byte(fmt.Sprintf("transport: put stream ended after %d of %d entries", count, ps.declared)))
		return
	}
	writeMuxFrame(m.w, muxKindResp, st.id, []byte{muxFlagFIN, statusOK}, nil)
}

// putStreamEntry stores one streamed entry under the same admission
// gate as the other data-path ops, sized by the entry rather than the
// whole (unbounded) stream.
func (m *muxServerConn) putStreamEntry(ctx context.Context, segment string, idx int, data []byte) (byte, []byte) {
	if m.s.opts.Admission != nil {
		release, err := m.s.opts.Admission.Admit(ctx, admission.Request{Bytes: int64(len(data))})
		if err != nil {
			m.s.m.busy.Inc()
			return statusBusy, []byte(err.Error())
		}
		defer release()
	}
	return batchStatus(m.s.store.Put(ctx, segment, idx, data))
}

// writeAck streams one ack entry as credit-gated RESP chunks, FIN-less
// — the response half closes with an empty FIN after the last entry.
func (m *muxServerConn) writeAck(st *muxServerStream, ack []byte) bool {
	stalled := func() { m.s.m.muxStalls.Inc() }
	for len(ack) > 0 {
		n, err := st.send.take(len(ack), stalled)
		if err != nil {
			return false // stream reset or connection down
		}
		if err := writeMuxFrame(m.w, muxKindResp, st.id, []byte{0, statusOK}, ack[:n]); err != nil {
			return false
		}
		ack = ack[n:]
	}
	return true
}
