package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
)

// ErrMuxUnavailable reports that a streaming operation needs the
// multiplexed transport but the server does not speak it (or the
// upgrade could not be established right now). Callers fall back to
// the batch or single-op paths.
var ErrMuxUnavailable = errors.New("transport: mux transport unavailable")

// errMuxConnClosed reports an exchange cut short by its mux
// connection dying (read error, protocol violation, or Close); the
// request may or may not have reached the server.
var errMuxConnClosed = errors.New("transport: mux connection closed")

// HealthReporter receives per-server outcomes from the transport
// layer itself — most importantly per-stream timeouts observed by the
// mux demux path, which a caller that already hedged away may never
// surface to the failure detector. *health.Tracker implements it.
type HealthReporter interface {
	ReportSuccess(addr string)
	ReportFailure(addr string)
}

// muxConn is the client half of one multiplexed connection: a demux
// goroutine routes incoming frames to per-stream state, exchanges run
// concurrently as streams, and a per-stream failure (timeout, reset)
// never touches the connection or its other streams.
type muxConn struct {
	c        *Client
	conn     net.Conn
	w        *lockedWriter
	ctl      *ctlQueue
	settings muxSettings
	slots    chan struct{} // bounds concurrently open streams

	mu      sync.Mutex
	streams map[uint32]*muxStream
	nextID  uint32
	dead    bool
	err     error

	done chan struct{} // closed when the demux loop exits
}

// muxStream is one in-flight exchange on a muxConn.
type muxStream struct {
	id   uint32
	send *creditGate // request-direction flow control

	mu        sync.Mutex
	status    byte
	gotStatus bool
	// onData, when set (under mu, before the request goes out),
	// receives OK-status response chunks as they arrive instead of
	// buffering them in buf — the streaming-ack fast path. The chunk
	// aliases the connection's scratch buffer and is valid only during
	// the call.
	onData func(chunk []byte)
	// buf collects a buffered response, allocated at the length its
	// first frame announced (sized).
	buf      []byte
	sized    bool
	finished bool
	err      error
	done     chan struct{}
}

// finish completes a stream exactly once.
func (s *muxStream) finish(err error) {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.err = err
	s.mu.Unlock()
	s.send.close(errors.New("transport: mux stream finished"))
	close(s.done)
}

func (s *muxStream) isFinished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finished
}

// muxDefaults are the client's proposed settings (clamped by
// ClientOptions and by the server during negotiation).
func (c *Client) muxProposal() muxSettings {
	s := muxSettings{window: defaultMuxWindow, maxStreams: defaultMuxStreams, features: muxFeatureLen}
	if c.muxWindow > 0 {
		s.window = c.muxWindow
	}
	if c.muxStreams > 0 {
		s.maxStreams = c.muxStreams
	}
	return s
}

// muxFor returns a live mux connection when the server is known to
// speak transport v2 with sized responses (CAPS already probed,
// capMux and capMuxLen set) and the mux is enabled; nil sends the
// caller down the v1 path, as it does for a v2 server that predates
// capMuxLen. Establishment
// happens at most once at a time; a caller that finds no live
// connection while one is being established waits for it (bounded by
// ctx) instead of falling back, so a cold client's first burst rides
// the mux too. Failures are not retried for muxRedialBackoff, so a
// flapping upgrade cannot stall the data path — it degrades to v1 and
// heals later.
func (c *Client) muxFor(ctx context.Context) *muxConn {
	if c.muxDisabled {
		return nil
	}
	if v := c.caps.Load(); v == 0 || (v>>1)&capMuxData != capMuxData {
		return nil
	}
	c.muxMu.Lock()
	for c.muxEstablishing && !c.muxClosed && !c.hasLiveMux() {
		ready := c.muxReady
		c.muxMu.Unlock()
		select {
		case <-ready:
		case <-ctx.Done():
			return nil
		}
		c.muxMu.Lock()
	}
	if c.muxClosed {
		c.muxMu.Unlock()
		return nil
	}
	// Reap dead conns, then pick the live conn with a free slot bias
	// (round robin).
	live := c.muxConns[:0]
	for _, m := range c.muxConns {
		if !m.isDead() {
			live = append(live, m)
		}
	}
	c.muxConns = live
	if len(live) >= c.muxMaxConns || c.muxEstablishing || time.Now().Before(c.muxRetryAt) {
		m := c.pickMuxLocked()
		c.muxMu.Unlock()
		return m
	}
	c.muxEstablishing = true
	ready := make(chan struct{})
	c.muxReady = ready
	c.muxMu.Unlock()

	m, err := c.establishMux(ctx)
	c.muxMu.Lock()
	defer c.muxMu.Unlock()
	c.muxEstablishing = false
	close(ready)
	if err != nil {
		c.muxRetryAt = time.Now().Add(muxRedialBackoff)
		c.m.muxFallbacks.Inc()
		return c.pickMuxLocked()
	}
	if c.muxClosed {
		m.fatal(errClientClosed)
		return nil
	}
	c.muxConns = append(c.muxConns, m)
	return m
}

// hasLiveMux reports whether any mux conn is still up (muxMu held).
func (c *Client) hasLiveMux() bool {
	for _, m := range c.muxConns {
		if !m.isDead() {
			return true
		}
	}
	return false
}

// pickMuxLocked round-robins over the mux conns (muxMu held; the
// caller reaped dead ones), nil when there are none.
func (c *Client) pickMuxLocked() *muxConn {
	n := len(c.muxConns)
	if n == 0 {
		return nil
	}
	m := c.muxConns[c.muxNext%n]
	c.muxNext++
	return m
}

// muxRedialBackoff spaces out failed upgrade attempts.
const muxRedialBackoff = 500 * time.Millisecond

// establishMux dials a dedicated connection and performs the MUXUP
// handshake: a v1 exchange proposing settings, answered with the
// server's (clamped) choice, after which the connection speaks v2.
func (c *Client) establishMux(ctx context.Context) (*muxConn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		c.m.dialErrors.Inc()
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(c.dialTimeout))
	body, err := encodeRequest(opMuxUpgrade, "-", 0, encodeMuxSettings(c.muxProposal()))
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := writeFrame(conn, body); err != nil {
		conn.Close()
		return nil, err
	}
	resp, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if len(resp) < 1 || resp[0] != statusOK {
		conn.Close()
		return nil, fmt.Errorf("%w: upgrade refused", ErrMuxUnavailable)
	}
	settings, err := decodeMuxSettings(resp[1:])
	if err != nil {
		conn.Close()
		return nil, err
	}
	if settings.features&muxFeatureLen == 0 {
		conn.Close()
		return nil, fmt.Errorf("%w: server declined sized responses", ErrMuxUnavailable)
	}
	conn.SetDeadline(time.Time{})
	m := &muxConn{
		c:        c,
		conn:     conn,
		w:        &lockedWriter{w: conn},
		ctl:      newCtlQueue(),
		settings: settings,
		slots:    make(chan struct{}, settings.maxStreams),
		streams:  make(map[uint32]*muxStream),
		nextID:   1,
		done:     make(chan struct{}),
	}
	c.m.muxDials.Inc()
	go m.ctl.run(m.w, m.fatal)
	go m.demux()
	return m, nil
}

func (m *muxConn) isDead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// fatal kills the connection: every in-flight stream fails with err,
// late frames are ignored, and the next exchange establishes a fresh
// mux (or falls back to v1). Safe to call from any goroutine, once or
// many times.
func (m *muxConn) fatal(err error) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		return
	}
	m.dead = true
	m.err = err
	streams := make([]*muxStream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.streams = make(map[uint32]*muxStream)
	m.mu.Unlock()
	m.ctl.close()
	m.conn.Close()
	m.c.m.muxConnFailures.Inc()
	if m.c.health != nil && !errors.Is(err, errClientClosed) {
		m.c.health.ReportFailure(m.c.addr)
	}
	for _, s := range streams {
		s.finish(fmt.Errorf("%w: %w", errMuxConnClosed, err))
	}
}

// register allocates a stream id and installs the stream.
func (m *muxConn) register() (*muxStream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, fmt.Errorf("%w: %w", errMuxConnClosed, m.err)
	}
	for {
		id := m.nextID
		m.nextID++
		if m.nextID == 0 { // id 0 is reserved; skip on wraparound
			m.nextID = 1
		}
		if _, taken := m.streams[id]; taken || id == 0 {
			continue
		}
		s := &muxStream{
			id:   id,
			send: newCreditGate(m.settings.window),
			done: make(chan struct{}),
		}
		m.streams[id] = s
		return s, nil
	}
}

// unregister removes a stream so late frames for it are discarded
// (and its flow-control credit is never granted again).
func (m *muxConn) unregister(id uint32) {
	m.mu.Lock()
	delete(m.streams, id)
	m.mu.Unlock()
}

func (m *muxConn) lookup(id uint32) (*muxStream, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.streams[id]
	return s, ok
}

// demux is the connection's read loop: it routes every incoming frame
// to its stream, grants flow-control credit for consumed chunks, and
// tears the connection down on the first protocol violation or read
// error. It deliberately has no context: the loop exits when the
// connection closes, which fatal() and Close() both arrange.
//
//lint:ignore ctxcancel conn-lifetime loop; fatal()/Close() unblock the frame reader via conn.Close
func (m *muxConn) demux() {
	defer close(m.done)
	r := newMuxReader(m.conn)
	for {
		f, err := r.next()
		if err != nil {
			m.fatal(err)
			return
		}
		m.c.m.muxFramesRecv.Inc()
		switch f.kind {
		case muxKindResp:
			s, ok := m.lookup(f.id)
			if !ok {
				// Late frame for a timed-out/completed stream: discard
				// without granting credit — the server quiesces on its
				// own window, and the earlier RESET told it to stop.
				m.c.m.muxLateFrames.Inc()
				continue
			}
			if err := s.readResp(r, f); err != nil {
				m.fatal(err)
				return
			}
			if f.n > 0 {
				// Return consumed credit via the async control queue so
				// this read loop never blocks on the write side (see
				// ctlQueue for the two-sided deadlock it prevents).
				m.ctl.grant(f.id, f.n)
			}
			if f.flags&muxFlagFIN != 0 {
				s.mu.Lock()
				short := len(s.buf) != cap(s.buf)
				s.mu.Unlock()
				if short {
					m.fatal(fmt.Errorf("transport: mux stream %d ended short of its announced length", f.id))
					return
				}
				m.unregister(f.id)
				s.finish(nil)
			}
		case muxKindWindow:
			if s, ok := m.lookup(f.id); ok {
				s.send.grant(f.credit)
			}
		case muxKindReset:
			if s, ok := m.lookup(f.id); ok {
				msg, err := r.chunk()
				if err != nil {
					m.fatal(err)
					return
				}
				m.unregister(f.id)
				s.finish(fmt.Errorf("transport: stream reset by server: %s", msg))
			}
		default: // REQ from a server
			m.fatal(fmt.Errorf("transport: unexpected mux frame kind %d from server", f.kind))
			return
		}
	}
}

// readResp consumes one RESP frame's chunk for the stream. OK chunks of
// a streaming exchange go to onData from the reader's scratch buffer;
// everything else lands in the stream's response buffer, allocated
// once at the length the first frame announces and filled straight
// from the connection. Only the response's owner reads buf, and only
// after the stream finishes, so the socket read runs without s.mu —
// an abandon never waits on a slow frame.
func (s *muxStream) readResp(r *muxReader, f muxFrame) error {
	s.mu.Lock()
	if !s.gotStatus {
		s.status = f.status
		s.gotStatus = true
	}
	if onData := s.onData; onData != nil && s.status == statusOK {
		s.mu.Unlock()
		if f.n == 0 {
			return nil
		}
		chunk, err := r.chunk()
		if err != nil {
			return err
		}
		onData(chunk)
		return nil
	}
	// Buffered path — also where a streaming op's error response lands,
	// so statusToError sees the message. The first frame of a buffered
	// response announces its length; no chunk may run past it.
	if f.flags&muxFlagLen != 0 && !s.sized {
		s.sized = true
		s.buf = make([]byte, 0, f.total)
	}
	off := len(s.buf)
	if off+f.n > cap(s.buf) {
		s.mu.Unlock()
		return fmt.Errorf("transport: mux stream %d carries %d response bytes, announced %d", f.id, off+f.n, cap(s.buf))
	}
	s.buf = s.buf[:off+f.n]
	dst := s.buf[off:]
	s.mu.Unlock()
	return r.readFull(dst)
}

// exchange runs one request/response over its own stream. chunks is
// the v1-encoded request body (header + payload pieces); contents
// must stay valid until exchange returns. Timeouts and cancellations
// abandon only this stream: a RESET tells the server to drop the
// work, credit stops flowing, and the connection keeps serving its
// other streams — the v1 path would have discarded the pooled
// connection instead.
func (m *muxConn) exchange(ctx context.Context, chunks [][]byte) (byte, []byte, error) {
	select {
	case m.slots <- struct{}{}:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	case <-m.done:
		return 0, nil, fmt.Errorf("%w: %w", errMuxConnClosed, m.connErr())
	}
	defer func() { <-m.slots }()

	s, err := m.register()
	if err != nil {
		return 0, nil, err
	}
	m.c.m.muxStreams.Inc()
	m.c.m.muxInflight.Add(1)
	defer m.c.m.muxInflight.Add(-1)
	start := time.Now()

	// The abandon watcher: cancellation and per-stream timeout both
	// finish the stream locally and RESET it remotely, without
	// touching the connection.
	var timeout <-chan time.Time
	if m.c.reqTimeout > 0 {
		t := time.NewTimer(m.c.reqTimeout)
		defer t.Stop()
		timeout = t.C
	}
	watchDone := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		select {
		case <-ctx.Done():
			m.abandon(s, ctx.Err())
		case <-timeout:
			m.c.m.muxStreamTimeouts.Inc()
			if m.c.health != nil {
				m.c.health.ReportFailure(m.c.addr)
			}
			m.abandon(s, fmt.Errorf("%w after %v: mux stream %d", ErrRequestTimeout, m.c.reqTimeout, s.id))
		case <-s.done:
		case <-watchDone:
		}
	}()
	defer func() {
		close(watchDone)
		watch.Wait()
	}()

	if err := m.writeRequest(s, chunks); err != nil {
		// The stream may already carry a more precise failure (timeout,
		// reset) that closed the send gate under the writer.
		<-s.done
		if s.err != nil {
			return 0, nil, s.err
		}
		return 0, nil, err
	}
	<-s.done
	if s.err != nil {
		return 0, nil, s.err
	}
	if !s.gotStatus {
		m.fatal(fmt.Errorf("transport: mux stream %d finished without a status", s.id))
		return 0, nil, fmt.Errorf("transport: empty mux response")
	}
	if m.c.health != nil {
		m.c.health.ReportSuccess(m.c.addr)
	}
	var sent int64
	for _, ch := range chunks {
		sent += int64(len(ch))
	}
	m.c.m.bytesSent.Add(sent)
	m.c.m.bytesRecv.Add(int64(len(s.buf)))
	m.c.m.roundTrip.Observe(time.Since(start).Seconds())
	return s.status, s.buf, nil
}

// abandon fails one stream locally and RESETs it remotely.
func (m *muxConn) abandon(s *muxStream, err error) {
	if s.isFinished() {
		return
	}
	m.unregister(s.id)
	s.finish(err)
	m.c.m.muxResets.Inc()
	// Best effort: if the conn is unwritable the demux will notice.
	m.ctl.reset(s.id, "abandoned by client")
}

// connErr returns the connection's terminal error.
func (m *muxConn) connErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	return errors.New("transport: mux connection down")
}

// writeRequest streams the request body as credit-gated REQ chunks.
func (m *muxConn) writeRequest(s *muxStream, chunks [][]byte) error {
	// Total so the final chunk carries FIN even when it lands on a
	// piece boundary.
	total := 0
	for _, ch := range chunks {
		total += len(ch)
	}
	written := 0
	stalled := func() { m.c.m.muxFlowStalls.Inc() }
	for _, ch := range chunks {
		for len(ch) > 0 {
			n, err := s.send.take(len(ch), stalled)
			if err != nil {
				return err
			}
			fin := byte(0)
			if written+n == total {
				fin = muxFlagFIN
			}
			if err := writeMuxFrame(m.w, muxKindReq, s.id, []byte{fin}, ch[:n]); err != nil {
				m.fatal(err)
				return err
			}
			m.c.m.muxFramesSent.Inc()
			ch = ch[n:]
			written += n
		}
	}
	if total == 0 {
		if err := writeMuxFrame(m.w, muxKindReq, s.id, []byte{muxFlagFIN}, nil); err != nil {
			m.fatal(err)
			return err
		}
		m.c.m.muxFramesSent.Inc()
	}
	return nil
}

// close shuts the mux connection down (Client.Close).
func (m *muxConn) close() {
	m.fatal(errClientClosed)
	<-m.done
}

// GetStream fetches many blocks concurrently over the multiplexed
// transport, delivering each block the moment its response frames
// complete — out of order, exactly as the decoder wants them. Every
// index becomes its own stream (with the usual idempotent retry
// policy), so a stalled block stalls only itself. Returns
// ErrMuxUnavailable without calling deliver when the server does not
// speak transport v2; callers then fall back to batch windows.
// deliver may be called from multiple goroutines.
func (c *Client) GetStream(ctx context.Context, segment string, indices []int, deliver func(index int, data []byte, err error)) error {
	if c.capabilities(ctx)&capMuxData != capMuxData {
		return ErrMuxUnavailable
	}
	if c.muxFor(ctx) == nil {
		return ErrMuxUnavailable
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, defaultMuxStreams/2)
	for _, idx := range indices {
		if err := ctx.Err(); err != nil {
			deliver(idx, nil, err)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(idx int) {
			defer wg.Done()
			defer func() { <-sem }()
			data, err := c.Get(ctx, segment, idx)
			deliver(idx, data, err)
		}(idx)
	}
	wg.Wait()
	return nil
}

// PutStream ships many blocks over one pipelined PUTSTREAM stream:
// the server stores and acknowledges each entry as its bytes arrive,
// and acked(i, err) fires in order, exactly once per entry, as those
// acks come back — so the caller learns of durable blocks while later
// entries are still in flight. acked runs on transport goroutines and
// must not block or call back into the Client. Entry data is not
// retained after PutStream returns.
//
// The contract mirrors GetStream's: a non-nil return means acked was
// never called — the server lacks the capability (ErrMuxUnavailable)
// or the stream failed before any ack — and every entry may be safely
// retried on the batch or single-op paths. Once the first ack lands,
// PutStream returns nil and any mid-stream failure is delivered
// through acked for the remaining entries instead.
func (c *Client) PutStream(ctx context.Context, segment string, puts []blockstore.BatchPut, acked func(i int, err error)) error {
	caps := c.capabilities(ctx)
	if caps&capMuxData != capMuxData || caps&capPutStream == 0 {
		return ErrMuxUnavailable
	}
	m := c.muxFor(ctx)
	if m == nil {
		return ErrMuxUnavailable
	}
	if len(segment) > 0xFFFF {
		return fmt.Errorf("transport: segment name too long (%d bytes)", len(segment))
	}
	for _, p := range puts {
		if p.Index < 0 {
			return fmt.Errorf("transport: negative block index")
		}
	}
	if len(puts) == 0 {
		return nil
	}
	return m.putStream(ctx, segment, puts, acked)
}

// putStreamAcks parses the server's streamed ack entries and delivers
// them in order. feed runs on the demux goroutine; the final drain
// (after the stream closes) runs on the putStream goroutine — the
// mutex plus the done flag serialize the two so acked never runs
// twice for an entry or from two goroutines at once.
type putStreamAcks struct {
	m     *muxConn
	s     *muxStream
	puts  []blockstore.BatchPut
	acked func(i int, err error)

	progress atomic.Int64 // UnixNano of the last ack, for the stall watcher

	mu   sync.Mutex
	buf  []byte
	pos  int  // entries acked so far
	done bool // terminal drain started; drop late feeds
}

func (p *putStreamAcks) feed(chunk []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	p.buf = append(p.buf, chunk...)
	for len(p.buf) >= batchResultOverhead {
		idx := int(binary.BigEndian.Uint32(p.buf[0:4]))
		status := p.buf[4]
		n := int(binary.BigEndian.Uint32(p.buf[5:9]))
		if idx < 0 || n < 0 || n > MaxFrame {
			p.fail(fmt.Errorf("transport: malformed put stream ack (index %d, %d bytes)", idx, n))
			return
		}
		if len(p.buf) < batchResultOverhead+n {
			return // wait for the rest of the message
		}
		if p.pos >= len(p.puts) || idx != p.puts[p.pos].Index {
			p.fail(fmt.Errorf("transport: put stream ack for index %d, want %d", idx, p.puts[p.pos%len(p.puts)].Index))
			return
		}
		err := batchEntryError(status, p.buf[batchResultOverhead:batchResultOverhead+n])
		p.buf = p.buf[batchResultOverhead+n:]
		i := p.pos
		p.pos++
		p.progress.Store(time.Now().UnixNano())
		p.acked(i, err)
	}
}

// fail abandons the stream on a protocol violation (called with p.mu
// held); the terminal error reaches un-acked entries via the drain.
func (p *putStreamAcks) fail(err error) {
	p.done = true
	p.m.abandon(p.s, err)
}

// putStream runs one PUTSTREAM exchange. Unlike exchange, the
// per-stream timeout is progress-aware: it re-arms while acks keep
// arriving, so a long stream only times out when it stalls.
func (m *muxConn) putStream(ctx context.Context, segment string, puts []blockstore.BatchPut, acked func(i int, err error)) error {
	select {
	case m.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-m.done:
		return fmt.Errorf("%w: %w", errMuxConnClosed, m.connErr())
	}
	defer func() { <-m.slots }()

	s, err := m.register()
	if err != nil {
		return err
	}
	m.c.m.muxStreams.Inc()
	m.c.m.muxInflight.Add(1)
	defer m.c.m.muxInflight.Add(-1)
	start := time.Now()

	p := &putStreamAcks{m: m, s: s, puts: puts, acked: acked}
	p.progress.Store(start.UnixNano())
	s.mu.Lock()
	s.onData = p.feed
	s.mu.Unlock()

	var timeout <-chan time.Time
	var timer *time.Timer
	if m.c.reqTimeout > 0 {
		timer = time.NewTimer(m.c.reqTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	watchDone := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		for {
			select {
			case <-ctx.Done():
				m.abandon(s, ctx.Err())
				return
			case <-timeout:
				if idle := time.Since(time.Unix(0, p.progress.Load())); idle < m.c.reqTimeout {
					timer.Reset(m.c.reqTimeout - idle)
					continue
				}
				m.c.m.muxStreamTimeouts.Inc()
				if m.c.health != nil {
					m.c.health.ReportFailure(m.c.addr)
				}
				m.abandon(s, fmt.Errorf("%w after %v: mux stream %d stalled", ErrRequestTimeout, m.c.reqTimeout, s.id))
				return
			case <-s.done:
				return
			case <-watchDone:
				return
			}
		}
	}()
	defer func() {
		close(watchDone)
		watch.Wait()
	}()

	// The request reuses the PUTBATCH wire shape (header into pooled
	// scratch, entry data referenced in place); only the op differs.
	scratch := getScratch()
	defer putScratch(scratch)
	growScratch(scratch, requestHeaderLen(segment)+putBatchEntryOverhead*len(puts))
	chunks := make([][]byte, 0, 1+2*len(puts))
	*scratch = appendRequestHeader(*scratch, opPutStream, segment, len(puts))
	chunks = append(chunks, *scratch)
	for _, e := range puts {
		off := len(*scratch)
		*scratch = appendPutEntryHeader(*scratch, e.Index, len(e.Data))
		chunks = append(chunks, (*scratch)[off:len(*scratch)])
		if len(e.Data) > 0 {
			chunks = append(chunks, e.Data)
		}
	}

	werr := m.writeRequest(s, chunks)
	<-s.done

	var terminal error
	switch {
	case s.err != nil:
		terminal = s.err
	case !s.gotStatus:
		terminal = errors.New("transport: empty mux response")
	case s.status != statusOK:
		terminal = statusToError(s.status, s.buf)
	case werr != nil:
		terminal = werr
	}
	p.mu.Lock()
	p.done = true
	pos := p.pos
	p.mu.Unlock()
	if terminal == nil && pos < len(puts) {
		terminal = fmt.Errorf("transport: put stream truncated after %d of %d acks", pos, len(puts))
	}
	if pos == 0 && terminal != nil {
		return terminal // nothing acked: the caller may retry every entry
	}
	for i := pos; i < len(puts); i++ {
		acked(i, terminal)
	}
	if m.c.health != nil && terminal == nil {
		m.c.health.ReportSuccess(m.c.addr)
	}
	var sent int64
	for _, ch := range chunks {
		sent += int64(len(ch))
	}
	m.c.m.bytesSent.Add(sent)
	m.c.m.roundTrip.Observe(time.Since(start).Seconds())
	return nil
}
