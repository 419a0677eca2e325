package transport

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/blockstore"
	"repro/internal/obs"
)

// ServerOptions configure a block server.
type ServerOptions struct {
	// Admission optionally gates the data path (§5.4): every GET, every
	// PUT and each PUTSTREAM entry is admitted before it reaches the
	// store, sized by the bytes it carries in (none for a GET). Admit
	// may wait for capacity; a request it refuses (too large, controller
	// closed, or its context ended first) is answered with BUSY.
	Admission admission.Controller
	// Logger receives connection-level errors; nil discards them.
	Logger *log.Logger
	// Obs, when non-nil, receives server metrics (transport_server_*:
	// per-op counts and latency, open connections, errors, admission
	// refusals).
	Obs *obs.Registry
}

// Server exposes a blockstore.Store over the block protocol.
type Server struct {
	store blockstore.Store
	opts  ServerOptions
	m     serverMetrics
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a store. Call Serve (usually in a goroutine) with a
// listener, or ListenAndServe.
func NewServer(store blockstore.Store, opts ServerOptions) *Server {
	return &Server{
		store: store,
		opts:  opts,
		m:     newServerMetrics(opts.Obs),
		conns: make(map[net.Conn]struct{}),
	}
}

// ListenAndServe listens on addr ("host:port") and serves until
// Close. To learn the bound address of an ephemeral port (":0"),
// create the listener yourself and call Serve instead.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("transport: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes all connections, and waits for the
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}

// prefaceTimeout bounds how long a new connection may take to send
// its preface.
const prefaceTimeout = 10 * time.Second

// handle serves one connection. Its first bytes must be a valid
// preface; anything else — garbage, non-positive settings, a frame of
// an older protocol — closes the connection before any stream is
// served. After the preface answer the connection is multiplexed
// until it drops. The per-connection context is canceled when the
// connection drops, which aborts in-flight store operations — the
// server side of RobuSTore's request cancellation (§5.3.3): a client
// that hangs up cancels its queued work.
func (s *Server) handle(conn net.Conn) {
	s.m.conns.Add(1)
	defer func() {
		s.m.conns.Add(-1)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	conn.SetReadDeadline(time.Now().Add(prefaceTimeout))
	peer, err := readPreface(conn)
	if err != nil {
		s.m.badPrefaces.Inc()
		s.logf("transport: bad preface from %v: %v", conn.RemoteAddr(), err)
		return
	}
	chosen := muxDefaults.negotiate(peer)
	if _, err := conn.Write(encodePreface(chosen)); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.serveMux(ctx, conn, chosen)
}

// batchStatus maps a per-entry store error onto a wire status and
// message.
func batchStatus(err error) (byte, []byte) {
	switch {
	case err == nil:
		return statusOK, nil
	case errors.Is(err, blockstore.ErrNotFound):
		return statusNotFound, nil
	default:
		return statusErr, []byte(err.Error())
	}
}

// deleteBatch deletes every index, through the store's batch delete
// when it has one, and encodes the per-entry results. Per-entry
// failures are reported in the entry's status — one bad block never
// fails its batch.
func (s *Server) deleteBatch(ctx context.Context, segment string, indices []int) []byte {
	var errs []error
	if bs, ok := s.store.(blockstore.Batcher); ok {
		errs = bs.DeleteBatch(ctx, segment, indices)
	} else {
		errs = make([]error, len(indices))
		for i, idx := range indices {
			if errs[i] = ctx.Err(); errs[i] == nil {
				errs[i] = s.store.Delete(ctx, segment, idx)
			}
		}
	}
	out := make([]byte, 0, batchResultOverhead*len(indices))
	for i, idx := range indices {
		status, msg := batchStatus(errs[i])
		out = appendBatchResultHeader(out, idx, status, len(msg))
		out = append(out, msg...)
	}
	return out
}

// dispatch executes one request against the store and records per-op
// metrics (count, latency, errors).
func (s *Server) dispatch(ctx context.Context, req request) (status byte, payload []byte) {
	start := time.Now()
	s.m.ops[req.op].Inc() // nil map yields a nil (no-op) counter
	defer func() {
		s.m.opSeconds[req.op].Observe(time.Since(start).Seconds())
		switch status {
		case statusErr:
			s.m.errors.Inc()
		case statusBusy:
			s.m.busy.Inc()
		}
	}()
	// Admission control guards the data-path operations.
	if s.opts.Admission != nil && (req.op == opGet || req.op == opPut) {
		release, err := s.opts.Admission.Admit(ctx, admission.Request{Bytes: int64(len(req.payload))})
		if err != nil {
			return statusBusy, []byte(err.Error())
		}
		defer release()
	}
	switch req.op {
	case opPing:
		return statusOK, nil
	case opPut:
		if err := s.store.Put(ctx, req.segment, req.index, req.payload); err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, nil
	case opGet:
		b, err := s.store.Get(ctx, req.segment, req.index)
		if errors.Is(err, blockstore.ErrNotFound) {
			return statusNotFound, nil
		}
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, b
	case opDelete:
		if err := s.store.Delete(ctx, req.segment, req.index); err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, nil
	case opList:
		idx, err := s.store.List(ctx, req.segment)
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, encodeIndices(idx)
	case opDeleteBatch:
		indices, err := decodeIndices(req.payload)
		if err != nil || len(indices) != req.index {
			return statusErr, []byte("transport: malformed delete batch")
		}
		s.m.batchBlocks.Add(int64(len(indices)))
		return statusOK, s.deleteBatch(ctx, req.segment, indices)
	case opScrub:
		sc, ok := s.store.(blockstore.Scrubber)
		if !ok {
			return statusUnsupported, []byte("store has no integrity framing")
		}
		bad, err := sc.Scrub(ctx, req.segment)
		if errors.Is(err, blockstore.ErrScrubUnsupported) {
			// A wrapper (e.g. fault injection) may carry the method but
			// sit over a store that cannot verify.
			return statusUnsupported, []byte(err.Error())
		}
		if err != nil {
			return statusErr, []byte(err.Error())
		}
		return statusOK, encodeIndices(bad)
	default:
		return statusErr, []byte(fmt.Sprintf("unknown op %d", req.op))
	}
}
