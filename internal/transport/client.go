package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/obs"
)

// Client talks the block protocol to one server. It implements
// blockstore.Store, so the RobuSTore client library treats remote
// servers and local stores uniformly. A Client multiplexes concurrent
// requests over a pool of TCP connections (one outstanding request
// per connection), which is exactly what the speculative read path
// needs: many parallel GETs, individually cancelable.
type Client struct {
	addr        string
	dialTimeout time.Duration
	reqTimeout  time.Duration
	maxConns    int
	maxRetries  int
	retryBase   time.Duration
	retryMax    time.Duration
	m           clientPoolMetrics

	// caps caches the server's batch capabilities: 0 = unprobed,
	// otherwise 1 | mask<<1 (so "probed, no capabilities" is 1).
	caps          atomic.Uint32
	maxBatchBytes int

	// Mux (transport v2) state: dedicated multiplexed connections,
	// separate from the v1 one-exchange-per-conn pool. Engaged only
	// after a CAPS probe observes capMux; see muxFor.
	health          HealthReporter
	muxDisabled     bool
	muxWindow       int
	muxStreams      int
	muxMaxConns     int
	muxMu           sync.Mutex
	muxConns        []*muxConn
	muxNext         int
	muxEstablishing bool
	muxReady        chan struct{} // closed when the in-flight establishment ends
	muxRetryAt      time.Time
	muxClosed       bool

	mu     sync.Mutex
	idle   []net.Conn
	nconns int
	closed bool
	cond   *sync.Cond
}

// ClientOptions configure a client.
type ClientOptions struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// RequestTimeout, when positive, bounds each request/response
	// round-trip with a connection deadline. Without it a hung server
	// stalls its worker until the whole access is canceled — the
	// speculative read still completes from other servers, but the
	// stalled goroutine and its pooled connection are pinned for the
	// access lifetime, defeating §4.2's "use whichever disks respond
	// first". Zero (the default) preserves the old wait-forever
	// behavior.
	RequestTimeout time.Duration
	// MaxConns caps the connection pool (default 16).
	MaxConns int
	// MaxRetries, when positive, retries failed exchanges of
	// idempotent operations (GET, LIST, PING, DELETE) up to this many
	// times with capped exponential backoff and full jitter. Only
	// transport-level failures are retried — connection errors, short
	// reads, request timeouts — never server-reported statuses and
	// never caller cancellation. PUT is deliberately excluded: the
	// rateless write path re-routes a failed put to a healthier server
	// (§4.3.2), which beats blind same-server retry. Zero disables
	// retries.
	MaxRetries int
	// RetryBaseDelay is the backoff base (default 2ms): attempt k
	// sleeps a uniformly random duration in [0, min(RetryMaxDelay,
	// RetryBaseDelay·2^k)] — "full jitter", so synchronized client
	// fleets do not retry in lockstep against a recovering server.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps a single backoff sleep (default 100ms).
	RetryMaxDelay time.Duration
	// MaxBatchBytes caps the payload bytes packed into one batch
	// request frame (default 8 MiB, always at most MaxFrame/2). Larger
	// batches are split across multiple round trips transparently.
	MaxBatchBytes int
	// Obs, when non-nil, receives pool metrics (transport_client_*:
	// dials, connection reuses, in-flight requests, bytes, errors,
	// retries, round-trip latency).
	Obs *obs.Registry
	// DisableMux keeps every exchange on the v1 single-op/batch paths
	// even against a server that advertises the multiplexed transport.
	DisableMux bool
	// MuxConns caps the number of multiplexed connections (default 2).
	// Each carries up to the negotiated stream limit concurrently, so
	// a couple of conns replace the whole v1 pool for pipelined work.
	MuxConns int
	// MuxWindow overrides the proposed per-stream flow-control window
	// in bytes (default 1 MiB); mostly for tests.
	MuxWindow int
	// MuxMaxStreams overrides the proposed concurrent-stream limit per
	// mux connection (default 64); mostly for tests.
	MuxMaxStreams int
	// Health, when non-nil, receives per-server outcomes observed by
	// the transport itself. The important case is per-stream mux
	// timeouts: the demux path reports them here even when the caller
	// hedged away and never surfaces the error, so the failure
	// detector keeps its backoff context without the v1 tear-down of a
	// pooled connection.
	Health HealthReporter
}

// clientPoolMetrics are the connection-pool metric handles; all nil
// (no-op) when observability is disabled.
type clientPoolMetrics struct {
	dials          *obs.Counter
	dialErrors     *obs.Counter
	reuses         *obs.Counter
	errors         *obs.Counter
	retries        *obs.Counter
	retriesWon     *obs.Counter
	retryGiveups   *obs.Counter
	bytesSent      *obs.Counter
	bytesRecv      *obs.Counter
	batches        *obs.Counter
	batchBlocks    *obs.Counter
	batchRTSaved   *obs.Counter
	batchFallbacks *obs.Counter
	inflight       *obs.Gauge
	roundTrip      *obs.Histogram

	muxDials          *obs.Counter
	muxFallbacks      *obs.Counter
	muxConnFailures   *obs.Counter
	muxStreams        *obs.Counter
	muxStreamTimeouts *obs.Counter
	muxResets         *obs.Counter
	muxLateFrames     *obs.Counter
	muxFlowStalls     *obs.Counter
	muxFramesSent     *obs.Counter
	muxFramesRecv     *obs.Counter
	muxInflight       *obs.Gauge
}

func newClientPoolMetrics(r *obs.Registry) clientPoolMetrics {
	return clientPoolMetrics{
		dials:        r.Counter("transport_client_dials_total"),
		dialErrors:   r.Counter("transport_client_dial_errors_total"),
		reuses:       r.Counter("transport_client_conn_reuses_total"),
		errors:       r.Counter("transport_client_errors_total"),
		retries:      r.Counter("transport_client_retries_total"),
		retriesWon:   r.Counter("transport_client_retry_successes_total"),
		retryGiveups: r.Counter("transport_client_retry_giveups_total"),
		bytesSent:    r.Counter("transport_client_bytes_sent_total"),
		bytesRecv:    r.Counter("transport_client_bytes_recv_total"),
		// Batch accounting: blocks carried per batch frame and the
		// request/response round trips the batching avoided
		// (blocks - frames), the headline win of DESIGN.md §10.
		batches:        r.Counter("transport_client_batches_total"),
		batchBlocks:    r.Counter("transport_client_batch_blocks_total"),
		batchRTSaved:   r.Counter("transport_client_batch_roundtrips_saved_total"),
		batchFallbacks: r.Counter("transport_client_batch_fallbacks_total"),
		inflight:       r.Gauge("transport_client_inflight"),
		roundTrip:      r.Histogram("transport_client_roundtrip_seconds"),
		// Mux (transport v2) accounting: stream churn, per-stream
		// timeouts/resets that did NOT tear the connection down, frames
		// discarded after abandonment, and flow-control stalls (a
		// sender blocked waiting for WINDOW credit).
		muxDials:          r.Counter("transport_client_mux_dials_total"),
		muxFallbacks:      r.Counter("transport_client_mux_fallbacks_total"),
		muxConnFailures:   r.Counter("transport_client_mux_conn_failures_total"),
		muxStreams:        r.Counter("transport_client_mux_streams_total"),
		muxStreamTimeouts: r.Counter("transport_client_mux_stream_timeouts_total"),
		muxResets:         r.Counter("transport_client_mux_resets_total"),
		muxLateFrames:     r.Counter("transport_client_mux_late_frames_total"),
		muxFlowStalls:     r.Counter("transport_client_mux_flow_stalls_total"),
		muxFramesSent:     r.Counter("transport_client_mux_frames_sent_total"),
		muxFramesRecv:     r.Counter("transport_client_mux_frames_recv_total"),
		muxInflight:       r.Gauge("transport_client_mux_inflight"),
	}
}

// Dial creates a client for the server at addr and verifies
// reachability with a ping.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.MaxConns <= 0 {
		opts.MaxConns = 16
	}
	if opts.RetryBaseDelay <= 0 {
		opts.RetryBaseDelay = 2 * time.Millisecond
	}
	if opts.RetryMaxDelay <= 0 {
		opts.RetryMaxDelay = 100 * time.Millisecond
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = 8 << 20
	}
	if opts.MaxBatchBytes > MaxFrame/2 {
		opts.MaxBatchBytes = MaxFrame / 2
	}
	if opts.MuxConns <= 0 {
		opts.MuxConns = 2
	}
	c := &Client{
		addr:          addr,
		dialTimeout:   opts.DialTimeout,
		reqTimeout:    opts.RequestTimeout,
		maxConns:      opts.MaxConns,
		maxRetries:    opts.MaxRetries,
		retryBase:     opts.RetryBaseDelay,
		retryMax:      opts.RetryMaxDelay,
		maxBatchBytes: opts.MaxBatchBytes,
		muxDisabled:   opts.DisableMux,
		muxMaxConns:   opts.MuxConns,
		muxWindow:     opts.MuxWindow,
		muxStreams:    opts.MuxMaxStreams,
		health:        opts.Health,
		m:             newClientPoolMetrics(opts.Obs),
	}
	c.cond = sync.NewCond(&c.mu)
	if err := c.Ping(context.Background()); err != nil {
		return nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	return c, nil
}

// Addr returns the server address.
func (c *Client) Addr() string { return c.addr }

var errClientClosed = errors.New("transport: client closed")

// acquire returns a pooled or fresh connection, waiting if the pool is
// at its cap with nothing idle.
func (c *Client) acquire(ctx context.Context) (net.Conn, error) {
	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, errClientClosed
		}
		if n := len(c.idle); n > 0 {
			conn := c.idle[n-1]
			c.idle = c.idle[:n-1]
			c.mu.Unlock()
			c.m.reuses.Inc()
			return conn, nil
		}
		if c.nconns < c.maxConns {
			c.nconns++
			c.mu.Unlock()
			conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
			if err != nil {
				c.m.dialErrors.Inc()
				c.mu.Lock()
				c.nconns--
				c.cond.Signal()
				c.mu.Unlock()
				return nil, err
			}
			c.m.dials.Inc()
			return conn, nil
		}
		// Pool exhausted: wait for a release, but honor ctx.
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		waitDone := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			case <-waitDone:
			}
		}()
		c.cond.Wait()
		close(waitDone)
	}
}

// release returns a healthy connection to the pool.
func (c *Client) release(conn net.Conn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
	c.cond.Signal()
	c.mu.Unlock()
}

// discard drops a poisoned connection.
func (c *Client) discard(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	c.nconns--
	c.cond.Signal()
	c.mu.Unlock()
}

// ErrRequestTimeout reports a round-trip that exceeded the client's
// RequestTimeout (the per-request I/O deadline, not a dial failure
// and not a caller cancellation).
var ErrRequestTimeout = errors.New("transport: request timed out")

// roundTrip performs one request/response exchange with no retries —
// the path for non-idempotent operations (PUT).
func (c *Client) roundTrip(ctx context.Context, op byte, segment string, index int, payload []byte) (byte, []byte, error) {
	return c.requestExchange(ctx, false, op, segment, index, payload)
}

// roundTripIdem performs one exchange for an idempotent operation,
// retrying transport-level failures up to MaxRetries times with
// capped exponential backoff and full jitter. Server-reported
// statuses are not failures (they arrived over a healthy exchange)
// and caller cancellation always wins immediately.
func (c *Client) roundTripIdem(ctx context.Context, op byte, segment string, index int, payload []byte) (byte, []byte, error) {
	return c.requestExchange(ctx, true, op, segment, index, payload)
}

// requestExchange sends one single-op request, retrying it when idem:
// the header goes out from pooled scratch and the payload as its own
// chunk, so the payload is never copied into a request body.
func (c *Client) requestExchange(ctx context.Context, idem bool, op byte, segment string, index int, payload []byte) (byte, []byte, error) {
	if err := checkRequestHeader(segment, index); err != nil {
		return 0, nil, err
	}
	scratch := getScratch()
	defer putScratch(scratch)
	*scratch = appendRequestHeader(*scratch, op, segment, index)
	chunks := [][]byte{*scratch, payload}
	if len(payload) == 0 {
		chunks = chunks[:1]
	}
	if idem {
		return c.exchangeIdem(ctx, chunks)
	}
	return c.exchange(ctx, chunks)
}

// exchangeIdem is the retrying exchange for idempotent requests; the
// chunk contents must stay valid across attempts.
func (c *Client) exchangeIdem(ctx context.Context, chunks [][]byte) (byte, []byte, error) {
	retried := false
	//lint:ignore ctxcancel retryable(ctx, err) checks ctx.Err() and backoff selects on ctx.Done() every attempt
	for attempt := 0; ; attempt++ {
		status, resp, err := c.exchange(ctx, chunks)
		if err == nil {
			if retried {
				c.m.retriesWon.Inc()
			}
			return status, resp, nil
		}
		if attempt >= c.maxRetries || !retryable(ctx, err) {
			if retried {
				c.m.retryGiveups.Inc()
			}
			return 0, nil, err
		}
		retried = true
		c.m.retries.Inc()
		if serr := c.backoff(ctx, attempt); serr != nil {
			c.m.retryGiveups.Inc()
			return 0, nil, err
		}
	}
}

// retryable reports whether a failed exchange is worth re-issuing:
// transport-level trouble (broken conn, short read, timeout) is,
// caller cancellation and a closed client are not.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return !errors.Is(err, errClientClosed) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// backoff sleeps the full-jitter backoff for the given attempt,
// honoring ctx: a uniformly random duration in [0, min(retryMax,
// retryBase·2^attempt)].
func (c *Client) backoff(ctx context.Context, attempt int) error {
	return BackoffFullJitter(ctx, attempt, c.retryBase, c.retryMax)
}

// BackoffFullJitter sleeps a uniformly random duration in
// [0, min(max, base·2^attempt)], honoring ctx — the retry spacing the
// transport client uses between idempotent-op attempts, exported so
// other client layers (the metadata failover client) retry with the
// same fleet-safe jitter instead of inventing their own.
func BackoffFullJitter(ctx context.Context, attempt int, base, maxDelay time.Duration) error {
	ceil := maxDelay
	if attempt < 20 { // beyond 2^20 the shift is surely past the cap
		if d := base << attempt; d < ceil {
			ceil = d
		}
	}
	d := time.Duration(rand.Int63n(int64(ceil) + 1))
	if d == 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// exchange routes one request/response exchange: over a multiplexed
// stream when the server is known (from the cached CAPS probe) to
// speak transport v2, otherwise over the v1 one-exchange-per-conn
// pool. The two paths carry identical request bodies, so every op —
// single, batch, scrub, ping — pipelines transparently once the mux
// is up; legacy peers keep the v1 path untouched.
func (c *Client) exchange(ctx context.Context, chunks [][]byte) (byte, []byte, error) {
	// A caller already gone sends nothing: otherwise an exchange fast
	// enough to beat the cancellation watchers would still succeed.
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if m := c.muxFor(ctx); m != nil {
		status, resp, err := m.exchange(ctx, chunks)
		if err != nil {
			c.m.errors.Inc()
		}
		return status, resp, err
	}
	return c.exchangeV1(ctx, chunks)
}

// exchangeV1 performs one request/response exchange. Cancellation is
// implemented by closing the connection out from under the exchange —
// the server's per-connection context then cancels the queued work
// (RobuSTore request cancellation over the wire). When RequestTimeout
// is set, a connection deadline additionally bounds the exchange so a
// hung server surfaces as ErrRequestTimeout instead of a stall.
// Any exchange error — write failure, short read, protocol violation
// — discards the connection rather than pooling it: after a failed
// exchange the conn's protocol state is unknown, and a pooled
// half-read conn would poison the next request on it.
func (c *Client) exchangeV1(ctx context.Context, chunks [][]byte) (byte, []byte, error) {
	conn, err := c.acquire(ctx)
	if err != nil {
		c.m.errors.Inc()
		return 0, nil, err
	}
	start := time.Now()
	c.m.inflight.Add(1)
	defer c.m.inflight.Add(-1)
	if c.reqTimeout > 0 {
		conn.SetDeadline(start.Add(c.reqTimeout))
	}
	// Watch for cancellation during the exchange.
	done := make(chan struct{})
	var canceled bool
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		select {
		case <-ctx.Done():
			canceled = true
			conn.SetDeadline(time.Unix(1, 0)) // unblock reads/writes immediately
		case <-done:
		}
	}()
	finish := func() {
		close(done)
		watch.Wait()
	}
	var sent int64
	for _, ch := range chunks {
		sent += int64(len(ch))
	}
	err = writeFrameVec(conn, chunks)
	if err != nil {
		finish()
		c.discard(conn)
		c.m.errors.Inc()
		return 0, nil, c.wrapExchangeErr(err, canceled, ctx)
	}
	resp, err := readFrame(conn)
	finish()
	if err != nil {
		c.discard(conn)
		c.m.errors.Inc()
		return 0, nil, c.wrapExchangeErr(err, canceled, ctx)
	}
	if len(resp) < 1 {
		// Empty response frame: a protocol violation. The conn's
		// framing may look intact, but a server that violates the
		// protocol once cannot be trusted with pooled reuse — drop it
		// instead of handing the next request a poisoned conn.
		c.discard(conn)
		c.m.errors.Inc()
		return 0, nil, fmt.Errorf("transport: empty response")
	}
	if canceled || c.reqTimeout > 0 {
		// Clear the request deadline (and any poison from a cancellation
		// that raced with the response) before pooling the connection.
		conn.SetDeadline(time.Time{})
	}
	c.release(conn)
	c.m.bytesSent.Add(sent + 4)
	c.m.bytesRecv.Add(int64(len(resp)) + 4)
	c.m.roundTrip.Observe(time.Since(start).Seconds())
	return resp[0], resp[1:], nil
}

// wrapExchangeErr maps a failed exchange onto the caller's intent: a
// canceled context wins, then a deadline overrun becomes
// ErrRequestTimeout, everything else passes through.
func (c *Client) wrapExchangeErr(err error, canceled bool, ctx context.Context) error {
	if canceled && ctx.Err() != nil {
		return ctx.Err()
	}
	if c.reqTimeout > 0 {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return fmt.Errorf("%w after %v: %w", ErrRequestTimeout, c.reqTimeout, err)
		}
	}
	return err
}

// statusToError maps protocol statuses onto blockstore errors.
func statusToError(status byte, payload []byte) error {
	switch status {
	case statusOK:
		return nil
	case statusNotFound:
		return blockstore.ErrNotFound
	case statusBusy:
		return fmt.Errorf("transport: server busy: %s", payload)
	case statusUnsupported:
		return fmt.Errorf("transport: %w: %s", blockstore.ErrScrubUnsupported, payload)
	default:
		return fmt.Errorf("transport: server error: %s", payload)
	}
}

// Ping checks server liveness.
func (c *Client) Ping(ctx context.Context) error {
	status, payload, err := c.roundTripIdem(ctx, opPing, "-", 0, nil)
	if err != nil {
		return err
	}
	return statusToError(status, payload)
}

// Put implements blockstore.Store.
func (c *Client) Put(ctx context.Context, segment string, index int, data []byte) error {
	status, payload, err := c.roundTrip(ctx, opPut, segment, index, data)
	if err != nil {
		return err
	}
	return statusToError(status, payload)
}

// Get implements blockstore.Store.
func (c *Client) Get(ctx context.Context, segment string, index int) ([]byte, error) {
	status, payload, err := c.roundTripIdem(ctx, opGet, segment, index, nil)
	if err != nil {
		return nil, err
	}
	if err := statusToError(status, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// Delete implements blockstore.Store. Deletes are idempotent
// (deleting an absent block is not an error), so they retry.
func (c *Client) Delete(ctx context.Context, segment string, index int) error {
	status, payload, err := c.roundTripIdem(ctx, opDelete, segment, index, nil)
	if err != nil {
		return err
	}
	return statusToError(status, payload)
}

// Scrub implements blockstore.Scrubber over the wire: the server
// verifies the segment's blocks in place (its ChecksumStore layer)
// and returns only the bad indices, so a scrub pass costs one round
// trip instead of downloading every block. A server without integrity
// framing answers with an error matching
// blockstore.ErrScrubUnsupported. Scrubs are read-only and idempotent,
// so they retry.
func (c *Client) Scrub(ctx context.Context, segment string) ([]int, error) {
	status, payload, err := c.roundTripIdem(ctx, opScrub, segment, 0, nil)
	if err != nil {
		return nil, err
	}
	if err := statusToError(status, payload); err != nil {
		return nil, err
	}
	return decodeIndices(payload)
}

// List implements blockstore.Store.
func (c *Client) List(ctx context.Context, segment string) ([]int, error) {
	status, payload, err := c.roundTripIdem(ctx, opList, segment, 0, nil)
	if err != nil {
		return nil, err
	}
	if err := statusToError(status, payload); err != nil {
		return nil, err
	}
	return decodeIndices(payload)
}

// Close closes all pooled and multiplexed connections.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	c.muxMu.Lock()
	c.muxClosed = true
	muxes := c.muxConns
	c.muxConns = nil
	c.muxMu.Unlock()
	for _, m := range muxes {
		m.close()
	}
	return nil
}
