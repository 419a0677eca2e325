package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/obs"
)

// Client talks the block protocol to one server. It implements
// blockstore.Store, so the RobuSTore client library treats remote
// servers and local stores uniformly. Every request is its own stream
// on one of a few multiplexed connections, which is exactly what the
// speculative read path needs: many parallel GETs, individually
// cancelable, none blocking another.
type Client struct {
	addr       string
	reqTimeout time.Duration
	maxConns   int
	proposal   muxSettings // offered in each connection's preface
	m          clientMetrics

	muxMu           sync.Mutex
	muxConns        []*muxConn
	muxNext         int
	muxEstablishing bool
	muxReady        chan struct{} // closed when the in-flight establishment ends
	muxRetryAt      time.Time
	muxClosed       bool
}

// ClientOptions configure a client. They hold what a deployment
// decides; the transport's tuning (dial timeout, retry budget and
// backoff, flow-control window, stream limit) is fixed by the
// constants below.
type ClientOptions struct {
	// RequestTimeout, when positive, bounds each request/response
	// exchange (and each stall of a PUTSTREAM) on its own stream, and
	// the connection preface. Without it a hung server stalls its
	// request until the whole access is canceled — the speculative read
	// still completes from other servers, but the stalled stream is
	// pinned for the access lifetime, defeating §4.2's "use whichever
	// disks respond first". A timed-out stream is RESET without
	// touching its connection. Zero (the default) waits forever.
	RequestTimeout time.Duration
	// MaxConns caps the multiplexed connections to the server
	// (default 2). Each carries up to the negotiated stream limit
	// concurrently.
	MaxConns int
	// Obs, when non-nil, receives client metrics (transport_client_*:
	// connections, streams, bytes, errors, retries, round-trip
	// latency).
	Obs *obs.Registry
}

const (
	// dialTimeout bounds connection establishment.
	dialTimeout = 5 * time.Second
	// maxRetries is how many times a failed exchange of an idempotent
	// operation (GET, LIST, PING, DELETE, SCRUB) is retried. Only
	// transport-level failures are retried — connection errors, short
	// reads, request timeouts — never server-reported statuses and
	// never caller cancellation. PUT and PUTSTREAM are deliberately
	// excluded: the rateless write path re-routes a failed put to a
	// healthier server (§4.3.2), which beats blind same-server retry.
	maxRetries = 3
	// retryBaseDelay and retryMaxDelay shape the backoff: attempt k
	// sleeps a uniformly random duration in [0, min(retryMaxDelay,
	// retryBaseDelay·2^k)] — "full jitter", so synchronized client
	// fleets do not retry in lockstep against a recovering server.
	retryBaseDelay = 2 * time.Millisecond
	retryMaxDelay  = 100 * time.Millisecond
)

// Dial creates a client for the server at addr and verifies
// reachability with a ping.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	return dial(addr, opts, muxDefaults)
}

// dial is Dial with the mux settings to propose; tests shrink them to
// force chunking and stream-limit waits.
func dial(addr string, opts ClientOptions, proposal muxSettings) (*Client, error) {
	if opts.MaxConns <= 0 {
		opts.MaxConns = 2
	}
	c := &Client{
		addr:       addr,
		reqTimeout: opts.RequestTimeout,
		maxConns:   opts.MaxConns,
		proposal:   proposal,
		m:          newClientMetrics(opts.Obs),
	}
	if err := c.Ping(context.Background()); err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	return c, nil
}

// Addr returns the server address.
func (c *Client) Addr() string { return c.addr }

var errClientClosed = errors.New("transport: client closed")

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
// retrying transport-level failures up to maxRetries times with
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
		if attempt >= maxRetries || !retryable(ctx, err) {
			if retried {
				c.m.retryGiveups.Inc()
			}
			return 0, nil, err
		}
		retried = true
		c.m.retries.Inc()
		if serr := BackoffFullJitter(ctx, attempt, retryBaseDelay, retryMaxDelay); serr != nil {
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

// BackoffFullJitter sleeps a uniformly random duration in
// [0, min(max, base·2^attempt)], honoring ctx — the retry spacing the
// transport client uses between idempotent-op attempts, exported so
// other client layers (the metadata failover client) retry with the
// same fleet-safe jitter instead of inventing their own. A ctx already
// done returns its error without sleeping, whatever the draw.
func BackoffFullJitter(ctx context.Context, attempt int, base, maxDelay time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
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

// exchange runs one request/response exchange as a stream on one of
// the client's multiplexed connections, opening one first when the
// client has none.
func (c *Client) exchange(ctx context.Context, chunks [][]byte) (byte, []byte, error) {
	// A caller already gone sends nothing: otherwise an exchange fast
	// enough to beat the cancellation watchers would still succeed.
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	m, err := c.muxFor(ctx)
	if err != nil {
		c.m.errors.Inc()
		return 0, nil, err
	}
	status, resp, err := m.exchange(ctx, chunks)
	if err != nil {
		c.m.errors.Inc()
	}
	return status, resp, err
}

// wrapExchangeErr maps a failed exchange on a connection deadline (the
// preface exchange) onto the caller's intent: a canceled context wins,
// then a deadline overrun becomes ErrRequestTimeout, everything else
// passes through.
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
// verifies the share envelope of each of the segment's blocks in place
// (its ChecksumStore layer) and returns only the bad indices, so a
// scrub pass costs one round trip instead of downloading every block.
// A server whose store has no ChecksumStore (robustored always has
// one) answers with an error matching blockstore.ErrScrubUnsupported.
// Scrubs are read-only and idempotent, so they retry.
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

// Close closes the client's connections; in-flight requests fail.
func (c *Client) Close() error {
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
