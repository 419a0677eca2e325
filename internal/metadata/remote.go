package metadata

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// This file puts the metadata service on the network: a JSON-over-
// length-prefixed-frames protocol carrying the API operations, so one
// metadata server can serve many RobuSTore clients (the Ch. 4
// framework's central metadata server, as deployed in practice).
//
// Locks acquired remotely are identified by server-issued tokens; the
// unlock closure returned to the caller sends the token back. Lock
// *waiting* happens server-side, one request per connection, so a
// client blocked on a lock does not wedge other clients (the client
// pool opens one connection per outstanding request).

const remoteMaxFrame = 16 << 20

// wire request/response. Exactly one of the op-specific fields is
// meaningful per op.
type wireRequest struct {
	Op      string   `json:"op"`
	Name    string   `json:"name,omitempty"`
	Segment *Segment `json:"segment,omitempty"`
	Server  *Server  `json:"server,omitempty"`
	State   string   `json:"state,omitempty"`
	Token   string   `json:"token,omitempty"`
	// Forwarded marks a request a follower already proxied once; the
	// receiving server must answer it itself (possibly with a
	// not-leader redirect) rather than proxy again, so a leadership
	// flap can never bounce one request around the group forever.
	Forwarded bool `json:"fwd,omitempty"`
}

type wireResponse struct {
	OK      bool     `json:"ok"`
	Error   string   `json:"error,omitempty"`
	ErrKind string   `json:"err_kind,omitempty"`
	Segment *Segment `json:"segment,omitempty"`
	Names   []string `json:"names,omitempty"`
	Servers []Server `json:"servers,omitempty"`
	Token   string   `json:"token,omitempty"`
	// Leader carries the leader's client address alongside a
	// not-leader error — the hint failover clients retarget to.
	Leader string `json:"leader,omitempty"`
}

// err kinds preserved across the wire.
const (
	errKindExists    = "exists"
	errKindNoSeg     = "no-segment"
	errKindNoServer  = "no-server"
	errKindNotLeader = "not-leader"
	errKindAmbiguous = "ambiguous"
)

func kindOf(err error) string {
	switch {
	case errors.Is(err, ErrSegmentExists):
		return errKindExists
	case errors.Is(err, ErrSegmentNotFound):
		return errKindNoSeg
	case errors.Is(err, ErrServerNotFound):
		return errKindNoServer
	case errors.Is(err, ErrNotLeader):
		return errKindNotLeader
	case errors.Is(err, ErrAmbiguous):
		return errKindAmbiguous
	default:
		return ""
	}
}

func errOfKind(kind, msg, leader string) error {
	switch kind {
	case errKindExists:
		return ErrSegmentExists
	case errKindNoSeg:
		return ErrSegmentNotFound
	case errKindNoServer:
		return ErrServerNotFound
	case errKindNotLeader:
		return &NotLeaderError{Leader: leader}
	case errKindAmbiguous:
		return fmt.Errorf("%w: %s", ErrAmbiguous, msg)
	default:
		return errors.New(msg)
	}
}

func writeJSONFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(body) > remoteMaxFrame {
		return fmt.Errorf("metadata: frame too large (%d bytes)", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

func readJSONFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > remoteMaxFrame {
		return fmt.Errorf("metadata: inbound frame too large (%d bytes)", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// NetworkServer exposes a metadata API over TCP — the in-process
// *Service, or a replica node that redirects and replicates under the
// hood.
type NetworkServer struct {
	api API

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	locks    map[string]func() // token -> unlock
	forwards map[string]*RemoteClient
	nextTok  int64
	closed   bool
	wg       sync.WaitGroup
}

// NewNetworkServer wraps a service for network serving.
func NewNetworkServer(svc *Service) *NetworkServer {
	return NewNetworkServerFor(svc)
}

// NewNetworkServerFor wraps any metadata API for network serving.
// When the backend answers a write with a NotLeaderError carrying a
// leader hint, the server proxies the request to the leader once
// (marking it Forwarded) and relays the answer — so a client talking
// to a follower still gets its write through, the baudfs/cubefs
// metanode proxy pattern.
func NewNetworkServerFor(api API) *NetworkServer {
	return &NetworkServer{
		api:      api,
		conns:    make(map[net.Conn]struct{}),
		locks:    make(map[string]func()),
		forwards: make(map[string]*RemoteClient),
	}
}

// Serve accepts connections until Close.
func (s *NetworkServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("metadata: network server closed")
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

// Close stops the server, releasing any locks still held by remote
// clients.
func (s *NetworkServer) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	locks := s.locks
	s.locks = map[string]func(){}
	forwards := s.forwards
	s.forwards = map[string]*RemoteClient{}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, unlock := range locks {
		unlock()
	}
	for _, fc := range forwards {
		fc.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *NetworkServer) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	for {
		var req wireRequest
		if err := readJSONFrame(conn, &req); err != nil {
			return
		}
		resp := s.dispatch(&req)
		if fresp, ok := s.maybeForward(&req, resp); ok {
			resp = fresp
		}
		if err := writeJSONFrame(conn, resp); err != nil {
			return
		}
	}
}

// proxyableOps are the write operations a follower forwards to the
// leader on the client's behalf. Reads are served locally behind a
// read-index check, and lock ops redirect instead (lock tokens must
// live on the node the client unlocks through).
var proxyableOps = map[string]bool{
	"create": true, "update": true, "delete": true,
	"register-server": true, "unregister-server": true,
	"set-server-state": true,
}

// maybeForward proxies a not-leader-rejected write to the hinted
// leader, once. The forwarded copy is marked so the receiving server
// never proxies it again.
func (s *NetworkServer) maybeForward(req *wireRequest, resp wireResponse) (wireResponse, bool) {
	if resp.OK || resp.ErrKind != errKindNotLeader || resp.Leader == "" ||
		req.Forwarded || !proxyableOps[req.Op] {
		return wireResponse{}, false
	}
	fc := s.forwardClient(resp.Leader)
	if fc == nil {
		return wireResponse{}, false
	}
	fwd := *req
	fwd.Forwarded = true
	fresp, sent, err := fc.roundTripTo(resp.Leader, &fwd)
	if err != nil {
		if !sent || idempotentOps[req.Op] {
			// The dial failed (the leader never saw the request) or the
			// op is safe to re-issue, so the original redirect answer is
			// still accurate: let the client chase the hint itself.
			return wireResponse{}, false
		}
		// The forward died mid-flight: the leader may or may not have
		// executed the write. A not-leader answer would invite the
		// client to blindly re-issue it, so report the ambiguity
		// instead.
		return wireResponse{
			Error: fmt.Sprintf("forwarded %s to leader %s failed mid-flight: %v",
				req.Op, resp.Leader, err),
			ErrKind: errKindAmbiguous,
		}, true
	}
	return fresp, true
}

// forwardClient returns (creating if needed) the proxy client toward
// one leader address.
func (s *NetworkServer) forwardClient(addr string) *RemoteClient {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	fc, ok := s.forwards[addr]
	if !ok {
		fc = newRemoteClient([]string{addr}, RemoteOptions{})
		s.forwards[addr] = fc
	}
	return fc
}

func fail(err error) wireResponse {
	resp := wireResponse{Error: err.Error(), ErrKind: kindOf(err)}
	var nle *NotLeaderError
	if errors.As(err, &nle) {
		resp.Leader = nle.Leader
	}
	return resp
}

func (s *NetworkServer) dispatch(req *wireRequest) wireResponse {
	switch req.Op {
	case "ping":
		return wireResponse{OK: true}
	case "create":
		if req.Segment == nil {
			return fail(errors.New("metadata: create without segment"))
		}
		if err := s.api.CreateSegment(*req.Segment); err != nil {
			return fail(err)
		}
		return wireResponse{OK: true}
	case "update":
		if req.Segment == nil {
			return fail(errors.New("metadata: update without segment"))
		}
		if err := s.api.UpdateSegment(*req.Segment); err != nil {
			return fail(err)
		}
		return wireResponse{OK: true}
	case "lookup":
		seg, err := s.api.LookupSegment(req.Name)
		if err != nil {
			return fail(err)
		}
		return wireResponse{OK: true, Segment: &seg}
	case "delete":
		if err := s.api.DeleteSegment(req.Name); err != nil {
			return fail(err)
		}
		return wireResponse{OK: true}
	case "list":
		return wireResponse{OK: true, Names: s.api.ListSegments()}
	case "register-server":
		if req.Server == nil {
			return fail(errors.New("metadata: register without server"))
		}
		if err := s.api.RegisterServer(*req.Server); err != nil {
			return fail(err)
		}
		return wireResponse{OK: true}
	case "unregister-server":
		if err := s.api.UnregisterServer(req.Name); err != nil {
			return fail(err)
		}
		return wireResponse{OK: true}
	case "set-server-state":
		if err := s.api.SetServerState(req.Name, ServerState(req.State)); err != nil {
			return fail(err)
		}
		return wireResponse{OK: true}
	case "servers":
		return wireResponse{OK: true, Servers: s.api.Servers()}
	case "lock-read", "lock-write":
		var unlock func()
		var err error
		if req.Op == "lock-read" {
			unlock, err = s.api.LockRead(context.Background(), req.Name)
		} else {
			unlock, err = s.api.LockWrite(context.Background(), req.Name)
		}
		if err != nil {
			return fail(err)
		}
		s.mu.Lock()
		s.nextTok++
		token := req.Op + "-" + req.Name + "-" + strconv.FormatInt(s.nextTok, 10)
		s.locks[token] = unlock
		s.mu.Unlock()
		return wireResponse{OK: true, Token: token}
	case "unlock":
		s.mu.Lock()
		unlock, ok := s.locks[req.Token]
		delete(s.locks, req.Token)
		s.mu.Unlock()
		if !ok {
			return fail(errors.New("metadata: unknown lock token"))
		}
		unlock()
		return wireResponse{OK: true}
	default:
		return fail(fmt.Errorf("metadata: unknown op %q", req.Op))
	}
}

// RemoteOptions configures a RemoteClient. The failover tuning is
// fixed by the constants below; only observability is the caller's.
type RemoteOptions struct {
	// Obs, when set, receives client retry/failover/redirect counters.
	Obs *obs.Registry
}

const (
	// remoteDialTimeout bounds each TCP dial to an endpoint.
	remoteDialTimeout = 5 * time.Second
	// remoteMaxRetries caps transport-level and mid-election retries
	// per call beyond the first attempt.
	remoteMaxRetries = 3
	// remoteRetryBaseDelay and remoteRetryMaxDelay shape the
	// full-jitter backoff between retries.
	remoteRetryBaseDelay = 25 * time.Millisecond
	remoteRetryMaxDelay  = 500 * time.Millisecond
)

// RemoteClient is a metadata.API backed by one or more NetworkServers
// (a replicated group). Safe for concurrent use; each in-flight
// request uses its own pooled connection. The client prefers one
// endpoint at a time, follows not-leader leader hints, and rotates to
// the next endpoint with jittered backoff when the preferred one is
// unreachable.
type RemoteClient struct {
	mu         sync.Mutex
	addrs      []string
	cur        int    // preferred index into addrs
	leaderHint string // last redirect target; tried before addrs[cur]
	poolAddr   string // endpoint the idle conns belong to
	idle       []net.Conn
	closed     bool

	retries   *obs.Counter
	failovers *obs.Counter
	redirects *obs.Counter
}

// DialRemote connects to a single metadata network server.
func DialRemote(addr string) (*RemoteClient, error) {
	return DialRemoteMulti([]string{addr}, RemoteOptions{})
}

// DialRemoteMulti connects to a metadata service reachable at any of
// several endpoints (a replicated group); the initial ping walks the
// list until one answers.
func DialRemoteMulti(addrs []string, opts RemoteOptions) (*RemoteClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("metadata: no endpoints")
	}
	c := newRemoteClient(addrs, opts)
	if _, err := c.call(&wireRequest{Op: "ping"}); err != nil {
		c.Close()
		return nil, fmt.Errorf("metadata: dialing %s: %w", strings.Join(addrs, ","), err)
	}
	return c, nil
}

func newRemoteClient(addrs []string, opts RemoteOptions) *RemoteClient {
	return &RemoteClient{
		addrs:     append([]string(nil), addrs...),
		retries:   opts.Obs.Counter("meta_client_retries_total"),
		failovers: opts.Obs.Counter("meta_client_failovers_total"),
		redirects: opts.Obs.Counter("meta_client_redirects_total"),
	}
}

var _ API = (*RemoteClient)(nil)

// target is the endpoint the next attempt goes to: the leader hint if
// one is known, else the preferred list entry.
func (c *RemoteClient) target() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leaderHint != "" {
		return c.leaderHint
	}
	return c.addrs[c.cur]
}

// setLeaderHint retargets subsequent attempts at the hinted leader.
// If the hint is one of the configured endpoints, the preference also
// moves there so the hint surviving a clear still lands well.
func (c *RemoteClient) setLeaderHint(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leaderHint = addr
	for i, a := range c.addrs {
		if a == addr {
			c.cur = i
			break
		}
	}
}

// noteFailure records a transport failure at addr: the leader hint is
// dropped if it pointed there, and the preference rotates past it.
// Reports whether the preferred endpoint actually changed.
func (c *RemoteClient) noteFailure(addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leaderHint == addr {
		c.leaderHint = ""
	}
	if c.addrs[c.cur] == addr && len(c.addrs) > 1 {
		c.cur = (c.cur + 1) % len(c.addrs)
		return true
	}
	return false
}

func (c *RemoteClient) acquire(addr string) (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("metadata: remote client closed")
	}
	if c.poolAddr != addr {
		// Pooled conns belong to a previous endpoint; drop them.
		idle := c.idle
		c.idle = nil
		c.poolAddr = addr
		c.mu.Unlock()
		for _, conn := range idle {
			conn.Close()
		}
	} else if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return conn, nil
	} else {
		c.mu.Unlock()
	}
	return net.DialTimeout("tcp", addr, remoteDialTimeout)
}

func (c *RemoteClient) release(addr string, conn net.Conn) {
	c.mu.Lock()
	if c.closed || c.poolAddr != addr || len(c.idle) >= 8 {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.idle = append(c.idle, conn)
	c.mu.Unlock()
}

// roundTripTo performs one attempt against addr. sent reports whether
// the request could have reached the server: false only for dial
// failures, so callers know a non-idempotent request is safe to
// reissue.
func (c *RemoteClient) roundTripTo(addr string, req *wireRequest) (resp wireResponse, sent bool, err error) {
	conn, err := c.acquire(addr)
	if err != nil {
		return wireResponse{}, false, err
	}
	if err := writeJSONFrame(conn, req); err != nil {
		conn.Close()
		return wireResponse{}, true, err
	}
	if err := readJSONFrame(conn, &resp); err != nil {
		conn.Close()
		return wireResponse{}, true, err
	}
	c.release(addr, conn)
	return resp, true, nil
}

// idempotentOps may be reissued even when a transport error leaves it
// unknown whether the first attempt executed. Deliberately absent:
// "delete" and "unregister-server" — re-issuing one after an unknown
// outcome races a concurrent re-create (the retry would remove the
// *new* record), and a retry of an already-executed delete reports
// not-found for an operation that in fact succeeded. Their ambiguous
// failures surface to the caller. "register-server" stays: it is a
// pure upsert. "unlock" stays: an unknown token is a no-op error.
// "set-server-state" is idempotent for the same reason as
// "register-server": re-applying the same absolute state is a no-op.
var idempotentOps = map[string]bool{
	"ping": true, "lookup": true, "list": true, "servers": true,
	"register-server": true, "set-server-state": true, "unlock": true,
}

// maxRedirects bounds leader-hint hops per call, so a flapping
// election cannot bounce one request around the group indefinitely.
const maxRedirects = 4

// call runs one op through the retry/failover/redirect engine and
// maps protocol errors back to API errors.
func (c *RemoteClient) call(req *wireRequest) (wireResponse, error) {
	resp, _, err := c.callAddr(req)
	return resp, err
}

// callAddr additionally reports which endpoint answered, for callers
// with endpoint affinity (lock tokens live on the granting node).
//
// Retry rules:
//   - A not-leader rejection executed nothing, so every op — even a
//     write — may safely chase the hint (bounded by maxRedirects) or,
//     hintless mid-election, back off and retry.
//   - A transport error is retried only when the request never left
//     this process (dial failure) or the op is idempotent; an
//     in-flight write whose connection died may have executed, and
//     only the caller can decide to reissue it.
func (c *RemoteClient) callAddr(req *wireRequest) (wireResponse, string, error) {
	redirects, attempt := 0, 0
	for {
		addr := c.target()
		resp, sent, err := c.roundTripTo(addr, req)
		if err == nil {
			if resp.OK {
				return resp, addr, nil
			}
			if resp.ErrKind == errKindNotLeader {
				if resp.Leader != "" && resp.Leader != addr && redirects < maxRedirects {
					redirects++
					c.redirects.Inc()
					c.setLeaderHint(resp.Leader)
					continue
				}
				if resp.Leader == "" && attempt < remoteMaxRetries {
					// Mid-election: rotate and wait for a winner.
					if c.noteFailure(addr) {
						c.failovers.Inc()
					}
					attempt++
					c.retries.Inc()
					if berr := transport.BackoffFullJitter(context.Background(), attempt-1,
						remoteRetryBaseDelay, remoteRetryMaxDelay); berr != nil {
						return wireResponse{}, addr, berr
					}
					continue
				}
			}
			return resp, addr, errOfKind(resp.ErrKind, resp.Error, resp.Leader)
		}
		if c.noteFailure(addr) {
			c.failovers.Inc()
		}
		if (!sent || idempotentOps[req.Op]) && attempt < remoteMaxRetries {
			attempt++
			c.retries.Inc()
			if berr := transport.BackoffFullJitter(context.Background(), attempt-1,
				remoteRetryBaseDelay, remoteRetryMaxDelay); berr != nil {
				return wireResponse{}, addr, berr
			}
			continue
		}
		return wireResponse{}, addr, err
	}
}

// CreateSegment implements API.
func (c *RemoteClient) CreateSegment(seg Segment) error {
	_, err := c.call(&wireRequest{Op: "create", Segment: &seg})
	return err
}

// UpdateSegment implements API.
func (c *RemoteClient) UpdateSegment(seg Segment) error {
	_, err := c.call(&wireRequest{Op: "update", Segment: &seg})
	return err
}

// LookupSegment implements API.
func (c *RemoteClient) LookupSegment(name string) (Segment, error) {
	resp, err := c.call(&wireRequest{Op: "lookup", Name: name})
	if err != nil {
		return Segment{}, err
	}
	if resp.Segment == nil {
		return Segment{}, errors.New("metadata: lookup response missing segment")
	}
	// The record comes off the wire, perhaps from a server that stores
	// chunkless records: check and normalize it as Create would.
	seg := *resp.Segment
	if err := seg.validate(); err != nil {
		return Segment{}, fmt.Errorf("metadata: lookup response: %w", err)
	}
	return seg, nil
}

// DeleteSegment implements API.
func (c *RemoteClient) DeleteSegment(name string) error {
	_, err := c.call(&wireRequest{Op: "delete", Name: name})
	return err
}

// ListSegments implements API (empty on transport errors, matching
// the in-process signature).
func (c *RemoteClient) ListSegments() []string {
	resp, err := c.call(&wireRequest{Op: "list"})
	if err != nil {
		return nil
	}
	return resp.Names
}

// RegisterServer implements API.
func (c *RemoteClient) RegisterServer(info Server) error {
	_, err := c.call(&wireRequest{Op: "register-server", Server: &info})
	return err
}

// UnregisterServer implements API.
func (c *RemoteClient) UnregisterServer(addr string) error {
	_, err := c.call(&wireRequest{Op: "unregister-server", Name: addr})
	return err
}

// SetServerState implements API.
func (c *RemoteClient) SetServerState(addr string, state ServerState) error {
	_, err := c.call(&wireRequest{Op: "set-server-state", Name: addr, State: string(state)})
	return err
}

// Servers implements API.
func (c *RemoteClient) Servers() []Server {
	resp, err := c.call(&wireRequest{Op: "servers"})
	if err != nil {
		return nil
	}
	return resp.Servers
}

// lock acquires a remote lock; the ctx bounds only the wait on our
// side (the request itself blocks server-side until granted). The
// unlock closure is pinned to the endpoint that granted the lock —
// tokens are server-local state, so failing over an unlock to a
// different replica would leak the lock instead of releasing it.
func (c *RemoteClient) lock(ctx context.Context, op, name string) (func(), error) {
	type result struct {
		resp wireResponse
		addr string
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, addr, err := c.callAddr(&wireRequest{Op: op, Name: name})
		ch <- result{resp, addr, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, r.err
		}
		token, addr := r.resp.Token, r.addr
		return func() { c.unlockAt(addr, token) }, nil
	case <-ctx.Done():
		// The server may still grant the lock; release it when it
		// arrives so it is not leaked.
		go func() {
			if r := <-ch; r.err == nil {
				c.unlockAt(r.addr, r.resp.Token)
			}
		}()
		return nil, ctx.Err()
	}
}

// unlockAt releases a lock token at the endpoint that issued it, with
// a few same-endpoint retries (unlock is idempotent: an unknown token
// just errors).
func (c *RemoteClient) unlockAt(addr, token string) {
	for attempt := 0; ; attempt++ {
		_, _, err := c.roundTripTo(addr, &wireRequest{Op: "unlock", Token: token})
		if err == nil {
			return
		}
		if attempt >= remoteMaxRetries {
			return
		}
		if transport.BackoffFullJitter(context.Background(), attempt,
			remoteRetryBaseDelay, remoteRetryMaxDelay) != nil {
			return
		}
	}
}

// LockRead implements API.
func (c *RemoteClient) LockRead(ctx context.Context, name string) (func(), error) {
	return c.lock(ctx, "lock-read", name)
}

// LockWrite implements API.
func (c *RemoteClient) LockWrite(ctx context.Context, name string) (func(), error) {
	return c.lock(ctx, "lock-write", name)
}

// Close closes pooled connections.
func (c *RemoteClient) Close() error {
	c.mu.Lock()
	c.closed = true
	idle := c.idle
	c.idle = nil
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	return nil
}
