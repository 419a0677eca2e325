package metadata

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// Failover-client tests: dead-endpoint rotation, leader-hint
// redirects, follower write proxying, retry of idempotent ops and lock
// endpoint affinity — against real NetworkServers over loopback TCP.

// serveAPI starts a NetworkServer for api on a loopback listener.
func serveAPI(t *testing.T, api API) (*NetworkServer, string) {
	t.Helper()
	srv := NewNetworkServerFor(api)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	return srv, ln.Addr().String()
}

// deadAddr returns a loopback address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestRemoteClientFailoverDeadEndpoint(t *testing.T) {
	svc := NewService()
	_, live := serveAPI(t, svc)
	dead := deadAddr(t)

	reg := obs.NewRegistry()
	client, err := DialRemoteMulti([]string{dead, live}, RemoteOptions{Obs: reg})
	if err != nil {
		t.Fatalf("dial with one dead endpoint = %v", err)
	}
	defer client.Close()

	if err := client.CreateSegment(validSegment("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.LookupSegment("x"); err != nil {
		t.Fatal(err)
	}
	// Only the dial's ping met the dead endpoint: one failover moved the
	// preference to the live one, which served every later call.
	if got := reg.Counter("meta_client_failovers_total").Value(); got != 1 {
		t.Errorf("failovers = %d, want 1 (away from the dead endpoint)", got)
	}
	if got := reg.Counter("meta_client_retries_total").Value(); got != 1 {
		t.Errorf("retries = %d, want 1 (the dial's ping, re-sent to the live endpoint)", got)
	}
}

// followerStub answers every write and lock with a NotLeaderError
// pointing at leaderAddr, while serving reads from its own view —
// the shape of a replica follower.
type followerStub struct {
	*Service
	mu         sync.Mutex
	leaderAddr string
	// hintless, while > 0, omits the leader hint (mid-election).
	hintless int
}

func (f *followerStub) redirect() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hintless > 0 {
		f.hintless--
		return &NotLeaderError{}
	}
	return &NotLeaderError{Leader: f.leaderAddr}
}

func (f *followerStub) CreateSegment(Segment) error   { return f.redirect() }
func (f *followerStub) UpdateSegment(Segment) error   { return f.redirect() }
func (f *followerStub) DeleteSegment(string) error    { return f.redirect() }
func (f *followerStub) RegisterServer(Server) error   { return f.redirect() }
func (f *followerStub) UnregisterServer(string) error { return f.redirect() }
func (f *followerStub) LockRead(context.Context, string) (func(), error) {
	return nil, f.redirect()
}
func (f *followerStub) LockWrite(context.Context, string) (func(), error) {
	return nil, f.redirect()
}

// TestFollowerProxyAndLockRedirect wires a client to a follower only.
// Writes go through via the server-side proxy; locks — never proxied
// — reach the leader via the client-side redirect, and the unlock
// stays pinned to the endpoint that granted the token.
func TestFollowerProxyAndLockRedirect(t *testing.T) {
	leaderSvc := NewService()
	_, leaderAddr := serveAPI(t, leaderSvc)
	follower := &followerStub{Service: NewService(), leaderAddr: leaderAddr}
	_, followerAddr := serveAPI(t, follower)

	client, err := DialRemoteMulti([]string{followerAddr}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Write through the follower: the proxy must land it on the leader.
	if err := client.CreateSegment(validSegment("via-proxy")); err != nil {
		t.Fatalf("proxied create = %v", err)
	}
	if _, err := leaderSvc.LookupSegment("via-proxy"); err != nil {
		t.Fatalf("segment did not reach the leader: %v", err)
	}
	// API error identity survives the proxy hop.
	if err := client.CreateSegment(validSegment("via-proxy")); !errors.Is(err, ErrSegmentExists) {
		t.Fatalf("proxied duplicate = %v", err)
	}

	// Lock through the follower: client-side redirect to the leader.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	unlock, err := client.LockWrite(ctx, "via-proxy")
	if err != nil {
		t.Fatalf("redirected lock = %v", err)
	}
	// The lock is held on the leader: a competing leader-local write
	// lock must block until we release.
	blocked, err := tryLockWrite(leaderSvc, "via-proxy", 100*time.Millisecond)
	if err == nil {
		blocked()
		t.Fatal("competing lock acquired while remote lock held")
	}
	unlock()
	got, err := tryLockWrite(leaderSvc, "via-proxy", 2*time.Second)
	if err != nil {
		t.Fatalf("lock still held after remote unlock: %v", err)
	}
	got()
}

func tryLockWrite(svc *Service, name string, wait time.Duration) (func(), error) {
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	return svc.LockWrite(ctx, name)
}

// TestRemoteClientHintlessNotLeaderRetry: during an election a node
// knows no leader; the client must back off and retry rather than
// fail the call.
func TestRemoteClientHintlessNotLeaderRetry(t *testing.T) {
	leaderSvc := NewService()
	_, leaderAddr := serveAPI(t, leaderSvc)
	follower := &followerStub{Service: NewService(), leaderAddr: leaderAddr, hintless: 2}
	_, followerAddr := serveAPI(t, follower)

	// Both endpoints point at the follower so retries re-ask it until
	// the "election" settles and the hint appears.
	client, err := DialRemoteMulti([]string{followerAddr}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.CreateSegment(validSegment("after-election")); err != nil {
		t.Fatalf("create through hintless spell = %v", err)
	}
	if _, err := leaderSvc.LookupSegment("after-election"); err != nil {
		t.Fatalf("segment missing on leader: %v", err)
	}
}

// TestRemoteClientRedirectLoopBounded: two "followers" pointing at
// each other must produce a bounded NotLeaderError, not an infinite
// redirect chase.
func TestRemoteClientRedirectLoopBounded(t *testing.T) {
	a := &followerStub{Service: NewService()}
	b := &followerStub{Service: NewService()}
	_, addrA := serveAPI(t, a)
	_, addrB := serveAPI(t, b)
	a.mu.Lock()
	a.leaderAddr = addrB
	a.mu.Unlock()
	b.mu.Lock()
	b.leaderAddr = addrA
	b.mu.Unlock()

	client, err := DialRemoteMulti([]string{addrA}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	// Locks are not server-proxied, so the loop is purely client-side
	// redirect chasing.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, lerr := client.LockWrite(ctx, "x")
	if !errors.Is(lerr, ErrNotLeader) {
		t.Fatalf("looping redirect = %v, want ErrNotLeader", lerr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("redirect loop took %v", elapsed)
	}
}

// flakyProxy fronts a real server, killing the first n exchanges
// after one byte arrives, so the client sees mid-flight transport
// errors (not dial failures).
type flakyProxy struct {
	backend string
	ln      net.Listener
	mu      sync.Mutex
	kills   int
	wg      sync.WaitGroup
}

func startFlakyProxy(t *testing.T, backend string, kills int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{backend: backend, ln: ln, kills: kills}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.run()
	}()
	t.Cleanup(func() {
		ln.Close()
		p.wg.Wait()
	})
	return ln.Addr().String()
}

func (p *flakyProxy) run() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn)
		}()
	}
}

func (p *flakyProxy) handle(conn net.Conn) {
	defer conn.Close()
	one := make([]byte, 1)
	if _, err := conn.Read(one); err != nil {
		return
	}
	p.mu.Lock()
	kill := p.kills > 0
	if kill {
		p.kills--
	}
	p.mu.Unlock()
	if kill {
		return // drop mid-request: the client has already sent bytes
	}
	back, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer back.Close()
	if _, err := back.Write(one); err != nil {
		return
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(conn, back)
	}()
	io.Copy(back, conn)
	back.Close()
	<-done
}

// TestRemoteClientRetriesIdempotentMidFlight: an exchange severed
// after the request was sent is retried for idempotent ops.
func TestRemoteClientRetriesIdempotentMidFlight(t *testing.T) {
	svc := NewService()
	if err := svc.CreateSegment(validSegment("present")); err != nil {
		t.Fatal(err)
	}
	_, backend := serveAPI(t, svc)
	proxy := startFlakyProxy(t, backend, 2)

	client, err := DialRemoteMulti([]string{proxy}, RemoteOptions{})
	if err != nil {
		t.Fatalf("dial through flaky proxy = %v", err)
	}
	defer client.Close()
	if _, err := client.LookupSegment("present"); err != nil {
		t.Fatalf("idempotent lookup through flaky link = %v", err)
	}
}

// TestRemoteClientNonIdempotentNotRetriedMidFlight: a create severed
// mid-flight must surface the transport error — the write may have
// executed, and blind replay could double-apply.
func TestRemoteClientNonIdempotentNotRetriedMidFlight(t *testing.T) {
	svc := NewService()
	_, backend := serveAPI(t, svc)
	proxy := startFlakyProxy(t, backend, 1000) // every exchange dies

	client := newRemoteClient([]string{proxy}, RemoteOptions{})
	defer client.Close()
	start := time.Now()
	err := client.CreateSegment(validSegment("maybe"))
	if err == nil {
		t.Fatal("create through always-killing proxy succeeded")
	}
	if errors.Is(err, ErrNotLeader) || errors.Is(err, ErrSegmentExists) {
		t.Fatalf("unexpected protocol error: %v", err)
	}
	// No retries: the call must fail after a single attempt, far
	// inside the budget remoteMaxRetries backoffs would burn.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("non-idempotent create took %v (looks retried)", elapsed)
	}
}

// TestForwardMidFlightAmbiguous: a follower whose proxied write to
// the leader dies after the request was sent must answer an explicit
// ambiguous-result error — not the not-leader redirect, which the
// client would read as "nothing executed" and blindly re-issue.
func TestForwardMidFlightAmbiguous(t *testing.T) {
	leaderSvc := NewService()
	_, leaderAddr := serveAPI(t, leaderSvc)
	// Every forward through the proxy dies mid-flight.
	proxyAddr := startFlakyProxy(t, leaderAddr, 1000)
	follower := &followerStub{Service: NewService(), leaderAddr: proxyAddr}
	_, followerAddr := serveAPI(t, follower)

	client, err := DialRemoteMulti([]string{followerAddr}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cerr := client.CreateSegment(validSegment("maybe-applied"))
	if cerr == nil {
		t.Fatal("create with severed forward succeeded")
	}
	if !errors.Is(cerr, ErrAmbiguous) {
		t.Fatalf("severed forward = %v, want ErrAmbiguous", cerr)
	}
	if errors.Is(cerr, ErrNotLeader) {
		t.Fatalf("severed forward leaked a not-leader redirect: %v", cerr)
	}
}

// TestRemoteClientDeleteNotRetriedMidFlight: delete is not in the
// blind-retry set — a retry after an unknown outcome races a
// concurrent re-create and misreports an executed delete as
// not-found — so a severed delete surfaces the transport error.
func TestRemoteClientDeleteNotRetriedMidFlight(t *testing.T) {
	svc := NewService()
	if err := svc.CreateSegment(validSegment("keep")); err != nil {
		t.Fatal(err)
	}
	_, backend := serveAPI(t, svc)
	proxy := startFlakyProxy(t, backend, 1000) // every exchange dies

	client := newRemoteClient([]string{proxy}, RemoteOptions{})
	defer client.Close()
	start := time.Now()
	err := client.DeleteSegment("keep")
	if err == nil {
		t.Fatal("delete through always-killing proxy succeeded")
	}
	if errors.Is(err, ErrSegmentNotFound) {
		t.Fatalf("unexpected protocol error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("delete took %v (looks retried)", elapsed)
	}
	if _, err := svc.LookupSegment("keep"); err != nil {
		t.Fatalf("segment vanished without reaching the service: %v", err)
	}
}
