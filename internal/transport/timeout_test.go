package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/blockstore"
)

// stalledServer answers the preface and the dial-time ping on each
// connection, then swallows every subsequent request without replying
// — a hung storage server, the failure mode RequestTimeout exists for.
func stalledServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if !answerPreface(conn) {
					return
				}
				r := newMuxReader(conn)
				f, err := r.next()
				if err != nil || !okResponse(conn, f.id) {
					return
				}
				// Stall: keep reading, never respond.
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()
	return ln
}

// Without RequestTimeout a hung server pins the request until the
// caller cancels; with it the round-trip fails fast with
// ErrRequestTimeout, letting the speculative read proceed on other
// servers (§4.2).
func TestRequestTimeoutStalledServer(t *testing.T) {
	ln := stalledServer(t)
	defer ln.Close()

	c, err := Dial(ln.Addr().String(), ClientOptions{RequestTimeout: 150 * time.Millisecond, MaxConns: 1})
	if err != nil {
		t.Fatalf("dial (ping should succeed): %v", err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Get(context.Background(), "seg", 0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Get against stalled server succeeded")
	}
	if !errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("err = %v, want ErrRequestTimeout", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Get took %v; deadline did not fire", elapsed)
	}
}

// A stalled server must not stall Dial either: the preface exchange
// runs under the request deadline.
func TestRequestTimeoutBoundsDialPing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Accept and stall without even answering the preface.
			go func(conn net.Conn) {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()

	start := time.Now()
	_, err = Dial(ln.Addr().String(), ClientOptions{RequestTimeout: 150 * time.Millisecond})
	if err == nil {
		t.Fatal("Dial to stalled server succeeded")
	}
	if !errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("err = %v, want ErrRequestTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Dial took %v; deadline did not fire", elapsed)
	}
}

// With a healthy server the deadline must be invisible: requests
// succeed back-to-back, well after the preface deadline would have
// passed, on the same connection.
func TestRequestTimeoutHealthyServer(t *testing.T) {
	srv := NewServer(blockstore.NewMemStore(), ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := Dial(ln.Addr().String(), ClientOptions{RequestTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	payload := []byte("block data")
	for i := 0; i < 5; i++ {
		if err := c.Put(ctx, "seg", i, payload); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		// Sleep past the preface's absolute deadline: if establishment
		// failed to clear it, the connection would now fail.
		if i == 0 {
			time.Sleep(300 * time.Millisecond)
		}
	}
	for i := 0; i < 5; i++ {
		got, err := c.Get(ctx, "seg", i)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if string(got) != string(payload) {
			t.Fatalf("get %d = %q", i, got)
		}
	}
}

// Caller cancellation still wins over the request deadline: a ctx
// canceled mid-exchange reports ctx.Err, not ErrRequestTimeout.
func TestRequestTimeoutCancellationWins(t *testing.T) {
	ln := stalledServer(t)
	defer ln.Close()

	c, err := Dial(ln.Addr().String(), ClientOptions{RequestTimeout: 10 * time.Second, MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = c.Get(ctx, "seg", 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
