package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// scriptedServer speaks the block protocol by hand so tests can
// misbehave at exact exchange boundaries. It answers each
// connection's preface, then calls the script with the 1-based global
// exchange number, the live conn and the exchange's stream id once a
// request is complete; returning false closes the connection without
// a (full) response.
type scriptedServer struct {
	ln       net.Listener
	exchange atomic.Int64
	conns    atomic.Int64
}

func newScriptedServer(t *testing.T, script func(n int64, conn net.Conn, id uint32) bool) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{ln: ln}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.conns.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				if !answerPreface(conn) {
					return
				}
				r := newMuxReader(conn)
				for {
					f, err := r.next()
					if err != nil {
						return
					}
					if f.kind != muxKindReq || f.flags&muxFlagFIN == 0 {
						continue
					}
					if !script(s.exchange.Add(1), conn, f.id) {
						return
					}
				}
			}(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return s
}

// answerPreface reads a client's preface and accepts its proposal.
func answerPreface(conn net.Conn) bool {
	s, err := readPreface(conn)
	if err != nil {
		return false
	}
	_, err = conn.Write(encodePreface(s))
	return err == nil
}

// okResponse writes a well-formed OK response on stream id.
func okResponse(conn net.Conn, id uint32) bool {
	return writeMuxFrame(&lockedWriter{w: conn}, muxKindResp, id, respLenHead(muxFlagFIN, statusOK, 1), []byte("x")) == nil
}

// TestExchangeDropsConnOnShortRead: a response truncated mid-frame
// (short read) must drop the connection — a half-read conn would
// poison the next request on it — and the next request dials fresh.
// The poisoned exchange is a PUT, which is never retried, so its error
// reaches the caller.
func TestExchangeDropsConnOnShortRead(t *testing.T) {
	srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
		switch n {
		case 1: // Dial's ping
			return okResponse(conn, id)
		case 2: // truncated frame: promise a 9-byte chunk, deliver 3, close
			var head bytes.Buffer
			writeMuxFrame(&lockedWriter{w: &head}, muxKindResp, id, respLenHead(muxFlagFIN, statusOK, 9), []byte("abcdefghi"))
			conn.Write(head.Bytes()[:head.Len()-6])
			return false
		default:
			return okResponse(conn, id)
		}
	})
	reg := obs.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), ClientOptions{MaxConns: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Put(ctx, "seg", 0, []byte("data")); err == nil {
		t.Fatal("short-read exchange should error")
	}
	// The poisoned conn must not be reused: the next request dials
	// fresh and succeeds.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("request after short read failed: %v", err)
	}
	if got := srv.conns.Load(); got != 2 {
		t.Fatalf("server saw %d conns, want 2 (poisoned conn dropped, fresh dial)", got)
	}
}

// TestExchangeDropsConnOnEmptyResponse: a RESP frame without its
// flags and status is a protocol violation that kills the connection,
// so the next request runs on a fresh one. The violating exchange is
// an unretried PUT, so its error reaches the caller.
func TestExchangeDropsConnOnEmptyResponse(t *testing.T) {
	srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
		switch n {
		case 1:
			return okResponse(conn, id)
		case 2: // RESP frame with no flags or status byte
			conn.Write([]byte{0, 0, 0, 5, muxKindResp, byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)})
			return true
		default:
			return okResponse(conn, id)
		}
	})
	reg := obs.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), ClientOptions{MaxConns: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Put(ctx, "seg", 0, []byte("data")); err == nil {
		t.Fatal("empty response should error")
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("request after empty response failed: %v", err)
	}
	if got := reg.Counter("transport_client_mux_dials_total").Value(); got != 2 {
		t.Fatalf("dials=%d, want 2: the protocol-violating conn must not be reused", got)
	}
}

// TestIdempotentRetryRecovers: the GET's first attempt and all but its
// last retry die mid-air; the last retry of the budget still lands, so
// the GET succeeds and the retry counters record the recovery.
func TestIdempotentRetryRecovers(t *testing.T) {
	srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
		if n == 1 || n > 1+maxRetries { // Dial's ping, the last retry
			return okResponse(conn, id)
		}
		return false // a dead exchange: close without responding
	})
	reg := obs.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), ClientOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Get(context.Background(), "seg", 0); err != nil {
		t.Fatalf("get with retries failed: %v", err)
	}
	if got := reg.Counter("transport_client_retries_total").Value(); got != maxRetries {
		t.Fatalf("retries=%d, want maxRetries=%d", got, maxRetries)
	}
	if got := reg.Counter("transport_client_retry_successes_total").Value(); got != 1 {
		t.Fatalf("retry successes=%d, want 1", got)
	}
}

// TestPutNotRetried: PUT is non-idempotent at the transport layer
// (the robust write path re-routes failures to healthier servers), so
// a dead exchange must surface immediately.
func TestPutNotRetried(t *testing.T) {
	srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
		if n == 1 {
			return okResponse(conn, id)
		}
		return false // every later exchange dies
	})
	reg := obs.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), ClientOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(context.Background(), "seg", 0, []byte("data")); err == nil {
		t.Fatal("put against a dead exchange should fail")
	}
	if got := reg.Counter("transport_client_retries_total").Value(); got != 0 {
		t.Fatalf("retries=%d, want 0: puts must not retry", got)
	}
}

// TestRetryGivesUpAfterBudget: a server that never recovers exhausts
// the retry budget and reports the giveup.
func TestRetryGivesUpAfterBudget(t *testing.T) {
	srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
		if n == 1 {
			return okResponse(conn, id)
		}
		return false
	})
	reg := obs.NewRegistry()
	c, err := Dial(srv.ln.Addr().String(), ClientOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Get(context.Background(), "seg", 0); err == nil {
		t.Fatal("get should fail once the retry budget is exhausted")
	}
	if got := reg.Counter("transport_client_retries_total").Value(); got != maxRetries {
		t.Fatalf("retries=%d, want maxRetries=%d", got, maxRetries)
	}
	if got := reg.Counter("transport_client_retry_giveups_total").Value(); got != 1 {
		t.Fatalf("giveups=%d, want 1", got)
	}
}

// TestRetryHonorsCancellation: caller cancellation must win over the
// retry loop, during the exchange and during the backoff sleep.
func TestRetryHonorsCancellation(t *testing.T) {
	t.Run("exchange", func(t *testing.T) {
		// Every exchange after Dial's ping stalls: the cancel lands
		// while the GET's first attempt is in flight.
		srv := newScriptedServer(t, func(n int64, conn net.Conn, id uint32) bool {
			if n == 1 {
				return okResponse(conn, id)
			}
			return true // keep the conn, never answer
		})
		reg := obs.NewRegistry()
		c, err := Dial(srv.ln.Addr().String(), ClientOptions{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(30*time.Millisecond, cancel)
		start := time.Now()
		if _, err := c.Get(ctx, "seg", 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled get = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v — retry loop ignored ctx", elapsed)
		}
		if got := reg.Counter("transport_client_retries_total").Value(); got != 0 {
			t.Fatalf("retries=%d, want 0: a canceled exchange is not retried", got)
		}
	})
	t.Run("backoff", func(t *testing.T) {
		// The sleep between attempts ends with its context, at every
		// attempt of the budget and even when the jitter draws zero.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for attempt := 0; attempt < maxRetries; attempt++ {
			if err := BackoffFullJitter(ctx, attempt, retryBaseDelay, retryMaxDelay); !errors.Is(err, context.Canceled) {
				t.Fatalf("backoff %d under a canceled ctx = %v, want context.Canceled", attempt, err)
			}
		}
		// A sleep already under way is cut short: the backoff at the
		// delay cap, canceled once it has begun, returns long before a
		// full-length sleep would.
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		start := time.Now()
		go func() { done <- BackoffFullJitter(ctx, 30, time.Hour, time.Hour) }()
		time.Sleep(10 * time.Millisecond)
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("backoff canceled mid-sleep = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("mid-sleep cancellation took %v", elapsed)
		}
	})
}
