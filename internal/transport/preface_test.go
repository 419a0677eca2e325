package transport

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/obs"
)

// countingStore counts every call that reaches the store.
type countingStore struct {
	blockstore.Store
	calls atomic.Int64
}

func (s *countingStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	s.calls.Add(1)
	return s.Store.Put(ctx, segment, index, data)
}

func (s *countingStore) Get(ctx context.Context, segment string, index int) ([]byte, error) {
	s.calls.Add(1)
	return s.Store.Get(ctx, segment, index)
}

// sendFirstBytes opens a raw connection to addr, writes first, and
// returns everything the server sends back before closing it.
func sendFirstBytes(t *testing.T, addr string, first []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(first); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server may reset rather than close a connection it left
	// unread; only a timeout means it kept the connection open.
	got, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept the connection open")
	}
	return got
}

// startPrefaceServer serves a counting store and returns its address,
// the store and the server's metrics.
func startPrefaceServer(t *testing.T) (string, *countingStore, *obs.Registry) {
	t.Helper()
	store := &countingStore{Store: blockstore.NewMemStore()}
	reg := obs.NewRegistry()
	srv := NewServer(store, ServerOptions{Obs: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), store, reg
}

// pingFrame is a complete PING request on stream 1: what a client
// would send right after a valid preface.
func pingFrame(t *testing.T) []byte {
	t.Helper()
	body, err := encodeRequest(opPing, "-", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := writeMuxFrame(&lockedWriter{w: &wire}, muxKindReq, 1, []byte{muxFlagFIN}, body); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// TestServerRejectsBadPreface: a connection whose first bytes are not
// a valid preface is closed unanswered, and the request frames behind
// them never reach a stream or the store.
func TestServerRejectsBadPreface(t *testing.T) {
	addr, store, reg := startPrefaceServer(t)
	good := encodePreface(muxSettings{window: defaultMuxWindow, maxStreams: 8})
	zeroWindow := encodePreface(muxSettings{window: 0, maxStreams: 8})
	zeroStreams := encodePreface(muxSettings{window: defaultMuxWindow, maxStreams: 0})
	oldPut, err := encodeRequest(opPut, "seg", 0, []byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	oldFrame := append([]byte{0, 0, 0, byte(len(oldPut))}, oldPut...)
	ping := pingFrame(t)
	cases := map[string][]byte{
		"garbage":      append([]byte("GET / HTTP/1.1\r\n\r\n"), ping...),
		"zero-window":  append(zeroWindow, ping...),
		"zero-streams": append(zeroStreams, ping...),
		"request":      append(oldFrame, ping...),
		"bad-magic":    append(append([]byte{0, 0, 0, 0}, good[4:]...), ping...),
		"short":        good[:7], // then the client half-closes
	}
	for name, first := range cases {
		if got := sendFirstBytes(t, addr, first); len(got) != 0 {
			t.Errorf("%s: server answered %d bytes, want the connection closed unanswered", name, len(got))
		}
	}
	if n := reg.Counter("transport_server_bad_prefaces_total").Value(); n != int64(len(cases)) {
		t.Errorf("bad prefaces counted = %d, want %d", n, len(cases))
	}
	if n := reg.Counter("transport_server_mux_streams_total").Value(); n != 0 {
		t.Errorf("%d streams started behind bad prefaces", n)
	}
	if n := store.calls.Load(); n != 0 {
		t.Errorf("%d store calls behind bad prefaces", n)
	}
	// The server still serves a well-formed client.
	if got := sendFirstBytes(t, addr, append(good, ping...)); len(got) <= muxPrefaceLen {
		t.Errorf("valid preface and ping answered with %d bytes", len(got))
	}
}

// TestLegacyClientAgainstMuxServer: a client of the old protocol
// opens with a request frame; the server must close the connection
// without serving the request, so the old client fails loudly instead
// of misreading frames.
func TestLegacyClientAgainstMuxServer(t *testing.T) {
	addr, store, reg := startPrefaceServer(t)
	oldPut, err := encodeRequest(opPut, "seg", 3, []byte("old client"))
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := writeFrame(&frame, oldPut); err != nil {
		t.Fatal(err)
	}
	if got := sendFirstBytes(t, addr, frame.Bytes()); len(got) != 0 {
		t.Fatalf("server answered an old-protocol request with %d bytes", len(got))
	}
	if n := store.calls.Load(); n != 0 {
		t.Fatalf("old-protocol request reached the store (%d calls)", n)
	}
	if n := reg.Counter("transport_server_bad_prefaces_total").Value(); n != 1 {
		t.Fatalf("bad prefaces counted = %d, want 1", n)
	}
}

// TestDialRejectsBadPrefaceAnswer: a peer that does not answer with a
// valid preface fails Dial instead of being spoken to in frames.
func TestDialRejectsBadPrefaceAnswer(t *testing.T) {
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
			go func(conn net.Conn) {
				defer conn.Close()
				if _, err := readPreface(conn); err == nil {
					conn.Write(encodePreface(muxSettings{window: 0, maxStreams: 1}))
				}
			}(conn)
		}
	}()
	if c, err := Dial(ln.Addr().String(), ClientOptions{}); err == nil {
		c.Close()
		t.Fatal("Dial accepted a zero-window preface answer")
	}
}

func FuzzMuxPrefaceDecode(f *testing.F) {
	good := encodePreface(muxSettings{window: defaultMuxWindow, maxStreams: defaultMuxStreams})
	f.Add(good)
	f.Add(encodePreface(muxSettings{window: 0, maxStreams: 1}))
	f.Add(append([]byte{0, 0, 0, 12}, good[4:]...)) // an old frame length prefix
	f.Add(good[:11])
	f.Add(append(good, 0))
	f.Add([]byte("GET / HTTP/1.1\r\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodePreface(b)
		if err != nil {
			return
		}
		if len(b) != muxPrefaceLen || s.window <= 0 || s.maxStreams <= 0 {
			t.Fatalf("accepted %d-byte preface with settings %+v", len(b), s)
		}
		if !bytes.Equal(encodePreface(s), b) {
			t.Fatalf("preface %x does not re-encode to itself", b)
		}
	})
}
