package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// writeRecorder keeps a copy of every Write call's bytes. It has no
// writev, so a vectored frame write falls back to one Write per piece.
type writeRecorder struct{ writes [][]byte }

func (r *writeRecorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, bytes.Clone(p))
	return len(p), nil
}

// frames parses everything written so far through the production
// frame reader, copying each chunk out.
func (r *writeRecorder) frames(t *testing.T) []testFrame {
	t.Helper()
	mr := newMuxReader(bytes.NewReader(bytes.Join(r.writes, nil)))
	var out []testFrame
	for {
		f, err := mr.next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		chunk, err := mr.chunk()
		if err != nil {
			t.Fatalf("chunk: %v", err)
		}
		out = append(out, testFrame{muxFrame: f, chunk: bytes.Clone(chunk)})
	}
}

func TestMuxControlFrameIsOneWrite(t *testing.T) {
	win := encodeMuxWindow(4096)
	for _, tc := range []struct {
		name  string
		kind  byte
		chunk []byte
	}{
		{"window", muxKindWindow, win[:]},
		{"reset", muxKindReset, []byte("client gave up")},
	} {
		rec := &writeRecorder{}
		if err := writeMuxFrame(&lockedWriter{w: rec}, tc.kind, 9, nil, tc.chunk); err != nil {
			t.Fatal(err)
		}
		if len(rec.writes) != 1 {
			t.Fatalf("%s frame took %d writes, want 1", tc.name, len(rec.writes))
		}
		fs := rec.frames(t)
		if len(fs) != 1 || fs[0].kind != tc.kind || fs[0].id != 9 {
			t.Fatalf("%s: parsed %+v", tc.name, fs)
		}
	}
}

func TestMuxDataFrameAtMostTwoWrites(t *testing.T) {
	chunk := make([]byte, muxChunkSize)
	for i := range chunk {
		chunk[i] = byte(i * 7)
	}
	rec := &writeRecorder{}
	if err := writeMuxFrame(&lockedWriter{w: rec}, muxKindResp, 5, []byte{muxFlagFIN, statusOK}, chunk); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) > 2 {
		t.Fatalf("data frame took %d writes, want at most 2", len(rec.writes))
	}
	fs := rec.frames(t)
	if len(fs) != 1 || fs[0].kind != muxKindResp || fs[0].id != 5 || fs[0].flags != muxFlagFIN || !bytes.Equal(fs[0].chunk, chunk) {
		t.Fatal("data frame did not round-trip")
	}
}

// TestWriteMuxFrameAllocatesNothing writes frames to a raw TCP
// connection, the writev path: the pooled scratch carries the frame
// head and the two-piece vector, so a frame allocates nothing.
func TestWriteMuxFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	defer func() { <-done }() // after the deferred closes below
	defer ln.Close()
	go func() {
		defer close(done)
		if c, err := ln.Accept(); err == nil {
			io.Copy(io.Discard, c)
			c.Close()
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := &lockedWriter{w: conn}
	head, chunk := []byte{0, statusOK}, make([]byte, muxChunkSize)
	for _, n := range []int{muxChunkSize, 9} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := writeMuxFrame(w, muxKindResp, 3, head, chunk[:n]); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("a frame with a %d-byte chunk allocated %.1f times", n, allocs)
		}
	}
}

// TestCtlQueueKickIsOneWrite queues N grants and a reset before one
// kick and checks they leave in a single Write that parses back to
// exactly those frames.
func TestCtlQueueKickIsOneWrite(t *testing.T) {
	const n = 40
	q := newCtlQueue()
	want := make(map[uint32]int, n)
	for id := uint32(1); id <= n; id++ {
		q.grant(id, int(id)*100)
		q.grant(id, 1) // coalesces into the first grant
		want[id] = int(id)*100 + 1
	}
	q.reset(77, "stream abandoned")
	q.close() // the pending kick is still delivered, then run exits
	rec := &writeRecorder{}
	q.run(&lockedWriter{w: rec}, func(err error) { t.Errorf("write failed: %v", err) })
	<-q.done
	if len(rec.writes) != 1 {
		t.Fatalf("one kick took %d writes, want 1", len(rec.writes))
	}
	fs := rec.frames(t)
	if len(fs) != n+1 {
		t.Fatalf("parsed %d frames, want %d", len(fs), n+1)
	}
	for _, f := range fs[:n] {
		if f.kind != muxKindWindow || want[f.id] != f.credit {
			t.Fatalf("frame %+v, want a WINDOW of %d", f.muxFrame, want[f.id])
		}
		delete(want, f.id)
	}
	if last := fs[n]; last.kind != muxKindReset || last.id != 77 || string(last.chunk) != "stream abandoned" {
		t.Fatalf("last frame %+v %q, want the RESET", last.muxFrame, last.chunk)
	}
}
