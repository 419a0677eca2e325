package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// testFrame is a decoded v2 frame with its chunk copied out of the
// reader's scratch buffer.
type testFrame struct {
	muxFrame
	chunk []byte
}

// decodeMuxFrame parses one frame body (the bytes after the outer
// length prefix) through the production frame reader.
func decodeMuxFrame(body []byte) (testFrame, error) {
	var framed bytes.Buffer
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(body)))
	framed.Write(prefix[:])
	framed.Write(body)
	r := newMuxReader(&framed)
	f, err := r.next()
	if err != nil {
		return testFrame{}, err
	}
	chunk, err := r.chunk()
	if err != nil {
		return testFrame{}, err
	}
	return testFrame{muxFrame: f, chunk: bytes.Clone(chunk)}, nil
}

// respLenHead is a RESP head announcing a total response length.
func respLenHead(flags, status byte, total uint32) []byte {
	head := []byte{flags | muxFlagLen, status, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(head[2:], total)
	return head
}

// encodeMuxTestFrame writes one v2 frame through the production writer
// and returns its body (length prefix stripped), i.e. exactly what
// decodeMuxFrame receives.
func encodeMuxTestFrame(t *testing.T, kind byte, id uint32, head, chunk []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeMuxFrame(&lockedWriter{w: &buf}, kind, id, head, chunk); err != nil {
		t.Fatalf("writeMuxFrame: %v", err)
	}
	body, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return body
}

func TestMuxFrameHeaderRoundTrip(t *testing.T) {
	win := encodeMuxWindow(123456)
	cases := []struct {
		name string
		kind byte
		id   uint32
		head []byte
		body []byte
	}{
		{"req", muxKindReq, 7, []byte{muxFlagFIN}, []byte("hello request")},
		{"req-empty", muxKindReq, 0xFFFFFFFF, []byte{0}, nil},
		{"resp", muxKindResp, 42, []byte{0, statusNotFound}, []byte("chunk")},
		{"resp-fin-empty", muxKindResp, 1, []byte{muxFlagFIN, statusOK}, nil},
		{"resp-len", muxKindResp, 5, respLenHead(0, statusOK, 1000), []byte("first of many")},
		{"resp-len-fin", muxKindResp, 6, respLenHead(muxFlagFIN, statusErr, 4), []byte("oops")},
		{"window", muxKindWindow, 9, nil, win[:]},
		{"reset", muxKindReset, 3, nil, []byte("stop it")},
		{"reset-empty", muxKindReset, 3, nil, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := decodeMuxFrame(encodeMuxTestFrame(t, c.kind, c.id, c.head, c.body))
			if err != nil {
				t.Fatalf("decodeMuxFrame: %v", err)
			}
			if f.kind != c.kind || f.id != c.id {
				t.Fatalf("kind/id = %d/%d, want %d/%d", f.kind, f.id, c.kind, c.id)
			}
			switch c.kind {
			case muxKindReq:
				if f.flags != c.head[0] || !bytes.Equal(f.chunk, c.body) {
					t.Fatalf("REQ flags/chunk = %d/%q", f.flags, f.chunk)
				}
			case muxKindResp:
				if f.flags != c.head[0] || f.status != c.head[1] || !bytes.Equal(f.chunk, c.body) {
					t.Fatalf("RESP flags/status/chunk = %d/%d/%q", f.flags, f.status, f.chunk)
				}
				if f.flags&muxFlagLen != 0 {
					if want := int(binary.BigEndian.Uint32(c.head[2:])); f.total != want {
						t.Fatalf("RESP total = %d, want %d", f.total, want)
					}
				}
			case muxKindWindow:
				if f.credit != 123456 {
					t.Fatalf("credit = %d, want 123456", f.credit)
				}
			case muxKindReset:
				if !bytes.Equal(f.chunk, c.body) {
					t.Fatalf("RESET message = %q, want %q", f.chunk, c.body)
				}
			}
		})
	}
}

func TestDecodeMuxFrameRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":           nil,
		"short-header":    {muxKindReq, 0, 0},
		"req-no-flags":    {muxKindReq, 0, 0, 0, 1},
		"resp-flags-only": {muxKindResp, 0, 0, 0, 1, 0},
		"resp-len-short":  {muxKindResp, 0, 0, 0, 1, muxFlagLen, statusOK, 0, 0, 1},
		"resp-len-under":  append(append([]byte{muxKindResp, 0, 0, 0, 1}, respLenHead(0, statusOK, 2)...), 'a', 'b', 'c'),
		"resp-len-huge":   append([]byte{muxKindResp, 0, 0, 0, 1}, respLenHead(0, statusOK, MaxFrame+1)...),
		"window-short":    {muxKindWindow, 0, 0, 0, 1, 0, 0, 1},
		"window-long":     {muxKindWindow, 0, 0, 0, 1, 0, 0, 0, 1, 9},
		"window-negative": {muxKindWindow, 0, 0, 0, 1, 0x80, 0, 0, 0},
		"unknown-kind":    {9, 0, 0, 0, 1, 0},
		"kind-zero":       {0, 0, 0, 0, 1},
	}
	for name, body := range cases {
		if _, err := decodeMuxFrame(body); err == nil {
			t.Errorf("decodeMuxFrame(%s) accepted malformed frame %v", name, body)
		}
	}
}

func TestMuxSettingsRoundTripAndNegotiate(t *testing.T) {
	for _, s := range []muxSettings{
		{window: 1 << 20, maxStreams: 64},
		{window: 1 << 20, maxStreams: 64, features: muxFeatureLen},
	} {
		enc := encodeMuxSettings(s)
		got, err := decodeMuxSettings(enc)
		if err != nil || got != s {
			t.Fatalf("round trip = %+v, %v; want %+v", got, err, s)
		}
		if s.features == 0 && len(enc) != 8 {
			t.Fatalf("featureless settings encode to %d bytes, want the original 8", len(enc))
		}
	}
	for name, payload := range map[string][]byte{
		"short":        make([]byte, 7),
		"long":         make([]byte, 9),
		"longer":       make([]byte, 13),
		"zero-window":  encodeMuxSettings(muxSettings{window: 0, maxStreams: 4}),
		"zero-streams": encodeMuxSettings(muxSettings{window: 4, maxStreams: 0}),
	} {
		if _, err := decodeMuxSettings(payload); err == nil {
			t.Errorf("decodeMuxSettings(%s) accepted bad settings", name)
		}
	}
	a := muxSettings{window: 8 << 10, maxStreams: 100}
	b := muxSettings{window: 1 << 20, maxStreams: 16}
	want := muxSettings{window: 8 << 10, maxStreams: 16}
	if got := a.negotiate(b); got != want {
		t.Fatalf("negotiate = %+v, want %+v", got, want)
	}
	if got := b.negotiate(a); got != want {
		t.Fatalf("negotiate (reversed) = %+v, want %+v", got, want)
	}
	// A feature is on only when both ends offer it.
	a.features, b.features = muxFeatureLen, 0
	if got := a.negotiate(b); got.features != 0 {
		t.Fatalf("negotiate kept features %#x the peer did not offer", got.features)
	}
	b.features = muxFeatureLen
	if got := a.negotiate(b); got.features != muxFeatureLen {
		t.Fatalf("negotiate features = %#x, want %#x", got.features, muxFeatureLen)
	}
}

func TestCreditGateTakeClampsAndDebits(t *testing.T) {
	g := newCreditGate(muxChunkSize * 3)
	n, err := g.take(muxChunkSize*2, nil)
	if err != nil || n != muxChunkSize {
		t.Fatalf("take = %d, %v; want chunk-size clamp %d", n, err, muxChunkSize)
	}
	n, err = g.take(10, nil)
	if err != nil || n != 10 {
		t.Fatalf("take = %d, %v; want 10", n, err)
	}
	// Drain the rest, then ask for more than remains: the take is
	// clamped to what is available rather than blocking.
	rest := muxChunkSize*2 - 10
	for rest > 0 {
		n, err = g.take(rest, nil)
		if err != nil || n == 0 {
			t.Fatalf("drain take = %d, %v", n, err)
		}
		rest -= n
	}
	g.grant(5)
	n, err = g.take(100, nil)
	if err != nil || n != 5 {
		t.Fatalf("partial take = %d, %v; want 5", n, err)
	}
}

func TestCreditGateBlocksUntilGrantAndCountsStall(t *testing.T) {
	g := newCreditGate(0)
	var stalls atomic.Int64
	done := make(chan struct{})
	var n int
	var err error
	go func() {
		defer close(done)
		n, err = g.take(64, func() { stalls.Add(1) })
	}()
	select {
	case <-done:
		t.Fatal("take returned without credit")
	case <-time.After(20 * time.Millisecond):
	}
	g.grant(64)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("take did not wake after grant")
	}
	if err != nil || n != 64 {
		t.Fatalf("take = %d, %v; want 64", n, err)
	}
	if stalls.Load() != 1 {
		t.Fatalf("stalled callback ran %d times, want 1", stalls.Load())
	}
}

func TestCreditGateCloseReleasesWaiter(t *testing.T) {
	g := newCreditGate(0)
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		_, err := g.take(1, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	g.close(boom)
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("take err = %v, want boom", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("take did not wake after close")
	}
	if _, err := g.take(1, nil); !errors.Is(err, boom) {
		t.Fatalf("take after close = %v, want boom", err)
	}
}

func TestCtlQueueCoalescesGrants(t *testing.T) {
	q := newCtlQueue()
	q.grant(7, 100)
	q.grant(7, 28)
	q.grant(9, 5)
	q.reset(3, "bye")
	var buf bytes.Buffer
	w := &lockedWriter{w: &buf}
	q.close()
	q.run(w, func(err error) { t.Fatalf("unexpected write error: %v", err) })
	frames := map[uint32]testFrame{}
	for buf.Len() > 0 {
		body, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		f, err := decodeMuxFrame(body)
		if err != nil {
			t.Fatalf("decodeMuxFrame: %v", err)
		}
		frames[f.id] = f
	}
	if f := frames[7]; f.kind != muxKindWindow || f.credit != 128 {
		t.Fatalf("stream 7 frame = %+v, want coalesced WINDOW 128", f)
	}
	if f := frames[9]; f.kind != muxKindWindow || f.credit != 5 {
		t.Fatalf("stream 9 frame = %+v, want WINDOW 5", f)
	}
	if f := frames[3]; f.kind != muxKindReset || string(f.chunk) != "bye" {
		t.Fatalf("stream 3 frame = %+v, want RESET", f)
	}
	// Post-close traffic is dropped, not queued or panicking.
	q.grant(1, 1)
	q.reset(1, "late")
}

func FuzzMuxFrameDecode(f *testing.F) {
	win := encodeMuxWindow(4096)
	f.Add([]byte{muxKindReq, 0, 0, 0, 1, muxFlagFIN, 'h', 'i'})
	f.Add([]byte{muxKindResp, 0, 0, 0, 2, 0, statusOK, 'x'})
	f.Add(append(append([]byte{muxKindResp, 0, 0, 0, 2}, respLenHead(muxFlagFIN, statusOK, 3)...), 'a', 'b', 'c'))
	f.Add(append(append([]byte{muxKindResp, 0, 0, 0, 2}, respLenHead(0, statusOK, 1<<20)...), 'x'))
	f.Add(append([]byte{muxKindResp, 0, 0, 0, 2}, respLenHead(0, statusNotFound, 0)...))
	f.Add([]byte{muxKindResp, 0, 0, 0, 2, muxFlagLen, statusOK, 0, 0})
	f.Add(append(append([]byte{muxKindResp, 0, 0, 0, 2}, respLenHead(0, statusOK, 1)...), 'x', 'y'))
	f.Add(append([]byte{muxKindWindow, 0, 0, 0, 3}, win[:]...))
	f.Add([]byte{muxKindReset, 0, 0, 0, 4, 'e', 'r', 'r'})
	f.Add([]byte{muxKindReq, 0, 0})
	f.Add([]byte{9, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeMuxFrame(body)
		if err != nil {
			return
		}
		if fr.kind < muxKindReq || fr.kind > muxKindReset {
			t.Fatalf("decoded unknown kind %d", fr.kind)
		}
		if len(fr.chunk) > len(body) || fr.n != len(fr.chunk) {
			t.Fatalf("chunk of %d bytes (head says %d) in a %d-byte frame", len(fr.chunk), fr.n, len(body))
		}
		if fr.flags&muxFlagLen != 0 && fr.kind == muxKindResp && fr.total < len(fr.chunk) {
			t.Fatalf("chunk of %d bytes exceeds the announced %d", len(fr.chunk), fr.total)
		}
		if fr.credit < 0 {
			t.Fatalf("negative credit decoded: %d", fr.credit)
		}
		// Re-encode through the production writer and decode again:
		// the frame must survive a round trip unchanged.
		var head []byte
		switch fr.kind {
		case muxKindReq:
			head = []byte{fr.flags}
		case muxKindResp:
			head = []byte{fr.flags, fr.status}
			if fr.flags&muxFlagLen != 0 {
				head = respLenHead(fr.flags, fr.status, uint32(fr.total))
			}
		case muxKindWindow:
			w := encodeMuxWindow(fr.credit)
			fr.chunk = w[:]
		}
		var buf bytes.Buffer
		if err := writeMuxFrame(&lockedWriter{w: &buf}, fr.kind, fr.id, head, fr.chunk); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		reBody, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		got, err := decodeMuxFrame(reBody)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if got.kind != fr.kind || got.id != fr.id || got.flags != fr.flags ||
			got.status != fr.status || got.credit != fr.credit || got.total != fr.total {
			t.Fatalf("round trip changed frame: %+v -> %+v", fr, got)
		}
		if fr.kind != muxKindWindow && !bytes.Equal(got.chunk, fr.chunk) {
			t.Fatalf("round trip changed chunk: %q -> %q", fr.chunk, got.chunk)
		}
	})
}

func FuzzMuxSettingsDecode(f *testing.F) {
	f.Add(encodeMuxSettings(muxSettings{window: defaultMuxWindow, maxStreams: defaultMuxStreams}))
	f.Add(encodeMuxSettings(muxSettings{window: defaultMuxWindow, maxStreams: defaultMuxStreams, features: muxFeatureLen}))
	f.Add(make([]byte, 8))
	f.Add(make([]byte, 12))
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := decodeMuxSettings(payload)
		if err != nil {
			return
		}
		if s.window <= 0 || s.maxStreams <= 0 {
			t.Fatalf("decoded non-positive settings: %+v", s)
		}
		got, err := decodeMuxSettings(encodeMuxSettings(s))
		if err != nil || got != s {
			t.Fatalf("settings round trip = %+v, %v; want %+v", got, err, s)
		}
	})
}
