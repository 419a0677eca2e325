package transport

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blockstore"
)

// TestQuickDecodeRequestNeverPanics throws random frame bodies at the
// request decoder: it must reject or accept, never panic or over-read.
func TestQuickDecodeRequestNeverPanics(t *testing.T) {
	f := func(body []byte) bool {
		req, err := decodeRequest(body)
		if err != nil {
			return true
		}
		// On success the parsed fields must be consistent with the
		// frame: the declared segment fits and payload is the rest.
		return len(req.segment) <= len(body) &&
			len(req.payload) <= len(body) &&
			req.index >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRequestRoundTrip checks encode→decode is the identity for
// all valid inputs.
func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(op byte, segRaw []byte, index uint16, payload []byte) bool {
		seg := string(segRaw)
		if len(seg) > 0xFFFF {
			return true
		}
		body, err := encodeRequest(op, seg, int(index), payload)
		if err != nil {
			return false
		}
		req, err := decodeRequest(body)
		if err != nil {
			return false
		}
		return req.op == op && req.segment == seg &&
			req.index == int(index) && bytes.Equal(req.payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIndicesRoundTrip checks the LIST payload codec.
func TestQuickIndicesRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		in := make([]int, len(raw))
		for i, r := range raw {
			in[i] = int(r)
		}
		out, err := decodeIndices(encodeIndices(in))
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDispatchNeverPanics drives the server dispatch table with
// arbitrary requests — every op byte (known and unknown, SCRUB
// included) against both a checksummed and a bare store, sealing the
// checksummed store's payloads under even op bytes — and checks the
// reply is always a known status, never a panic.
func TestQuickDispatchNeverPanics(t *testing.T) {
	plain := NewServer(blockstore.NewMemStore(), ServerOptions{})
	framed := NewServer(blockstore.WithChecksums(blockstore.NewMemStore()), ServerOptions{})
	t.Cleanup(func() { plain.Close(); framed.Close() })
	ctx := context.Background()
	f := func(op byte, segRaw []byte, index uint16, payload []byte, useFramed bool) bool {
		seg := string(segRaw)
		if len(seg) > 0xFFFF {
			return true
		}
		srv := plain
		if useFramed {
			srv = framed
			if op%2 == 0 && len(payload) >= blockstore.ShareOverhead {
				// Half the payloads reach the framed store sealed,
				// so its Puts land as well as fail.
				payload = blockstore.SealShare(payload, seg, int(index))
			}
		}
		status, _ := srv.dispatch(ctx, request{
			op: op, segment: seg, index: int(index), payload: payload,
		})
		switch status {
		case statusOK, statusErr, statusNotFound, statusBusy, statusUnsupported:
			return true
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReadFrameBoundedAllocation checks that a hostile frame
// header cannot make the frame reader conjure bytes: a frame is either
// rejected or yields a chunk no larger than the input behind it.
func TestQuickReadFrameBoundedAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		hdr := make([]byte, 4+rng.Intn(64))
		rng.Read(hdr)
		r := newMuxReader(bytes.NewReader(hdr))
		if _, err := r.next(); err != nil {
			continue
		}
		if chunk, err := r.chunk(); err == nil && len(chunk) > len(hdr) {
			t.Fatalf("frame reader conjured %d bytes from %d", len(chunk), len(hdr))
		}
	}
}
