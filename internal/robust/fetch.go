package robust

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/blockstore"
)

// fetcher executes one read access's share fetches: envelope checks
// with reject-and-refetch, and the per-access recovery counters that
// end up in ReadStats. Each window of shares is asked for once, from
// its one holder; stragglers are masked by the read's fan-out to every
// holder and its cancel at decode (§4.3.3), not by asking again.
type fetcher struct {
	c          *Client
	name       string
	blockBytes int64

	corrupt atomic.Int64
	late    atomic.Int64 // shares that arrived after the read was canceled
}

// shareData checks a delivered share and returns its payload: an
// envelope that opens as block idx of segment name to exactly
// blockBytes. Any other share is ErrCorruptShare — an erasure to the
// decoder, not a panic in it or wrong bytes out of it.
func shareData(share []byte, name string, idx int, blockBytes int64) ([]byte, error) {
	data, err := blockstore.OpenShare(share, name, idx)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptShare, err)
	}
	if int64(len(data)) != blockBytes {
		return nil, fmt.Errorf("%w: %d-byte payload, want %d", ErrCorruptShare, len(data), blockBytes)
	}
	return data, nil
}

// open checks a share, refetching it once through the single-block op
// when it fails: transit corruption is usually transient, disk
// corruption is not — one retry tells them apart without letting a
// rotten server stall the read.
func (f *fetcher) open(ctx context.Context, addr string, store backend, idx int, share []byte) ([]byte, error) {
	data, err := shareData(share, f.name, idx, f.blockBytes)
	if err == nil {
		return data, nil
	}
	f.corrupt.Add(1)
	f.c.m.readCorruptShares.Inc()
	if cerr := ctx.Err(); cerr != nil {
		return nil, errors.Join(err, cerr)
	}
	share, gerr := store.Get(ctx, f.name, idx)
	f.c.reportOutcome(addr, gerr)
	if gerr != nil {
		return nil, errors.Join(err, gerr)
	}
	if data, err = shareData(share, f.name, idx, f.blockBytes); err != nil {
		f.corrupt.Add(1)
		f.c.m.readCorruptShares.Inc()
		return nil, err
	}
	return data, nil
}

// window fetches one read worker's windows of shares from its holder.
// It is reused across the worker's windows, so the fault-free path
// allocates nothing per window.
type window struct {
	f       *fetcher
	addr    string
	store   backend
	deliver func(int, []byte)
	got     func(int, []byte, error) // the GetStream callback, bound once

	// Per-window state. read is set before the stream starts; the rest
	// is guarded by mu, since GetStream may deliver from several
	// goroutines.
	read  context.Context
	mu    sync.Mutex
	errs  []error // the holder's failures, in arrival order
	ndone int
}

var errShareNotDelivered = errors.New("robust: share not delivered")

func (f *fetcher) newWindow(addr string, store backend, deliver func(int, []byte)) *window {
	w := &window{f: f, addr: addr, store: store, deliver: deliver}
	w.got = w.share
	return w
}

// fetch retrieves one window of shares through the holder's GetStream,
// verifying each share and handing it to deliver the moment it arrives
// — no window barrier between the wire and the decoder. Returns the
// number of shares not delivered (0 when the read was canceled, which
// says nothing about the holder).
func (w *window) fetch(ctx context.Context, indices []int) int {
	w.read, w.errs, w.ndone = ctx, w.errs[:0], 0
	w.store.GetStream(ctx, w.f.name, indices, w.got)
	w.mu.Lock()
	defer w.mu.Unlock()
	if ctx.Err() != nil {
		return 0
	}
	// One health outcome per window: any share proves the holder
	// answered.
	var out error
	if w.ndone == 0 {
		if len(w.errs) < len(indices) {
			w.errs = append(w.errs, errShareNotDelivered)
		}
		out = w.f.c.batchOutcome(w.errs)
	}
	w.f.c.reportOutcome(w.addr, out)
	return len(indices) - w.ndone
}

// share checks one arriving share and hands it over.
func (w *window) share(idx int, payload []byte, err error) {
	if err == nil && w.read.Err() != nil {
		// Decoded or canceled: the share would never reach the
		// decoder, so it is dropped unverified.
		w.f.late.Add(1)
		return
	}
	if err == nil {
		payload, err = w.f.open(w.read, w.addr, w.store, idx, payload)
	}
	w.mu.Lock()
	if err != nil {
		w.errs = append(w.errs, err)
		w.mu.Unlock()
		return
	}
	w.ndone++
	w.mu.Unlock()
	w.deliver(idx, payload)
}
