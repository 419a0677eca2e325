package robust

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// fetcher executes one read access's share fetches: CRC verification
// with reject-and-refetch, and the per-access recovery counters that
// end up in ReadStats. Each window of shares is asked for once, from
// its one holder; stragglers are masked by the read's fan-out to every
// holder and its cancel at decode (§4.3.3), not by asking again.
type fetcher struct {
	c      *Client
	name   string
	sealed bool

	corrupt atomic.Int64
	late    atomic.Int64 // shares that arrived after the read was canceled
}

// open verifies a sealed share's envelope, refetching the share once
// through the single-block op on a mismatch: transit corruption is
// usually transient, disk corruption is not — one retry tells them
// apart without letting a rotten server stall the read.
func (f *fetcher) open(ctx context.Context, addr string, store backend, idx int, payload []byte) ([]byte, error) {
	data, err := openShare(payload)
	if err == nil {
		return data, nil
	}
	f.corrupt.Add(1)
	f.c.m.readCorruptShares.Inc()
	if cerr := ctx.Err(); cerr != nil {
		return nil, errors.Join(err, cerr)
	}
	payload, gerr := store.Get(ctx, f.name, idx)
	f.c.reportOutcome(addr, gerr)
	if gerr != nil {
		return nil, errors.Join(err, gerr)
	}
	if data, err = openShare(payload); err != nil {
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

// share verifies one arriving share and hands it over.
func (w *window) share(idx int, payload []byte, err error) {
	if err == nil && w.read.Err() != nil {
		// Decoded or canceled: the share would never reach the
		// decoder, so it is dropped unverified.
		w.f.late.Add(1)
		return
	}
	if err == nil && w.f.sealed {
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
