package robust

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metadata"
)

// latencyTracker keeps a bounded reservoir of completed share-fetch
// latencies and estimates their p99, which is the hedge trigger
// delay: hedge only the requests that are slower than ~99% of their
// peers, so the extra load stays ~1% while the tail collapses.
type latencyTracker struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	full    bool
}

const latencyTrackerCap = 256

func (t *latencyTracker) add(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.samples) < latencyTrackerCap {
		t.samples = append(t.samples, d)
		return
	}
	t.samples[t.next] = d
	t.next = (t.next + 1) % latencyTrackerCap
	t.full = true
}

// p99 returns the 99th-percentile estimate, or 0 with no samples.
func (t *latencyTracker) p99() time.Duration {
	t.mu.Lock()
	cp := append([]time.Duration(nil), t.samples...)
	t.mu.Unlock()
	if len(cp) == 0 {
		return 0
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := len(cp) * 99 / 100
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

// Hedge delay bounds: below 1ms a hedge is pure duplicated load;
// above 2s it no longer masks anything a human would call latency.
// Before any sample lands, 30ms is the prior.
const (
	hedgeDelayMin     = time.Millisecond
	hedgeDelayMax     = 2 * time.Second
	hedgeDelayInitial = 30 * time.Millisecond
)

// fetcher executes one read access's share fetches: CRC verification
// with reject-and-refetch, optional hedging, latency tracking, and
// the per-access recovery counters that end up in ReadStats.
type fetcher struct {
	c       *Client
	name    string
	sealed  bool
	hedge   bool
	delay   time.Duration // fixed hedge delay; 0 = adaptive
	tracker latencyTracker
	holders map[int][]string // index -> holder addresses (usually one)

	corrupt   atomic.Int64
	late      atomic.Int64 // shares that arrived after the read was canceled
	hedges    atomic.Int64
	hedgeWins atomic.Int64

	// Lifecycle states are loaded lazily on the first hedge: the
	// fault-free read path never pays the registry round trip.
	statesOnce sync.Once
	states     map[string]metadata.ServerState
}

func newFetcher(c *Client, name string, sealed bool, placement map[string][]int) *fetcher {
	f := &fetcher{
		c:      c,
		name:   name,
		sealed: sealed,
		hedge:  c.opts.HedgeReads,
		delay:  c.opts.HedgeDelay,
	}
	if f.hedge {
		f.holders = make(map[int][]string)
		for addr, indices := range placement {
			for _, i := range indices {
				f.holders[i] = append(f.holders[i], addr)
			}
		}
	}
	return f
}

// hedgeDelay returns the current trigger delay.
func (f *fetcher) hedgeDelay() time.Duration {
	if f.delay > 0 {
		return f.delay
	}
	d := f.tracker.p99()
	if d == 0 {
		return hedgeDelayInitial
	}
	if d < hedgeDelayMin {
		d = hedgeDelayMin
	}
	if d > hedgeDelayMax {
		d = hedgeDelayMax
	}
	return d
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
	primary func(int, []byte, error) // share for the holder's own stream

	// Per-window state. read, ctx and cancel are set before any stream
	// starts; the rest is guarded by mu, since GetStream may deliver
	// from several goroutines and a hedge races the primary.
	read    context.Context    // the read's context
	ctx     context.Context    // read, or the hedge race's child of it
	cancel  context.CancelFunc // stops the racing streams; nil without a hedge
	start   time.Time
	mu      sync.Mutex
	indices []int
	done    []bool  // by position in indices
	errs    []error // the holder's failures, by position
	ndone   int
}

// hedgeState is one hedge's holder and how it fared.
type hedgeState struct {
	addr  string
	store backend
	err   error // one of its failures
	won   bool  // it delivered a share first
}

var errShareNotDelivered = errors.New("robust: share not delivered")

func (f *fetcher) newWindow(addr string, store backend, deliver func(int, []byte)) *window {
	w := &window{f: f, addr: addr, store: store, deliver: deliver}
	w.primary = func(idx int, payload []byte, err error) { w.share(nil, idx, payload, err) }
	return w
}

// fetch retrieves one window of shares through the holder's GetStream,
// verifying each share and handing it to deliver the moment it arrives
// — no window barrier between the wire and the decoder. With hedging
// on, once the window outlives the hedge trigger the shares still
// outstanding are promoted to an alternate holder's GetStream; the
// first copy of each share wins, and once every share is in, the other
// stream is canceled. Returns the number of shares not delivered (0
// when the read was canceled, which says nothing about the holder).
func (w *window) fetch(ctx context.Context, indices []int) int {
	w.read, w.ctx, w.cancel, w.start = ctx, ctx, nil, time.Now()
	w.indices, w.ndone = indices, 0
	w.done = append(w.done[:0], make([]bool, len(indices))...)
	w.errs = append(w.errs[:0], make([]error, len(indices))...)
	if w.f.hedge {
		w.race(ctx)
	} else {
		w.store.GetStream(ctx, w.f.name, indices, w.primary)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if ctx.Err() != nil {
		return 0
	}
	// One health outcome per window: any share proves the holder
	// answered.
	var out error
	if w.ndone == 0 {
		for p, e := range w.errs {
			if e == nil {
				w.errs[p] = errShareNotDelivered
			}
		}
		out = w.f.c.batchOutcome(w.errs)
	}
	w.f.c.reportOutcome(w.addr, out)
	return len(indices) - w.ndone
}

// race runs the holder's stream against the hedge trigger.
func (w *window) race(ctx context.Context) {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.ctx, w.cancel = wctx, cancel
	primaryDone := make(chan struct{})
	go func() {
		defer close(primaryDone)
		w.store.GetStream(wctx, w.f.name, w.indices, w.primary)
	}()
	timer := time.NewTimer(w.f.hedgeDelay())
	defer timer.Stop()
	select {
	case <-primaryDone:
	case <-ctx.Done():
	case <-timer.C:
		w.hedge(wctx)
	}
	<-primaryDone
}

// hedge promotes the window's outstanding shares to an alternate
// holder (or, lacking one, fresh streams to the same holder) and runs
// that stream to completion while the primary keeps going.
func (w *window) hedge(ctx context.Context) {
	w.mu.Lock()
	remaining := make([]int, 0, len(w.indices)-w.ndone)
	for p, idx := range w.indices {
		if !w.done[p] {
			remaining = append(remaining, idx)
		}
	}
	w.mu.Unlock()
	if len(remaining) == 0 || ctx.Err() != nil {
		return
	}
	f := w.f
	f.hedges.Add(1)
	f.c.m.readHedges.Inc()
	h := &hedgeState{}
	h.addr, h.store = f.altStore(w.addr, remaining[0], w.store)
	h.store.GetStream(ctx, f.name, remaining, func(idx int, payload []byte, err error) {
		w.share(h, idx, payload, err)
	})
	w.mu.Lock()
	won, out := h.won, h.err
	w.mu.Unlock()
	if won {
		out = nil
		f.hedgeWins.Add(1)
		f.c.m.readHedgeWins.Inc()
	} else {
		f.c.m.readHedgeLosses.Inc()
	}
	f.c.reportOutcome(h.addr, out)
}

// share verifies one arriving share and hands it over unless another
// copy arrived first; h is the hedge it came from, nil for the
// holder's own stream. In a hedge race the window's last share stops
// the streams and teaches the hedge tracker the window's time, so the
// hedge delay calibrates to window latency, not share latency.
func (w *window) share(h *hedgeState, idx int, payload []byte, err error) {
	if err == nil && w.read.Err() != nil {
		// Decoded or canceled: the share would never reach the
		// decoder, so it is dropped unverified.
		w.f.late.Add(1)
		return
	}
	addr, store := w.addr, w.store
	if h != nil {
		addr, store = h.addr, h.store
	}
	if err == nil && w.f.sealed {
		payload, err = w.f.open(w.ctx, addr, store, idx, payload)
	}
	w.mu.Lock()
	p := slices.Index(w.indices, idx)
	if p < 0 || w.done[p] {
		w.mu.Unlock()
		return
	}
	if err != nil {
		if h != nil {
			h.err = err
		} else {
			w.errs[p] = err
		}
		w.mu.Unlock()
		return
	}
	w.done[p], w.errs[p] = true, nil
	w.ndone++
	if h != nil {
		h.won = true
	}
	all := w.ndone == len(w.indices)
	w.mu.Unlock()
	w.deliver(idx, payload)
	if all && w.cancel != nil {
		w.f.tracker.add(time.Since(w.start))
		w.cancel()
	}
}

// serverStates returns the registry's lifecycle states, fetched once
// per access on first use (hedge decisions only — never the fault-free
// path).
func (f *fetcher) serverStates() map[string]metadata.ServerState {
	f.statesOnce.Do(func() {
		srvs := f.c.meta.Servers()
		f.states = make(map[string]metadata.ServerState, len(srvs))
		for _, s := range srvs {
			f.states[s.Addr] = s.State.Normalize()
		}
	})
	return f.states
}

// altStore picks a different, non-evicted holder of idx when the
// placement has one — preferring Active holders, since a Draining
// server is being evacuated and a Removed one is on its way out of
// the placement entirely; otherwise the hedge goes back to the same
// store, where fresh streams dodge whatever stalled the first ones.
func (f *fetcher) altStore(primaryAddr string, idx int, primary backend) (string, backend) {
	states := f.serverStates()
	var fallbackAddr string
	var fallback backend
	for _, addr := range f.holders[idx] {
		if addr == primaryAddr || f.c.excluded(addr) {
			continue
		}
		st, ok := f.c.store(addr)
		if !ok {
			continue
		}
		if states[addr] == "" || states[addr] == metadata.ServerActive {
			return addr, st
		}
		if fallback == nil {
			fallbackAddr, fallback = addr, st
		}
	}
	if fallback != nil {
		return fallbackAddr, fallback
	}
	return primaryAddr, primary
}
