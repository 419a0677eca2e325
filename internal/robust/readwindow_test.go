package robust

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// countingStore is an in-memory backend that counts the shares its
// GetStream calls ask for.
type countingStore struct {
	*blockstore.MemStore
	requested *atomic.Int64
}

func (s countingStore) PutStream(ctx context.Context, segment string, puts []blockstore.BatchPut, acked func(int, error)) error {
	return localBackend{s.MemStore}.PutStream(ctx, segment, puts, acked)
}

func (s countingStore) GetStream(ctx context.Context, segment string, indices []int, deliver func(int, []byte, error)) error {
	s.requested.Add(int64(len(indices)))
	return localBackend{s.MemStore}.GetStream(ctx, segment, indices, deliver)
}

// inflight counts shares requested and not yet delivered, and the most
// there were at once since its last reset.
type inflight struct {
	mu        sync.Mutex
	now, peak int
}

func (f *inflight) add(d int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now += d
	f.peak = max(f.peak, f.now)
}

func (f *inflight) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.peak = f.now
}

func (f *inflight) max() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.peak
}

// probeStore is an in-memory backend that records every GetStream
// call's indices, in arrival order, and counts the shares it has
// requested and not yet delivered in all, which the stores of one
// client share. hold, when set, runs before a call is served and can
// gate it. A stalled probe serves nothing until the call's context is
// canceled and then delivers every share anyway, as a server that
// shipped them before the cancel landed.
type probeStore struct {
	countingStore
	hold    func(ctx context.Context)
	stalled bool
	all     *inflight

	mu    sync.Mutex
	calls [][]int
}

func (p *probeStore) GetStream(ctx context.Context, segment string, indices []int, deliver func(int, []byte, error)) error {
	p.requested.Add(int64(len(indices)))
	p.mu.Lock()
	p.calls = append(p.calls, slices.Clone(indices))
	p.mu.Unlock()
	p.all.add(len(indices))
	delivered := func(idx int, data []byte, err error) {
		p.all.add(-1)
		deliver(idx, data, err)
	}
	if p.hold != nil {
		p.hold(ctx)
	}
	if p.stalled {
		<-ctx.Done()
		for _, idx := range indices {
			delivered(idx, []byte("shipped before the cancel landed"), nil)
		}
		return nil
	}
	return localBackend{p.MemStore}.GetStream(ctx, segment, indices, delivered)
}

func (p *probeStore) recorded() [][]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.calls)
}

// newProbeClient builds a client over n probe stores, addressed
// probe-00, probe-01, ... and sharing one requested-shares count and
// one in-flight count.
func newProbeClient(t *testing.T, n int, opts Options) (*Client, map[string]*probeStore, *atomic.Int64) {
	t.Helper()
	meta := metadata.NewService()
	c, err := NewClient(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	requested := new(atomic.Int64)
	all := &inflight{}
	stores := make(map[string]*probeStore, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("probe-%02d", i)
		stores[addr] = &probeStore{countingStore: countingStore{blockstore.NewMemStore(), requested}, all: all}
		if err := c.AttachStore(addr, stores[addr]); err != nil {
			t.Fatal(err)
		}
		meta.RegisterServer(metadata.Server{Addr: addr})
	}
	return c, stores, requested
}

// checkReadAccounting asserts that a read accounted for no more shares
// than it asked for: every requested share is received, late, failed,
// or none of these (canceled in flight), never two of them.
func checkReadAccounting(t *testing.T, stats ReadStats, requested int64) {
	t.Helper()
	if got := int64(stats.Received + stats.Late + stats.FailedGets); got > requested {
		t.Fatalf("received %d + late %d + failed %d = %d shares, but only %d were requested",
			stats.Received, stats.Late, stats.FailedGets, got, requested)
	}
}

func TestReadNeed(t *testing.T) {
	tests := []struct {
		name                string
		k, budget, resolved int
		want                int
	}{
		{"start: K plus the planned overhead", 32, 4, 0, 39},
		{"start: at K = 16", 16, 0, 0, 20},
		{"floor: the byte budget covers more", 16, 64, 0, 64},
		{"floor holds while the decoder is within it", 16, 64, 20, 64},
		{"growth: short after the need resolved", 32, 4, 39, 46},
		{"growth: short past the floor", 16, 64, 64, 68},
		{"growth again", 32, 4, 46, 53},
	}
	for _, tt := range tests {
		if got := readNeed(tt.k, tt.budget, tt.resolved); got != tt.want {
			t.Errorf("%s: readNeed(%d, %d, %d) = %d, want %d", tt.name, tt.k, tt.budget, tt.resolved, got, tt.want)
		}
	}
	budgets := []struct {
		blockBytes   int64
		chunks, want int
	}{
		{256 << 10, 1, 4},
		{16 << 10, 1, 64},
		{16 << 10, 3, 22}, // one budget over the read: ceil(64 / 3) per chunk
		{4 << 20, 1, 0},
	}
	for _, tt := range budgets {
		if got := readBudget(tt.blockBytes, tt.chunks); got != tt.want {
			t.Errorf("readBudget(%d, %d) = %d, want %d", tt.blockBytes, tt.chunks, got, tt.want)
		}
	}
}

func TestReadKeepsTheNeedInFlight(t *testing.T) {
	// A read asks for about as many shares as the decoder needs, over
	// all its holders together: with 256 KiB shares over 16 holders no
	// more than the need (plus one share per probe past a late holder)
	// is ever requested and undelivered at once, though every holder
	// holds more. The holders serve their calls in waves held 20ms, so
	// shares arrive in bursts.
	reg := obs.NewRegistry()
	c, stores, requested := newProbeClient(t, 16, Options{BlockBytes: 256 << 10, Obs: reg})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute) // a failure cannot hang
	defer cancel()
	data := randData(8<<20, 41) // K=32, 128 shares over 16 holders
	if _, err := c.Write(ctx, "big", data, nil); err != nil {
		t.Fatal(err)
	}
	g := newGate(ctx, 20*time.Millisecond)
	var all *inflight
	for _, p := range stores {
		all = p.all
		p.hold = func(ctx context.Context) {
			select {
			case <-g.join():
			case <-ctx.Done():
			}
		}
	}
	need := readNeed(32, readBudget(256<<10, 1), 0)
	probesSent := func() int { return int(reg.Snapshot().Counters["robust_read_speculative_total"]) }
	lateSum := 0
	for i := 0; i < 4; i++ {
		before, probesBefore := requested.Load(), probesSent()
		all.reset()
		got, stats, err := c.Read(ctx, "big")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data mismatch")
		}
		checkReadAccounting(t, stats, requested.Load()-before)
		lateSum += stats.Late
		probes := probesSent() - probesBefore
		if peak := all.max(); peak > need+probes {
			t.Errorf("read %d had %d shares requested and undelivered at once; the need is %d and %d probes were sent",
				i, peak, need, probes)
		}
	}
	if got := reg.Snapshot().Counters["robust_read_late_shares_total"]; got != int64(lateSum) {
		t.Fatalf("robust_read_late_shares_total = %d, want the reads' summed Late %d", got, lateSum)
	}
}

func TestSmallShareReadWindowsUnchanged(t *testing.T) {
	// With 16 KiB shares the byte budget covers 64 shares, more than
	// the decoder needs, so a read's first wave asks at once for every
	// placed share the budget covers, one run per worker: cheap
	// insurance against a stalled holder. Every holder is gated until
	// that first wave has arrived, so it is exact.
	c, stores, _ := newProbeClient(t, 2, Options{BlockBytes: 16 << 10})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute) // a failure cannot hang
	defer cancel()
	data := randData(512<<10, 42) // K=32, 128 shares over 2 holders
	if _, err := c.Write(ctx, "small", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("small")
	if err != nil {
		t.Fatal(err)
	}
	covered, placed := 0, 0 // what a first wave of one run per worker can ask for
	for _, indices := range seg.Placement {
		covered += min(len(indices), perServerParallel*batchBlocks)
		placed += len(indices)
	}
	want := min(readBudget(seg.Coding.BlockBytes, 1), covered)
	// Shares asked for, per arriving call. A read makes at most one
	// call per share, so no send blocks.
	asked := make(chan int, placed)
	gate := make(chan struct{})
	for _, p := range stores {
		p.hold = func(ctx context.Context) {
			calls := p.recorded()
			asked <- len(calls[len(calls)-1])
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
	}
	type result struct {
		data []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		got, _, err := c.Read(ctx, "small")
		done <- result{got, err}
	}()
	for wave := 0; wave < want; {
		select {
		case n := <-asked:
			wave += n
		case r := <-done:
			t.Fatalf("read ended (%v) after its first wave asked for %d of %d shares", r.err, wave, want)
		case <-time.After(10 * time.Second):
			t.Fatalf("the first wave asked for %d of %d shares and no more came", wave, want)
		}
	}
	// Every worker with a first run is inside its call now, so the
	// calls recorded are the whole first wave: exactly the shares the
	// budget covers, each asked for once, of its own holder, at most a
	// run per call.
	seen := make(map[int]bool)
	for addr, p := range stores {
		held := make(map[int]bool)
		for _, idx := range seg.Placement[addr] {
			held[idx] = true
		}
		for _, call := range p.recorded() {
			if len(call) > batchBlocks {
				t.Errorf("%s was asked for %d shares in one call, more than a run of %d", addr, len(call), batchBlocks)
			}
			for _, idx := range call {
				if !held[idx] || seen[idx] {
					t.Errorf("%s was asked for share %d (held there: %v, asked before: %v)", addr, idx, held[idx], seen[idx])
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != want {
		t.Errorf("the first wave asked for %d shares, want the %d the budget covers", len(seen), want)
	}
	close(gate)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.Equal(r.data, data) {
		t.Fatal("data mismatch")
	}
}

func TestReadCompletesPastStalledHolder(t *testing.T) {
	// One holder's GetStream hangs until its context is canceled and
	// then ships every share anyway, as a server does whose responses
	// were on the wire before the cancel landed. The read completes
	// from the other holders; the stalled holder's shares arrive after
	// the cancel, count as late, and are dropped unverified: they are
	// not valid shares, and none is counted corrupt.
	reg := obs.NewRegistry()
	// The share cap leaves the other four holders at least 48 of the 64
	// shares, whatever the write's timing.
	c, stores, requested := newProbeClient(t, 5, Options{BlockBytes: 256 << 10, MaxServerShare: 0.25, Obs: reg})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute) // a failure cannot hang
	defer cancel()
	data := randData(4<<20, 43) // K=16
	if _, err := c.Write(ctx, "stall", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("stall")
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for addr, idx := range seg.Placement {
		counts[addr] = len(idx)
	}
	slowAddr := holdersByShare(counts)[0]
	slow := stores[slowAddr]
	slow.stalled = true
	// Hold the other holders until each of the stalled holder's
	// pipelines has asked for its first window, so the stalled holder
	// is asked whatever the schedule.
	slowCalls := min(perServerParallel, counts[slowAddr])
	arrived := make(chan struct{}, slowCalls) // the stalled holder makes no more calls
	gate := make(chan struct{})
	slow.hold = func(context.Context) { arrived <- struct{}{} }
	for addr, p := range stores {
		if addr != slowAddr {
			p.hold = func(ctx context.Context) {
				select {
				case <-gate:
				case <-ctx.Done():
				}
			}
		}
	}
	go func() {
		for i := 0; i < slowCalls; i++ {
			select {
			case <-arrived:
			case <-ctx.Done():
				return
			}
		}
		close(gate)
	}()

	got, stats, err := c.Read(ctx, "stall")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	slowAsked := 0
	for _, call := range slow.recorded() {
		slowAsked += len(call)
	}
	if slowAsked == 0 || stats.Late < slowAsked {
		t.Fatalf("stalled holder asked for %d shares, read counted %d late; want every one late", slowAsked, stats.Late)
	}
	if stats.CorruptShares != 0 || stats.FailedGets != 0 || stats.PerServer[slowAddr] != 0 {
		t.Fatalf("corrupt=%d failed=%d from-stalled=%d, want 0, 0, 0",
			stats.CorruptShares, stats.FailedGets, stats.PerServer[slowAddr])
	}
	checkReadAccounting(t, stats, requested.Load())
	if got := reg.Snapshot().Counters["robust_read_late_shares_total"]; got != int64(stats.Late) {
		t.Fatalf("robust_read_late_shares_total = %d, want %d", got, stats.Late)
	}
	want := fmt.Sprintf(" late=%d ", stats.Late)
	found := false
	for _, tr := range reg.Traces(0) {
		for _, st := range tr.Stages {
			found = found || (tr.Op == "read" && st.Name == "per-server" && strings.Contains(st.Detail, want))
		}
	}
	if !found {
		t.Fatalf("no read trace's per-server stage records %q", want)
	}
}

func TestReadAsksForEachShareOnce(t *testing.T) {
	// The paper's read asks every holder for its shares once and masks
	// stragglers by decoding from whichever arrive first (§4.3.3); it
	// never asks a slow holder again. One holder's first window stalls
	// for 60ms, and the other holders are held until the stall ends, so
	// the read is still in flight well past the 30ms a re-request would
	// have waited. No share may appear in two GetStream calls; the CRC
	// refetch goes through Get and is not counted.
	const stall = 60 * time.Millisecond
	c, stores, _ := newProbeClient(t, 4, Options{BlockBytes: 16 << 10})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute) // a failure cannot hang
	defer cancel()
	data := randData(512<<10, 44) // K=32, 128 shares over 4 holders
	if _, err := c.Write(ctx, "once", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("once")
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for addr, idx := range seg.Placement {
		counts[addr] = len(idx)
	}
	slowAddr := holdersByShare(counts)[0]
	released := make(chan struct{})
	var first sync.Once
	for addr, p := range stores {
		if addr == slowAddr {
			p.hold = func(ctx context.Context) {
				first.Do(func() {
					defer close(released)
					select {
					case <-time.After(stall):
					case <-ctx.Done():
					}
				})
			}
			continue
		}
		p.hold = func(ctx context.Context) {
			select {
			case <-released:
			case <-ctx.Done():
			}
		}
	}
	start := time.Now()
	got, _, err := c.Read(ctx, "once")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	if took := time.Since(start); took < stall {
		t.Fatalf("read took %v, less than the %v stall it must wait out", took, stall)
	}
	asked := make(map[int]bool)
	var twice []int
	for _, p := range stores {
		for _, call := range p.recorded() {
			for _, idx := range call {
				if asked[idx] {
					twice = append(twice, idx)
				}
				asked[idx] = true
			}
		}
	}
	if len(twice) > 0 {
		t.Fatalf("%d shares asked for more than once: %v", len(twice), twice)
	}
}
