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

// probeStore is an in-memory backend that records every GetStream
// call's indices, in arrival order, and the most shares it ever had
// requested and not yet delivered. hold, when set, runs before a call
// is served and can gate it. A stalled probe serves nothing until the
// call's context is canceled and then delivers every share anyway, as
// a server that shipped them before the cancel landed.
type probeStore struct {
	countingStore
	hold    func(ctx context.Context)
	stalled bool

	mu          sync.Mutex
	calls       [][]int
	outstanding int
	peak        int
}

func (p *probeStore) GetStream(ctx context.Context, segment string, indices []int, deliver func(int, []byte, error)) error {
	p.requested.Add(int64(len(indices)))
	p.mu.Lock()
	p.calls = append(p.calls, slices.Clone(indices))
	p.outstanding += len(indices)
	p.peak = max(p.peak, p.outstanding)
	p.mu.Unlock()
	delivered := func(idx int, data []byte, err error) {
		p.mu.Lock()
		p.outstanding--
		p.mu.Unlock()
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
// probe-00, probe-01, ... and sharing one requested-shares count.
func newProbeClient(t *testing.T, n int, opts Options) (*Client, map[string]*probeStore, *atomic.Int64) {
	t.Helper()
	meta := metadata.NewService()
	c, err := NewClient(meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	requested := new(atomic.Int64)
	stores := make(map[string]*probeStore, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("probe-%02d", i)
		stores[addr] = &probeStore{countingStore: countingStore{blockstore.NewMemStore(), requested}}
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

// stripes deals a holder's shares to its read pipelines the way
// readLocked does: share i to pipeline i mod pipelines.
func stripes(indices []int, pipelines int) [][]int {
	out := make([][]int, pipelines)
	for i, idx := range indices {
		out[i%pipelines] = append(out[i%pipelines], idx)
	}
	return out
}

func TestReadWindowCapsBytesPerHolder(t *testing.T) {
	// With 256 KiB shares a read asks each holder for at most
	// readWindowBytes of shares at a time, however many it holds.
	reg := obs.NewRegistry()
	c, stores, requested := newProbeClient(t, 4, Options{BlockBytes: 256 << 10, Obs: reg})
	ctx := context.Background()
	data := randData(8<<20, 41) // K=32, 128 shares over 4 holders
	if _, err := c.Write(ctx, "big", data, nil); err != nil {
		t.Fatal(err)
	}
	seg, err := c.meta.LookupSegment("big")
	if err != nil {
		t.Fatal(err)
	}
	lateSum := 0
	for i := 0; i < 4; i++ {
		before := requested.Load()
		got, stats, err := c.Read(ctx, "big")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("data mismatch")
		}
		checkReadAccounting(t, stats, requested.Load()-before)
		lateSum += stats.Late
	}
	for addr, p := range stores {
		if held := len(seg.Placement[addr]); held*int(seg.Coding.BlockBytes) <= readWindowBytes {
			continue // too few shares to test the cap
		}
		p.mu.Lock()
		peak := p.peak
		p.mu.Unlock()
		if bytes := int64(peak) * seg.Coding.BlockBytes; bytes > readWindowBytes {
			t.Errorf("%s had %d shares (%d bytes) requested and undelivered at once, cap %d bytes",
				addr, peak, bytes, readWindowBytes)
		}
	}
	if got := reg.Snapshot().Counters["robust_read_late_shares_total"]; got != int64(lateSum) {
		t.Fatalf("robust_read_late_shares_total = %d, want the reads' summed Late %d", got, lateSum)
	}
}

func TestSmallShareReadWindowsUnchanged(t *testing.T) {
	// With 16 KiB shares the byte cap allows more than batchBlocks
	// shares per pipeline, so every pipeline walks its stripe in
	// windows of batchBlocks shares, exactly as before the cap. Every
	// holder is gated until each pipeline's first window has arrived,
	// so the first wave is exact; later windows depend on when the
	// decode completes, and each must be its pipeline's next one.
	const pipelines, run = perServerParallel, batchBlocks
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
	// The windows each pipeline would request, in order.
	want := map[string][][][]int{}
	firstWave := 0
	for addr, indices := range seg.Placement {
		for _, stripe := range stripes(indices, pipelines) {
			var wins [][]int
			for lo := 0; lo < len(stripe); lo += run {
				wins = append(wins, stripe[lo:min(lo+run, len(stripe))])
			}
			if len(wins) > 0 {
				firstWave++
			}
			want[addr] = append(want[addr], wins)
		}
	}
	if firstWave == 0 {
		t.Fatal("no holder has a share")
	}
	placed := 0
	for _, indices := range seg.Placement {
		placed += len(indices)
	}
	arrived := make(chan struct{}, placed) // a read makes at most one call per share, so no send blocks
	gate := make(chan struct{})
	for _, p := range stores {
		p.hold = func(ctx context.Context) {
			arrived <- struct{}{}
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
	for i := 0; i < firstWave; i++ {
		select {
		case <-arrived:
		case r := <-done:
			t.Fatalf("read ended (%v) after %d of the %d first-wave calls", r.err, i, firstWave)
		}
	}
	close(gate)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.Equal(r.data, data) {
		t.Fatal("data mismatch")
	}
	for addr, p := range stores {
		busy := 0 // pipelines with a first window
		for _, wins := range want[addr] {
			if len(wins) > 0 {
				busy++
			}
		}
		calls := p.recorded()
		if len(calls) < busy {
			t.Fatalf("%s got %d calls, fewer than its %d pipelines' first windows", addr, len(calls), busy)
		}
		next := make([]int, pipelines) // each pipeline's next window
		for n, call := range calls {
			matched := -1
			for w, wins := range want[addr] {
				if next[w] < len(wins) && slices.Equal(call, wins[next[w]]) {
					matched = next[w]
					next[w]++
					break
				}
			}
			if matched < 0 {
				t.Fatalf("%s call %d asked for %v, not a pipeline's next window of %d shares (want one of %v)",
					addr, n, call, run, want[addr])
			}
			if n < busy && matched != 0 {
				t.Fatalf("%s first-wave call %d asked for %v, a pipeline's window %d", addr, n, call, matched)
			}
		}
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
