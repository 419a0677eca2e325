package robust

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/obs"
)

func TestClaimSize(t *testing.T) {
	tests := []struct {
		name                       string
		n, claimed, runLen, maxRun int
		want                       int
	}{
		{"first claim is one equal run", 64, 0, 4, 16, 4},
		{"need below a run", 64, 62, 4, 16, 2},
		{"need met", 64, 64, 4, 16, 0},
		{"stale need: probes committed past n", 64, 70, 4, 16, 0},
		{"store moving one block per call", 64, 0, 4, 1, 1},
		{"run longer than the store's run length", 640, 0, 20, 16, 16},
	}
	for _, tt := range tests {
		if got := claimSize(tt.n, tt.claimed, tt.runLen, tt.maxRun); got != tt.want {
			t.Errorf("%s: claimSize(%d, %d, %d, %d) = %d, want %d",
				tt.name, tt.n, tt.claimed, tt.runLen, tt.maxRun, got, tt.want)
		}
	}
}

func TestLate(t *testing.T) {
	ms := time.Millisecond
	t0 := time.Unix(1000, 0)
	tests := []struct {
		name   string
		now    time.Time
		run    runView
		self   time.Duration
		late   bool
		wakeAt time.Time // when it stalls; zero once it has
	}{
		{
			// One ack after 50 ms, three entries left: it finishes
			// 150 ms after its last ack, and the idle worker lands a
			// share in 10 ms. It stalls 100 ms after its last ack.
			name:   "late run",
			now:    t0.Add(51 * ms),
			run:    runView{claimed: t0, lastAck: t0.Add(50 * ms), acked: 1, left: 3},
			self:   10 * ms,
			late:   true,
			wakeAt: t0.Add(150 * ms),
		},
		{
			name:   "on-pace run",
			now:    t0.Add(21 * ms),
			run:    runView{claimed: t0, lastAck: t0.Add(20 * ms), acked: 2, left: 1},
			self:   10 * ms,
			wakeAt: t0.Add(40 * ms), // two entry-times after its last ack
		},
		{
			name: "stalled run: no ack for two of its entry-times",
			now:  t0.Add(41 * ms),
			run:  runView{claimed: t0, lastAck: t0.Add(20 * ms), acked: 2, left: 1},
			self: 10 * ms,
			late: true,
		},
		{
			name: "stalled run with no ack: two first-ack times passed",
			now:  t0.Add(30 * ms),
			run:  runView{claimed: t0, left: 2, firstAck: 10 * ms},
			self: time.Millisecond,
			late: true,
		},
		{
			name:   "young run with no ack",
			now:    t0.Add(5 * ms),
			run:    runView{claimed: t0, left: 2, firstAck: 10 * ms},
			self:   10 * ms,
			wakeAt: t0.Add(20 * ms),
		},
		{
			// A store that acks a run only once it is whole: its first
			// ack is due a whole run after the claim, however short the
			// idle worker's time per entry.
			name:   "run on a store that acks whole runs",
			now:    t0.Add(10 * ms),
			run:    runView{claimed: t0, left: 16, firstAck: 8 * ms},
			self:   ms / 2,
			wakeAt: t0.Add(16 * ms),
		},
		{
			name:   "worker with no rate yet: a slow run is not late",
			now:    t0.Add(51 * ms),
			run:    runView{claimed: t0, lastAck: t0.Add(50 * ms), acked: 1, left: 3},
			wakeAt: t0.Add(150 * ms),
		},
		{
			name: "worker with no rate yet: a stalled run is late",
			now:  t0.Add(150 * ms),
			run:  runView{claimed: t0, lastAck: t0.Add(50 * ms), acked: 1, left: 3},
			late: true,
		},
		{
			// Acks 10µs apart wait on the client's scheduler, not on a
			// server: the run is judged at lateFloor per entry.
			name:   "time per entry below the floor",
			now:    t0.Add(ms),
			run:    runView{claimed: t0, lastAck: t0.Add(10 * time.Microsecond), acked: 1, left: 3},
			wakeAt: t0.Add(10*time.Microsecond + 2*lateFloor),
		},
		{
			name: "nothing to judge by",
			now:  t0.Add(time.Second),
			run:  runView{claimed: t0, left: 2},
		},
		{
			name: "every entry covered by probes",
			now:  t0.Add(time.Second),
			run:  runView{claimed: t0, lastAck: t0.Add(50 * ms), acked: 1, left: 0},
			self: ms,
		},
	}
	for _, tt := range tests {
		late, at := late(tt.now, tt.run, tt.self)
		if late != tt.late || !at.Equal(tt.wakeAt) {
			t.Errorf("%s: late = %v, wake at %v; want %v, %v",
				tt.name, late, at.Sub(t0), tt.late, tt.wakeAt.Sub(t0))
		}
	}
}

// An idle worker watches every in-flight run on another server: each
// gives it a moment to wake, and once late, a probe. Here one server's
// runs never ack and the second has not even reached the wire when
// the other server's workers go idle; a run is judged from its claim,
// so that makes no difference.
func TestIdleWorkerWatchesEveryRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	servers := []spreadServer{{addr: "fast"}, {addr: "stalled"}}
	n := len(servers) * perServerParallel
	sp := newSpread(ctx, cancel, spreadPlan{n: n, graphN: 2 * n}, servers, []attached{{run: 1}, {run: 1}}, n, 0)
	e := sp.e
	e.deal()
	for i := range e.workers {
		if w := &e.workers[i]; len(w.indices) != 1 {
			t.Fatalf("worker %d claimed %v, want one index", i, w.indices)
		}
	}
	for i := range e.workers {
		if w := &e.workers[i]; w.slot == 0 {
			e.ack(&w.run, w.indices[0], 1024, nil)
			e.finish(&w.run)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, at := e.lateRun(0, time.Now()); r == nil && at.IsZero() {
		t.Fatal("idle worker has neither a late run nor a moment to wake")
	}
	probed := 0
	for {
		r, at := e.lateRun(0, time.Now().Add(time.Hour))
		if r == nil {
			if !at.IsZero() {
				t.Fatalf("an hour on, a run is still not late (wake at %v)", at)
			}
			break
		}
		if r.slot != 1 {
			t.Fatalf("probe past a run on server %d", r.slot)
		}
		r.covered++ // as the probe past it would
		probed++
	}
	if probed != perServerParallel {
		t.Fatalf("probed past %d stalled runs, want %d", probed, perServerParallel)
	}
}

// gate holds every put that reaches a gatedStore and releases them in
// waves: a wave opens with its first put and is released, whole, hold
// later. No run is ever late: every put of a wave lands at once.
type gate struct {
	mu      sync.Mutex
	wave    chan struct{}
	arrived chan struct{} // holds a token while the open wave has puts
}

func newGate(ctx context.Context, hold time.Duration) *gate {
	g := &gate{wave: make(chan struct{}), arrived: make(chan struct{}, 1)}
	go func() {
		for {
			select {
			case <-g.arrived:
			case <-ctx.Done():
				return
			}
			time.Sleep(hold)
			g.mu.Lock()
			close(g.wave)
			g.wave = make(chan struct{})
			select {
			case <-g.arrived:
			default:
			}
			g.mu.Unlock()
		}
	}()
	return g
}

func (g *gate) join() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case g.arrived <- struct{}{}:
	default:
	}
	return g.wave
}

// gatedStore stores a put once its wave is released, whether or not
// the writer still waits for it — a server that has the bytes keeps
// them. It moves one block per call.
type gatedStore struct {
	blockstore.Store
	g *gate
}

func (s gatedStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	<-s.g.join()
	return s.Store.Put(context.WithoutCancel(ctx), segment, index, data)
}

// stalledStore blocks every put until the writer gives up on it. Its
// first put closes held.
type stalledStore struct {
	blockstore.Store
	once sync.Once
	held chan struct{}
}

func (s *stalledStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	s.once.Do(func() { close(s.held) })
	<-ctx.Done()
	return ctx.Err()
}

// heldStore stores a put only once the stalled store holds one, so the
// write cannot finish before a run stalls.
type heldStore struct {
	blockstore.Store
	held chan struct{}
}

func (s heldStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	<-s.held
	return s.Store.Put(ctx, segment, index, data)
}

// A write whose runs are never late commits exactly N: no worker
// claims past the need, so no share lands beyond the placement.
func TestWriteStopsAtN(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	g := newGate(ctx, 50*time.Millisecond)
	meta := metadata.NewService()
	c, err := NewClient(meta, Options{BlockBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	mems := make([]*blockstore.MemStore, 4)
	for i := range mems {
		mems[i] = blockstore.NewMemStore()
		addr := fmt.Sprintf("gated-%02d", i)
		if err := c.AttachStore(addr, gatedStore{Store: mems[i], g: g}); err != nil {
			t.Fatal(err)
		}
		meta.RegisterServer(metadata.Server{Addr: addr})
	}
	ws, err := c.Write(ctx, "exact", randData(4096, 21), nil) // K=4, N=16
	if err != nil {
		t.Fatal(err)
	}
	if ws.Committed != ws.N {
		t.Fatalf("committed %d shares, want exactly N=%d", ws.Committed, ws.N)
	}
	seg, err := meta.LookupSegment("exact")
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for i, mem := range mems {
		addr := fmt.Sprintf("gated-%02d", i)
		got, err := mem.List(ctx, "exact")
		if err != nil {
			t.Fatal(err)
		}
		want := append([]int(nil), seg.Placement[addr]...)
		sort.Ints(got)
		sort.Ints(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s holds %v, placement says %v", addr, got, want)
		}
		stored += len(got)
	}
	if stored != ws.N {
		t.Errorf("stores hold %d shares, want N=%d", stored, ws.N)
	}
}

// A store that never answers costs the write nothing: idle workers
// probe past its stalled runs, and the write commits without it.
func TestWriteSpeculatesPastStalledServer(t *testing.T) {
	// A deadline turns a write that never ends into a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	reg := obs.NewRegistry()
	meta := metadata.NewService()
	c, err := NewClient(meta, Options{BlockBytes: 1024, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	const stalled = "store-00"
	held := make(chan struct{})
	for i := 0; i < 4; i++ {
		addr := fmt.Sprintf("store-%02d", i)
		var st blockstore.Store = heldStore{blockstore.NewMemStore(), held}
		if addr == stalled {
			st = &stalledStore{Store: blockstore.NewMemStore(), held: held}
		}
		if err := c.AttachStore(addr, st); err != nil {
			t.Fatal(err)
		}
		meta.RegisterServer(metadata.Server{Addr: addr})
	}
	data := randData(4096, 22)
	ws, err := c.Write(ctx, "past-stall", data, nil)
	if err != nil {
		t.Fatalf("write past a stalled store: %v", err)
	}
	if ws.Committed < ws.N {
		t.Fatalf("committed %d < N %d", ws.Committed, ws.N)
	}
	seg, err := meta.LookupSegment("past-stall")
	if err != nil {
		t.Fatal(err)
	}
	if got := seg.Placement[stalled]; len(got) > 0 {
		t.Fatalf("placement puts %v on the stalled store", got)
	}
	if got := reg.Snapshot().Counters["robust_write_speculative_total"]; got <= 0 {
		t.Fatalf("robust_write_speculative_total = %d, want > 0", got)
	}
	got, _, err := c.Read(ctx, "past-stall")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("read differs from the written data")
	}
}

// A write whose only accepting server stalls and whose other servers
// refuse every put fails at once, without waiting for its context:
// once the others have refused every index and the stalled server's
// runs have stalled, no worker can ever claim again.
func TestWriteFailsPastStalledAndRefusingServers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	meta := metadata.NewService()
	c, err := NewClient(meta, Options{BlockBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		addr := fmt.Sprintf("store-%02d", i)
		var st blockstore.Store = newCapStore(0) // refuses every put
		if i == 0 {
			st = &stalledStore{Store: blockstore.NewMemStore(), held: make(chan struct{})}
		}
		if err := c.AttachStore(addr, st); err != nil {
			t.Fatal(err)
		}
		meta.RegisterServer(metadata.Server{Addr: addr})
	}
	start := time.Now()
	_, err = c.Write(ctx, "doomed", randData(4096, 23), nil)
	if took := time.Since(start); !errors.Is(err, ErrShortWrite) || took >= time.Second {
		t.Fatalf("write returned %v after %v; want ErrShortWrite in under 1s", err, took)
	}
}
