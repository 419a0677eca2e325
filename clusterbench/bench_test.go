package main

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/transport"
)

func methodNames(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumMethod(); i++ {
		out = append(out, t.Method(i).Name)
	}
	sort.Strings(out)
	return out
}

// The transport decorator must offer exactly *transport.Client's
// methods: robust picks its wire path by probing the store it holds for
// GetStream, PutStream and the batch methods, so a missing method would
// silently move the client onto another path.
func TestTransportDecoratorMethodSet(t *testing.T) {
	got := methodNames(reflect.TypeOf(&tracedTransport{}))
	want := methodNames(reflect.TypeOf(&transport.Client{}))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tracedTransport methods %v, *transport.Client methods %v", got, want)
	}
}

// The server-side decorator keeps the batch and scrub fast paths of the
// store it wraps, and adds none the store lacks.
func TestStoreDecoratorMethodSet(t *testing.T) {
	tr := newTracer()
	fast := wrapStore(blockstore.WithChecksums(blockstore.NewMemStore()), tr, 1)
	if _, ok := fast.(blockstore.Batcher); !ok {
		t.Error("decorated ChecksumStore lost the Batcher methods")
	}
	if _, ok := fast.(blockstore.Scrubber); !ok {
		t.Error("decorated ChecksumStore lost the Scrubber method")
	}
	slow := wrapStore(blockstore.NewSlowStore(blockstore.NewMemStore(), blockstore.SlowProfile{}, 1), tr, 2)
	if _, ok := slow.(blockstore.Batcher); ok {
		t.Error("decorated SlowStore gained Batcher methods")
	}
}

// traceShortRun preloads a fresh cluster and warms it up untraced, as
// set-up does (a transport client's first calls race the opening of
// its mux connections and take the batch path), then runs a few planned
// ops with tracing on and returns their records and spans.
func traceShortRun(t *testing.T, sp spec) ([]record, []span) {
	t.Helper()
	tr := newTracer()
	cl, err := newCluster(sp, 7, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	r := newRunner(sp, 7, cl, newContentPool(7))
	var warm []op
	for _, name := range r.gen.preloadNames() {
		warm = append(warm, op{kind: opWrite, name: name})
	}
	recs := r.drive(context.Background(), 2, fromList(warm))
	recs = append(recs, r.drive(context.Background(), 2, r.planned(4))...)
	tr.on.Store(true)
	traced := r.drive(context.Background(), 2, r.planned(8))
	tr.on.Store(false)
	for _, rec := range append(recs, traced...) {
		if rec.err != nil {
			t.Fatalf("%s %s: %v", rec.kind, rec.name, rec.err)
		}
	}
	return traced, tr.take()
}

// testSpec is uniform-mixed shrunk for a test: fast stores, two
// preloaded 4 MiB objects (K=16), then a mix of reads and writes.
var testSpec = spec{
	name: "test", objBytes: 4 << 20, blockBytes: 256 << 10, preload: 2,
	readFrac: 0.5, writeFrac: 0.5, readWindow: 4, retain: 4, avoid: 1,
}

// The structural probes the robust client makes on a store to choose
// its wire path (internal/robust: streamGetter, streamPutter,
// batchGetter, putBatcher, batchDeleter, Pinger).
type (
	probeGetStream interface {
		GetStream(ctx context.Context, segment string, indices []int, deliver func(index int, data []byte, err error)) error
	}
	probePutStream interface {
		PutStream(ctx context.Context, segment string, puts []blockstore.BatchPut, acked func(i int, err error)) error
	}
	probeGetBatch interface {
		GetBatch(ctx context.Context, segment string, indices []int) ([][]byte, []error)
	}
	probePutBatch interface {
		PutBatch(ctx context.Context, segment string, puts []blockstore.BatchPut) []error
	}
	probeDeleteBatch interface {
		DeleteBatch(ctx context.Context, segment string, indices []int) []error
	}
	probePing interface {
		Ping(ctx context.Context) error
	}
)

func probes(store any) []bool {
	_, a := store.(probeGetStream)
	_, b := store.(probePutStream)
	_, c := store.(probeGetBatch)
	_, d := store.(probePutBatch)
	_, e := store.(probeDeleteBatch)
	_, f := store.(probePing)
	return []bool{a, b, c, d, e, f}
}

// The decorators must not knock the client off the mux stream path.
// Every probe answers the same for the decorator as for the bare
// client, and in a traced run GetStream and PutStream carry data. The
// robust client itself sends a run of one block through Get or Put, a
// hedge re-fetches a window through GetBatch, and a write run whose
// stream was canceled before its first ack is retried through PutBatch
// on the canceled context; no other batch call may appear.
func TestFidelityStreamPaths(t *testing.T) {
	if got, want := probes(&tracedTransport{}), probes(&transport.Client{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("probe answers %v for the decorator, %v for *transport.Client", got, want)
	}
	recs, spans := traceShortRun(t, testSpec)
	var reads, writes, hedges int
	for _, rec := range recs {
		switch rec.kind {
		case opRead:
			reads++
			hedges += rec.rs.Hedges
		case opWrite:
			writes++
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("plan made %d reads and %d writes; want both", reads, writes)
	}
	calls := map[string]int{}
	entries := map[string]int{}
	liveGetBatch := 0
	for _, s := range spans {
		if s.Layer != "transport" {
			continue
		}
		calls[s.Op]++
		entries[s.Op] += s.Entries
		switch {
		case s.Op == "putbatch" && !s.Canceled:
			t.Errorf("PutBatch of %d entries on a live context: the write left the stream path", s.Entries)
		case s.Op == "getbatch" && !s.Canceled:
			liveGetBatch++
		}
	}
	if calls["getstream"] == 0 || calls["putstream"] == 0 {
		t.Fatalf("no stream calls: %v", calls)
	}
	if liveGetBatch > hedges {
		t.Errorf("%d GetBatch calls completed but only %d hedges fired", liveGetBatch, hedges)
	}
	t.Logf("calls %v, entries %v", calls, entries)
}

// Every metadata and transport span of a traced run joins an op span and
// lies inside it.
func TestSpanSanity(t *testing.T) {
	_, spans := traceShortRun(t, testSpec)
	sc := checkSpans(spans)
	if sc.orphans != 0 || sc.misnested != 0 {
		t.Fatalf("%d orphaned and %d misnested spans", sc.orphans, sc.misnested)
	}
	ops := 0
	for _, s := range spans {
		if s.Layer == "robust" {
			ops++
			if len(sc.children[s.ID]) == 0 {
				t.Errorf("op %s %s has no child spans", s.Op, s.Seg)
			}
		}
	}
	if ops == 0 {
		t.Fatal("no op spans")
	}
}

func plan(sp spec, seed int64, n int) []op {
	g := newGenerator(sp, seed)
	var out []op
	for len(out) < n {
		if sp.rate > 0 && len(g.dues) == 0 {
			g.schedule(2 * time.Second)
		}
		out = append(out, g.take())
	}
	return out
}

// A seed fixes the op sequence, the arrival schedule, the contents and
// the SlowStore draws; another seed changes them. The ltcode counts
// repeat exactly.
func TestDeterminism(t *testing.T) {
	for name, sp := range workloads {
		a, b, c := plan(sp, 3, 400), plan(sp, 3, 400), plan(sp, 4, 400)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different plans", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same plan", name)
		}
	}
	p1, s1 := slowProfiles(3, numServers)
	p2, s2 := slowProfiles(3, numServers)
	p3, s3 := slowProfiles(4, numServers)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(s1, s2) {
		t.Error("same seed, different SlowStore profiles or draw seeds")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("different seeds, same SlowStore draw seeds")
	}
	if !reflect.DeepEqual(p1, p3) {
		t.Error("different seeds, different fleets")
	}
	x, y := make([]byte, 100000), make([]byte, 100000)
	newContentPool(3).fill("w-000001", x)
	newContentPool(3).fill("w-000001", y)
	if !reflect.DeepEqual(x, y) {
		t.Error("same seed and name, different contents")
	}
	if !newContentPool(3).matches("w-000001", x, int64(len(x))) {
		t.Error("content does not verify against itself")
	}
	if newContentPool(3).matches("w-000002", x, int64(len(x))) {
		t.Error("another object's content verifies")
	}
	sp := workloads["hetero-read"]
	l1, err := measureLTCode(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := measureLTCode(sp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l1.xorPerBlock != l2.xorPerBlock || l1.reception != l2.reception {
		t.Errorf("ltcode counts differ across runs: %+v vs %+v", l1, l2)
	}
}

// Ops on one name run in dispatch order, one at a time.
func TestGatesFIFO(t *testing.T) {
	g := newGates()
	first, second := g.enter("x"), g.enter("x")
	other := g.enter("y")
	select {
	case <-first:
	default:
		t.Fatal("first op on x not admitted")
	}
	select {
	case <-other:
	default:
		t.Fatal("op on another name blocked")
	}
	select {
	case <-second:
		t.Fatal("second op on x admitted while the first runs")
	default:
	}
	g.leave("x")
	select {
	case <-second:
	case <-time.After(time.Second):
		t.Fatal("second op on x not admitted after the first left")
	}
}
