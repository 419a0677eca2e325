package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/metadata"
	"repro/internal/transport"
)

// span is one timed call across a layer boundary. Robust op spans are
// roots; metadata and transport spans name the op they ran under in
// Parent, found through the segment name the call carries. Blockstore
// spans run on the servers, where no request identity arrives, so they
// carry the server number instead of a parent.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Layer    string `json:"layer"`
	Op       string `json:"op"`
	Seg      string `json:"seg,omitempty"`
	Server   int    `json:"server,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Entries  int    `json:"entries,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Canceled bool   `json:"canceled,omitempty"`
	Failed   bool   `json:"failed,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory while it is on. The decorators are
// installed for the whole run and forward without recording while it
// is off, so the untraced and traced phases drive the same call path.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu     sync.Mutex
	spans  []span
	active map[string]int64 // segment name -> id of the op running on it
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), active: make(map[string]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp opens a robust op span on name; nil while tracing is off.
func (t *tracer) beginOp(kind opKind, name string) *span {
	if !t.on.Load() {
		return nil
	}
	s := &span{ID: t.ids.Add(1), Layer: "robust", Op: kind.String(), Seg: name}
	t.mu.Lock()
	t.active[name] = s.ID
	t.mu.Unlock()
	s.Start = t.now()
	return s
}

// endOp closes an op span and retires it as its name's parent.
func (t *tracer) endOp(s *span, err error) {
	if s == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	delete(t.active, s.Seg)
	t.mu.Unlock()
	t.record(s, err)
}

// child opens a span under the op running on seg. A call that names no
// segment (metadata.API.Servers) or finds no op keeps Parent zero.
func (t *tracer) child(layer, op, seg string) *span {
	if !t.on.Load() {
		return nil
	}
	s := &span{ID: t.ids.Add(1), Layer: layer, Op: op, Seg: seg}
	if seg != "" {
		t.mu.Lock()
		s.Parent = t.active[seg]
		t.mu.Unlock()
	}
	s.Start = t.now()
	return s
}

// end closes a child span.
func (t *tracer) end(s *span, err error) {
	if s == nil {
		return
	}
	s.End = t.now()
	t.record(s, err)
}

func (t *tracer) record(s *span, err error) {
	if err != nil {
		s.Failed = true
		if errors.Is(err, context.Canceled) {
			s.Canceled = true
		}
	}
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// dump writes spans as JSON lines.
func dump(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedMeta times every metadata.API call, and the unlock funcs the
// lock calls return.
type tracedMeta struct {
	inner metadata.API
	t     *tracer
}

var _ metadata.API = (*tracedMeta)(nil)

func (m *tracedMeta) CreateSegment(seg metadata.Segment) error {
	s := m.t.child("metadata", "create", seg.Name)
	err := m.inner.CreateSegment(seg)
	m.t.end(s, err)
	return err
}

func (m *tracedMeta) UpdateSegment(seg metadata.Segment) error {
	s := m.t.child("metadata", "update", seg.Name)
	err := m.inner.UpdateSegment(seg)
	m.t.end(s, err)
	return err
}

func (m *tracedMeta) LookupSegment(name string) (metadata.Segment, error) {
	s := m.t.child("metadata", "lookup", name)
	seg, err := m.inner.LookupSegment(name)
	m.t.end(s, err)
	return seg, err
}

func (m *tracedMeta) DeleteSegment(name string) error {
	s := m.t.child("metadata", "delete", name)
	err := m.inner.DeleteSegment(name)
	m.t.end(s, err)
	return err
}

func (m *tracedMeta) ListSegments() []string {
	s := m.t.child("metadata", "list", "")
	out := m.inner.ListSegments()
	m.t.end(s, nil)
	return out
}

func (m *tracedMeta) RegisterServer(info metadata.Server) error {
	s := m.t.child("metadata", "register", "")
	err := m.inner.RegisterServer(info)
	m.t.end(s, err)
	return err
}

func (m *tracedMeta) UnregisterServer(addr string) error {
	s := m.t.child("metadata", "unregister", "")
	err := m.inner.UnregisterServer(addr)
	m.t.end(s, err)
	return err
}

func (m *tracedMeta) SetServerState(addr string, state metadata.ServerState) error {
	s := m.t.child("metadata", "set_state", "")
	err := m.inner.SetServerState(addr, state)
	m.t.end(s, err)
	return err
}

func (m *tracedMeta) Servers() []metadata.Server {
	s := m.t.child("metadata", "servers", "")
	out := m.inner.Servers()
	m.t.end(s, nil)
	return out
}

func (m *tracedMeta) LockRead(ctx context.Context, name string) (func(), error) {
	return m.lock(ctx, "lock_read", name, m.inner.LockRead)
}

func (m *tracedMeta) LockWrite(ctx context.Context, name string) (func(), error) {
	return m.lock(ctx, "lock_write", name, m.inner.LockWrite)
}

func (m *tracedMeta) lock(ctx context.Context, op, name string, f func(context.Context, string) (func(), error)) (func(), error) {
	s := m.t.child("metadata", op, name)
	unlock, err := f(ctx, name)
	m.t.end(s, err)
	if err != nil {
		return nil, err
	}
	return func() {
		s := m.t.child("metadata", "unlock", name)
		unlock()
		m.t.end(s, nil)
	}, nil
}

// tracedTransport times calls into one *transport.Client. Its method
// set is exactly the client's (a test checks this), so every
// structural probe the robust client makes — stream, batch, ping —
// finds the same fast paths it would find on the bare client.
type tracedTransport struct {
	c *transport.Client
	t *tracer
}

var _ blockstore.Store = (*tracedTransport)(nil)

func (x *tracedTransport) Addr() string { return x.c.Addr() }

func (x *tracedTransport) Close() error { return x.c.Close() }

func (x *tracedTransport) Ping(ctx context.Context) error { return x.c.Ping(ctx) }

func (x *tracedTransport) Put(ctx context.Context, segment string, index int, data []byte) error {
	s := x.t.child("transport", "put", segment)
	err := x.c.Put(ctx, segment, index, data)
	if s != nil {
		s.Entries, s.Bytes = 1, int64(len(data))
	}
	x.t.end(s, err)
	return err
}

func (x *tracedTransport) Get(ctx context.Context, segment string, index int) ([]byte, error) {
	s := x.t.child("transport", "get", segment)
	data, err := x.c.Get(ctx, segment, index)
	if s != nil {
		s.Entries, s.Bytes = 1, int64(len(data))
	}
	x.t.end(s, err)
	return data, err
}

func (x *tracedTransport) Delete(ctx context.Context, segment string, index int) error {
	s := x.t.child("transport", "delete", segment)
	err := x.c.Delete(ctx, segment, index)
	if s != nil {
		s.Entries = 1
	}
	x.t.end(s, err)
	return err
}

func (x *tracedTransport) List(ctx context.Context, segment string) ([]int, error) {
	s := x.t.child("transport", "list", segment)
	out, err := x.c.List(ctx, segment)
	x.t.end(s, err)
	return out, err
}

func (x *tracedTransport) Scrub(ctx context.Context, segment string) ([]int, error) {
	s := x.t.child("transport", "scrub", segment)
	out, err := x.c.Scrub(ctx, segment)
	x.t.end(s, err)
	return out, err
}

func (x *tracedTransport) PutBatch(ctx context.Context, segment string, puts []blockstore.BatchPut) []error {
	s := x.t.child("transport", "putbatch", segment)
	errs := x.c.PutBatch(ctx, segment, puts)
	if s != nil {
		s.Entries = len(puts)
		for _, p := range puts {
			s.Bytes += int64(len(p.Data))
		}
	}
	x.t.end(s, firstErr(errs))
	return errs
}

func (x *tracedTransport) GetBatch(ctx context.Context, segment string, indices []int) ([][]byte, []error) {
	s := x.t.child("transport", "getbatch", segment)
	datas, errs := x.c.GetBatch(ctx, segment, indices)
	if s != nil {
		s.Entries = len(indices)
		for _, d := range datas {
			s.Bytes += int64(len(d))
		}
	}
	x.t.end(s, firstErr(errs))
	return datas, errs
}

func (x *tracedTransport) DeleteBatch(ctx context.Context, segment string, indices []int) []error {
	s := x.t.child("transport", "deletebatch", segment)
	errs := x.c.DeleteBatch(ctx, segment, indices)
	if s != nil {
		s.Entries = len(indices)
	}
	x.t.end(s, firstErr(errs))
	return errs
}

func (x *tracedTransport) GetStream(ctx context.Context, segment string, indices []int, deliver func(index int, data []byte, err error)) error {
	s := x.t.child("transport", "getstream", segment)
	if s == nil {
		return x.c.GetStream(ctx, segment, indices, deliver)
	}
	var entries, bytes atomic.Int64
	var entryErr atomic.Pointer[error]
	err := x.c.GetStream(ctx, segment, indices, func(index int, data []byte, err error) {
		entries.Add(1)
		bytes.Add(int64(len(data)))
		if err != nil {
			entryErr.CompareAndSwap(nil, &err)
		}
		deliver(index, data, err)
	})
	s.Entries, s.Bytes = int(entries.Load()), bytes.Load()
	x.t.end(s, orEntryErr(err, entryErr.Load()))
	return err
}

func (x *tracedTransport) PutStream(ctx context.Context, segment string, puts []blockstore.BatchPut, acked func(i int, err error)) error {
	s := x.t.child("transport", "putstream", segment)
	if s == nil {
		return x.c.PutStream(ctx, segment, puts, acked)
	}
	var entries, bytes atomic.Int64
	var entryErr atomic.Pointer[error]
	err := x.c.PutStream(ctx, segment, puts, func(i int, err error) {
		entries.Add(1)
		if err != nil {
			entryErr.CompareAndSwap(nil, &err)
		} else {
			bytes.Add(int64(len(puts[i].Data)))
		}
		acked(i, err)
	})
	s.Entries, s.Bytes = int(entries.Load()), bytes.Load()
	x.t.end(s, orEntryErr(err, entryErr.Load()))
	return err
}

// firstErr marks a batch call failed by its first failed entry; a
// canceled entry marks it canceled.
func firstErr(errs []error) error {
	var first error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if errors.Is(e, context.Canceled) {
			return e
		}
		if first == nil {
			first = e
		}
	}
	return first
}

func orEntryErr(err error, entry *error) error {
	if err != nil || entry == nil {
		return err
	}
	return *entry
}

// tracedStore times the calls a block server makes into the store it
// serves. It has only the blockstore.Store methods, for stores that
// offer no more (SlowStore); tracedBatchStore adds the batch and scrub
// methods for stores that have them (ChecksumStore), so the server's
// own probes choose the same paths they would on the bare store.
type tracedStore struct {
	inner  blockstore.Store
	t      *tracer
	server int
}

type batchScrubber interface {
	blockstore.Batcher
	blockstore.Scrubber
}

type tracedBatchStore struct {
	tracedStore
	b batchScrubber
}

func wrapStore(inner blockstore.Store, t *tracer, server int) blockstore.Store {
	ts := tracedStore{inner: inner, t: t, server: server}
	if b, ok := inner.(batchScrubber); ok {
		return &tracedBatchStore{tracedStore: ts, b: b}
	}
	return &ts
}

// begin opens a server-side span; nil while tracing is off.
func (s *tracedStore) begin(op, segment string) *span {
	if !s.t.on.Load() {
		return nil
	}
	return &span{ID: s.t.ids.Add(1), Layer: "blockstore", Op: op, Seg: segment, Server: s.server, Start: s.t.now()}
}

func (s *tracedStore) Put(ctx context.Context, segment string, index int, data []byte) error {
	sp := s.begin("put", segment)
	err := s.inner.Put(ctx, segment, index, data)
	s.t.end(sp, err)
	return err
}

func (s *tracedStore) Get(ctx context.Context, segment string, index int) ([]byte, error) {
	sp := s.begin("get", segment)
	data, err := s.inner.Get(ctx, segment, index)
	s.t.end(sp, err)
	return data, err
}

func (s *tracedStore) Delete(ctx context.Context, segment string, index int) error {
	sp := s.begin("delete", segment)
	err := s.inner.Delete(ctx, segment, index)
	s.t.end(sp, err)
	return err
}

func (s *tracedStore) List(ctx context.Context, segment string) ([]int, error) {
	return s.inner.List(ctx, segment)
}

func (s *tracedStore) Close() error { return s.inner.Close() }

func (s *tracedBatchStore) PutBatch(ctx context.Context, segment string, puts []blockstore.BatchPut) []error {
	sp := s.begin("putbatch", segment)
	if sp != nil {
		sp.Entries = len(puts)
	}
	errs := s.b.PutBatch(ctx, segment, puts)
	s.t.end(sp, firstErr(errs))
	return errs
}

func (s *tracedBatchStore) GetBatch(ctx context.Context, segment string, indices []int) ([][]byte, []error) {
	sp := s.begin("getbatch", segment)
	if sp != nil {
		sp.Entries = len(indices)
	}
	datas, errs := s.b.GetBatch(ctx, segment, indices)
	s.t.end(sp, firstErr(errs))
	return datas, errs
}

func (s *tracedBatchStore) DeleteBatch(ctx context.Context, segment string, indices []int) []error {
	sp := s.begin("deletebatch", segment)
	if sp != nil {
		sp.Entries = len(indices)
	}
	errs := s.b.DeleteBatch(ctx, segment, indices)
	s.t.end(sp, firstErr(errs))
	return errs
}

func (s *tracedBatchStore) Scrub(ctx context.Context, segment string) ([]int, error) {
	return s.b.Scrub(ctx, segment)
}
