// Package metadata implements the RobuSTore metadata server (Ch. 4):
// it tracks data information (segment name, size, coding algorithm
// and parameters, block placements, versions, locks) and storage-
// server information (address, capacity, expected performance). The
// service is an in-process component; cmd/robustored and the examples
// embed it, matching the paper's observation that a single well-built
// metadata server suffices because it is touched only at open/close.
package metadata

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Coding records how a segment was erasure coded, sufficient for any
// client to rebuild the same coding graph (the graph is a
// deterministic function of these fields).
type Coding struct {
	// Algorithm names the code and fixes how its graph is built from
	// the fields below: "lt" is Luby's robust soliton, "lt-spike3" the
	// same with its spike floored at degree 3. A client rebuilds only
	// graphs of algorithms it knows and refuses the rest.
	Algorithm  string
	K          int     // original blocks
	N          int     // stored coded blocks
	BlockBytes int64   // coded block size
	C          float64 // LT soliton parameter
	Delta      float64 // LT soliton parameter
	GraphSeed  int64   // seed the writer used to build the coding graph
	GraphN     int     // total graph size (>= N; rateless writes overshoot)
	// ShareFormat numbers the envelope every stored coded block is
	// sealed in (blockstore.ShareFormat at write time). Readers open
	// only the current format. A record stored before formats were
	// numbered loads as 0; a repair upgrades its shares in place
	// (blockstore.UpgradeShare) before recording the current number.
	ShareFormat int
}

// Validate reports whether the coding record is self-consistent.
func (c Coding) Validate() error {
	if c.Algorithm == "" {
		return fmt.Errorf("metadata: empty coding algorithm")
	}
	if c.K < 1 || c.N < c.K || c.BlockBytes < 1 {
		return fmt.Errorf("metadata: inconsistent coding geometry K=%d N=%d block=%d",
			c.K, c.N, c.BlockBytes)
	}
	if c.GraphN != 0 && c.GraphN < c.N {
		return fmt.Errorf("metadata: GraphN %d < N %d", c.GraphN, c.N)
	}
	return nil
}

// Chunk describes one chunk of a segment: a contiguous slice of it,
// coded with its own graph. Chunk c owns the global coded-index range
// [c*ChunkStride, (c+1)*ChunkStride); its local index i appears on the
// wire as c*ChunkStride+i.
type Chunk struct {
	Size      int64 // original bytes in this chunk
	K         int   // original blocks
	N         int   // redundancy target (stored coded blocks)
	GraphSeed int64 // seed for this chunk's coding graph
	GraphN    int   // this chunk's graph size (N <= GraphN <= ChunkStride)
}

// Segment is the stored description of one data object.
type Segment struct {
	Name      string
	Size      int64 // original data size in bytes
	Coding    Coding
	Placement map[string][]int // server address -> coded indices in stored order
	Version   int64
	// Degraded marks a segment committed below its redundancy target
	// N (a graceful-degradation write while servers were unreachable):
	// the data is decodable but under-replicated, and Repair should
	// promote it back to N blocks and clear the flag.
	Degraded bool
	// Chunks is the segment's chunk table: each chunk was coded
	// independently and Coding holds the totals (K = sum of chunk Ks,
	// N = sum of chunk Ns). A whole-segment write is one chunk. Every
	// stored record has a table: a record written without one (before
	// chunked segments existed) is read as one chunk on the way in.
	Chunks []Chunk `json:",omitempty"`
	// ChunkStride is the width of each chunk's global coded-index
	// range: chunk 0's GraphN.
	ChunkStride int `json:",omitempty"`
}

// validateChunks checks the chunk table against the top-level record:
// the per-chunk geometry must be sane, fit inside the stride, and sum
// to the segment's size and coding totals. A record without a table
// is first made the one chunk it describes, its stride the graph size
// (N when the record predates GraphN), so everything past Create,
// Update and Load sees one segment shape.
func (s *Segment) validateChunks() error {
	if len(s.Chunks) == 0 && s.ChunkStride == 0 {
		graphN := s.Coding.GraphN
		if graphN == 0 {
			graphN = s.Coding.N
		}
		s.Chunks = []Chunk{{Size: s.Size, K: s.Coding.K, N: s.Coding.N, GraphSeed: s.Coding.GraphSeed, GraphN: graphN}}
		s.ChunkStride = graphN
	}
	if len(s.Chunks) == 0 {
		return fmt.Errorf("metadata: chunk stride %d without chunks", s.ChunkStride)
	}
	if s.ChunkStride < 1 {
		return fmt.Errorf("metadata: %d chunks without a stride", len(s.Chunks))
	}
	var size int64
	k, n := 0, 0
	for i, c := range s.Chunks {
		if c.Size < 1 || c.K < 1 || c.N < c.K {
			return fmt.Errorf("metadata: inconsistent chunk %d geometry size=%d K=%d N=%d", i, c.Size, c.K, c.N)
		}
		if c.GraphN < c.N || c.GraphN > s.ChunkStride {
			return fmt.Errorf("metadata: chunk %d GraphN %d outside [N=%d, stride=%d]", i, c.GraphN, c.N, s.ChunkStride)
		}
		size += c.Size
		k += c.K
		n += c.N
	}
	if size != s.Size || k != s.Coding.K || n != s.Coding.N {
		return fmt.Errorf("metadata: chunks sum to size=%d K=%d N=%d, segment says size=%d K=%d N=%d",
			size, k, n, s.Size, s.Coding.K, s.Coding.N)
	}
	return nil
}

// validate checks a record on its way into the service (Create,
// Update, snapshot Load) or off the wire (RemoteClient lookups),
// normalizing a chunkless one in place.
func (s *Segment) validate() error {
	if err := s.Coding.Validate(); err != nil {
		return err
	}
	if s.Size < 0 {
		return fmt.Errorf("metadata: negative segment size")
	}
	return s.validateChunks()
}

// blockCount returns the total placed blocks.
func (s *Segment) blockCount() int {
	n := 0
	for _, idx := range s.Placement {
		n += len(idx)
	}
	return n
}

// ServerState is a storage server's lifecycle state. The zero value
// (an empty string — every record written before lifecycle states
// existed) reads as Active.
type ServerState string

// The lifecycle states. Active servers take new placements. Draining
// servers are excluded from new placements but their blocks remain
// readable while the rebalancer migrates them off. Removed servers
// are tombstones: never placed on, never re-admitted by placement
// fallback; their record survives so the rebalancer can finish
// evacuating any blocks still pointing at them.
const (
	ServerActive   ServerState = "active"
	ServerDraining ServerState = "draining"
	ServerRemoved  ServerState = "removed"
)

// Normalize maps the legacy empty value to Active.
func (s ServerState) Normalize() ServerState {
	if s == "" {
		return ServerActive
	}
	return s
}

// Valid reports whether the state is one of the lifecycle states.
func (s ServerState) Valid() bool {
	switch s.Normalize() {
	case ServerActive, ServerDraining, ServerRemoved:
		return true
	}
	return false
}

// Server describes one registered storage server.
type Server struct {
	Addr          string
	CapacityBytes int64
	// UsedBytes is the server's self-reported fill (0 = unknown);
	// placement weights lightly-filled servers higher.
	UsedBytes    int64
	ExpectedMBps float64
	Zone         string
	// State is the lifecycle state; empty means Active (records from
	// before lifecycle states existed).
	State ServerState
}

// Errors.
var (
	ErrSegmentExists   = errors.New("metadata: segment already exists")
	ErrSegmentNotFound = errors.New("metadata: segment not found")
	ErrServerNotFound  = errors.New("metadata: server not found")
	// ErrNotLeader is returned by a replicated metadata node asked to
	// perform an operation only the group leader may serve. Wrap it in
	// a NotLeaderError to attach the leader's client address.
	ErrNotLeader = errors.New("metadata: not the leader")
	// ErrAmbiguous reports that a write's fate is unknown: it reached
	// the service, but the link died before the answer came back. The
	// caller must not blindly re-issue a non-idempotent operation; it
	// should read back the record to learn what happened.
	ErrAmbiguous = errors.New("metadata: operation result unknown")
)

// NotLeaderError reports that the contacted replica is not the group
// leader. Leader, when known, is the leader's *client* address — the
// hint a failover client retargets to and the address the serving
// side proxies writes to.
type NotLeaderError struct {
	Leader string
}

// Error implements error.
func (e *NotLeaderError) Error() string {
	if e.Leader == "" {
		return "metadata: not the leader (leader unknown)"
	}
	return "metadata: not the leader (leader at " + e.Leader + ")"
}

// Is reports ErrNotLeader identity for errors.Is.
func (e *NotLeaderError) Is(target error) bool { return errors.Is(ErrNotLeader, target) }

// Service is the in-process metadata server. Safe for concurrent use.
type Service struct {
	mu       sync.Mutex
	segments map[string]*Segment
	servers  map[string]Server
	locks    map[string]*rwLock
}

// NewService returns an empty metadata service.
func NewService() *Service {
	return &Service{
		segments: make(map[string]*Segment),
		servers:  make(map[string]Server),
		locks:    make(map[string]*rwLock),
	}
}

// RegisterServer adds or updates a storage server record. A
// re-registration that does not set an explicit lifecycle state keeps
// the existing one, so a routine re-register (a server announcing
// itself on restart) cannot silently undrain or resurrect a removed
// server; rejoin is the explicit SetServerState path.
func (s *Service) RegisterServer(info Server) error {
	if info.Addr == "" {
		return fmt.Errorf("metadata: server with empty address")
	}
	if !info.State.Valid() {
		return fmt.Errorf("metadata: invalid server state %q", info.State)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.servers[info.Addr]; ok && info.State == "" {
		info.State = old.State
	}
	s.servers[info.Addr] = info
	return nil
}

// SetServerState moves a server through its lifecycle:
// Active ⇄ Draining → Removed (any transition is allowed — undrain
// and even re-activating a removed record are operator decisions).
func (s *Service) SetServerState(addr string, state ServerState) error {
	if !state.Normalize().Valid() {
		return fmt.Errorf("metadata: invalid server state %q", state)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	srv, ok := s.servers[addr]
	if !ok {
		return ErrServerNotFound
	}
	srv.State = state.Normalize()
	s.servers[addr] = srv
	return nil
}

// UnregisterServer removes a server record.
func (s *Service) UnregisterServer(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.servers[addr]; !ok {
		return ErrServerNotFound
	}
	delete(s.servers, addr)
	return nil
}

// Servers lists registered servers sorted by address.
func (s *Service) Servers() []Server {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Server, 0, len(s.servers))
	for _, v := range s.servers {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// CreateSegment registers a new segment (the close step of a write).
func (s *Service) CreateSegment(seg Segment) error {
	if seg.Name == "" {
		return fmt.Errorf("metadata: empty segment name")
	}
	if err := seg.validate(); err != nil {
		return err
	}
	// A degraded segment legitimately holds fewer than N blocks — the
	// write-path floor (≥ decode threshold) is enforced by the robust
	// client; metadata only insists on the weakest sane bound, K.
	if got := (&seg).blockCount(); got < seg.Coding.N && !seg.Degraded {
		return fmt.Errorf("metadata: placement holds %d blocks, coding requires N=%d", got, seg.Coding.N)
	} else if got < seg.Coding.K {
		return fmt.Errorf("metadata: placement holds %d blocks, below K=%d", got, seg.Coding.K)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.segments[seg.Name]; ok {
		return ErrSegmentExists
	}
	seg.Version = 1
	cp := seg
	cp.Placement = clonePlacement(seg.Placement)
	cp.Chunks = cloneChunks(seg.Chunks)
	s.segments[seg.Name] = &cp
	return nil
}

// UpdateSegment replaces a segment's record, bumping its version.
func (s *Service) UpdateSegment(seg Segment) error {
	if err := seg.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.segments[seg.Name]
	if !ok {
		return ErrSegmentNotFound
	}
	seg.Version = old.Version + 1
	cp := seg
	cp.Placement = clonePlacement(seg.Placement)
	cp.Chunks = cloneChunks(seg.Chunks)
	s.segments[seg.Name] = &cp
	return nil
}

// LookupSegment returns a copy of the segment record.
func (s *Service) LookupSegment(name string) (Segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, ok := s.segments[name]
	if !ok {
		return Segment{}, ErrSegmentNotFound
	}
	cp := *seg
	cp.Placement = clonePlacement(seg.Placement)
	cp.Chunks = cloneChunks(seg.Chunks)
	return cp, nil
}

// DeleteSegment removes a segment record.
func (s *Service) DeleteSegment(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.segments[name]; !ok {
		return ErrSegmentNotFound
	}
	delete(s.segments, name)
	return nil
}

// ListSegments returns all segment names, sorted.
func (s *Service) ListSegments() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.segments))
	for name := range s.segments {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func cloneChunks(c []Chunk) []Chunk {
	if c == nil {
		return nil
	}
	return append([]Chunk(nil), c...)
}

func clonePlacement(p map[string][]int) map[string][]int {
	if p == nil {
		return nil
	}
	out := make(map[string][]int, len(p))
	for k, v := range p {
		out[k] = append([]int(nil), v...)
	}
	return out
}

// --- file locks (Ch. 4: "necessary file locking is applied by the
// metadata server") ---

func (s *Service) lockFor(name string) *rwLock {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.locks[name]
	if !ok {
		l = newRWLock()
		s.locks[name] = l
	}
	return l
}

// LockRead acquires a shared lock on a segment name, returning the
// unlock function.
func (s *Service) LockRead(ctx context.Context, name string) (func(), error) {
	return s.lockFor(name).lock(ctx, false)
}

// LockWrite acquires an exclusive lock on a segment name.
func (s *Service) LockWrite(ctx context.Context, name string) (func(), error) {
	return s.lockFor(name).lock(ctx, true)
}

// rwLock is a context-aware readers-writer lock with writer
// preference: once a writer waits, new readers queue behind it. Without
// that, readers that overlap back to back — a hot segment read in a
// loop — keep the reader count above zero forever and starve a repair
// or update of its exclusive lock.
type rwLock struct {
	mu      sync.Mutex
	readers int
	writer  bool
	waiting int           // writers blocked in lock
	change  chan struct{} // closed and replaced on every state change
}

func newRWLock() *rwLock {
	return &rwLock{change: make(chan struct{})}
}

func (l *rwLock) lock(ctx context.Context, exclusive bool) (func(), error) {
	queued := false
	for {
		l.mu.Lock()
		var free bool
		if exclusive {
			free = !l.writer && l.readers == 0
		} else {
			free = !l.writer && l.waiting == 0
		}
		if free {
			if exclusive {
				l.writer = true
				if queued {
					l.waiting--
				}
			} else {
				l.readers++
			}
			l.mu.Unlock()
			return func() { l.unlock(exclusive) }, nil
		}
		if exclusive && !queued {
			queued = true
			l.waiting++
		}
		ch := l.change
		l.mu.Unlock()
		select {
		case <-ctx.Done():
			if queued {
				// Readers queued behind this writer may go now.
				l.mu.Lock()
				l.waiting--
				l.broadcast()
				l.mu.Unlock()
			}
			return nil, ctx.Err()
		case <-ch:
		}
	}
}

// broadcast wakes every waiter to re-check the state. Caller holds mu.
func (l *rwLock) broadcast() {
	close(l.change)
	l.change = make(chan struct{})
}

func (l *rwLock) unlock(exclusive bool) {
	l.mu.Lock()
	if exclusive {
		l.writer = false
	} else {
		l.readers--
		if l.readers < 0 {
			l.mu.Unlock()
			panic("metadata: reader lock underflow")
		}
	}
	l.broadcast()
	l.mu.Unlock()
}
