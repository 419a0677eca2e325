// Package robust implements the RobuSTore client (Ch. 4): the
// component that encodes data with improved LT codes, speculatively
// spreads coded blocks across heterogeneous storage servers, and
// reconstructs data from whichever blocks return first.
//
// Both directions run on one speculative-access engine (engine.go).
// Write is rateless and adaptive (§4.3.2): workers per server push
// freshly generated coded blocks at that server's own pace until N
// blocks have committed globally, then the remaining work is canceled
// — fast servers naturally absorb more blocks. Read is speculative
// (§4.3.3): workers ask the holders for about as many shares as the
// decoder needs, probe past a late holder, and the access is complete
// the moment the incremental decoder recovers all K originals;
// outstanding requests are canceled through context propagation.
// Server failures, stalls, and missing blocks are tolerated as long as
// enough blocks survive — that is the point of the architecture.
package robust

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/ltcode"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/placement"
)

// Options configure a Client. The tuning the paper fixes per design is
// constant instead (ltC and the constants beside it).
type Options struct {
	// Redundancy is D: stored redundant blocks per original block
	// (default 3, the paper's baseline).
	Redundancy float64
	// BlockBytes is the coded block size (default 1 MB).
	BlockBytes int64
	// ChunkBytes, when positive, splits each segment into fixed-size
	// chunks that are encoded and spread independently — the streaming
	// write path (WriteFrom) encodes one chunk while the next is still
	// arriving from the reader, so peak client buffering is O(chunk),
	// not O(segment), and the first block commits after one chunk's
	// worth of input instead of the whole segment. Each chunk owns a
	// fixed stride of the coded-index space and its own coding graph;
	// reads decode chunks independently. Zero (the default) writes the
	// whole segment as one chunk. Must be at least BlockBytes.
	ChunkBytes int64
	// MaxServerShare, when positive, caps the fraction of a segment's
	// blocks any single server may absorb during a rateless write
	// (§5.3.1: placement diversity for disaster recovery). With very
	// fast uniform servers an uncapped speculative write can
	// concentrate blocks on whichever server wins the race; a cap of
	// e.g. 0.25 forces at least four holders. Zero disables the cap
	// (the paper's pure speculative semantics).
	MaxServerShare float64
	// MaxZoneShare, when positive, caps the fraction of a segment's
	// committed shares any single failure domain (metadata zone) may
	// hold — the hard constraint that makes SpreadZones placement
	// survive the loss of a whole zone. Enforced during the rateless
	// write exactly like MaxServerShare (atomic reservation against
	// ceil(MaxZoneShare·N) per zone), applied to SelectServers'
	// selection, and restored by the daemon's rebalancer when drains or
	// rejoins skew the spread. Zero disables the cap; above 1 or NaN is
	// rejected. Servers absent from the metadata registry share the
	// unnamed zone.
	MaxZoneShare float64
	// HedgeReads has no effect.
	//
	// Deprecated: reads no longer hedge. A rateless share almost always
	// has one holder, so a hedge could only ask the same server again;
	// the read's fan-out to every holder with cancel at decode is its
	// only straggler policy (DESIGN.md §8).
	HedgeReads bool
	// DegradedWrites enables graceful degradation: a write that
	// cannot commit the full target N (servers unreachable) still
	// succeeds once it has committed at least the degraded floor
	// ceil(1.75·K) blocks — comfortably above the LT decode threshold
	// of ~(1.3-1.5)·K (§5.2.4). The segment is marked Degraded in
	// metadata and the write returns a stats-carrying error matching
	// ErrDegradedWrite; Repair later promotes the segment back to N and
	// clears the mark. Off by default: a short write fails with
	// ErrShortWrite and commits nothing.
	DegradedWrites bool
	// Obs, when non-nil, receives per-access metrics (robust_* counters
	// and latency histograms) and per-request stage traces. Nil keeps
	// the client entirely uninstrumented — the hot paths pay only nil
	// checks.
	Obs *obs.Registry
	// Health, when non-nil, receives per-server request outcomes (one
	// per write or read run; the transport reports none, so
	// this client is the detector's only data-path source) and
	// vetoes placement: servers it reports Excluded are dropped from
	// write target sets, read fan-outs, and repair re-placement.
	// *health.Tracker implements it; the interface keeps the data path
	// free of a hard dependency on the detector.
	Health HealthTracker
}

// HealthTracker is the failure-detector surface the client feeds and
// consults. Implementations must be safe for concurrent use.
type HealthTracker interface {
	// ReportSuccess and ReportFailure record one request outcome
	// against a server address.
	ReportSuccess(addr string)
	ReportFailure(addr string)
	// Excluded reports whether the detector currently considers the
	// server Down — such servers are skipped for placement and fan-out.
	Excluded(addr string) bool
}

// The client's fixed tuning. The paper fixes each of these per design
// (§4.3.2, §4.3.3, §5.2.4), so they are constants rather than Options.
const (
	// ltC and ltDelta are the robust-soliton parameters new segments
	// are written with (~0.3-0.5 reception overhead, §5.2.4). Each
	// segment records them in its metadata.Coding, and reads, Update
	// and Repair build the graph from the record, not from these.
	ltC, ltDelta = 1.0, 0.1
	// perServerParallel is the number of engine workers per server
	// during reads and writes, each with one run in flight.
	perServerParallel = 2
	// graphSlack is the number of extra coded blocks generated per
	// server beyond N. A write claims no more than N, so the slack
	// covers only one-share probes past late runs and the fresh
	// indices that replace retries no server would take.
	graphSlack = 4
	// degradedFloor is the minimum redundancy of a degraded commit
	// (floor = ceil(1.75·K) blocks). It must clear the LT reception
	// overhead with margin, or a degraded segment could be undecodable
	// the moment one more block drops.
	degradedFloor = 0.75
	// batchBlocks is the longest run, the most coded blocks one store
	// call moves on the hot paths (one streaming put or get). A store
	// that moves one block per call gets runs of one (AttachStore).
	batchBlocks = 16
)

func (o Options) withDefaults() Options {
	if o.Redundancy == 0 {
		o.Redundancy = 3
	}
	if o.BlockBytes == 0 {
		o.BlockBytes = 1 << 20
	}
	return o
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Redundancy < 0.25 {
		return fmt.Errorf("robust: redundancy %v too low for LT decodability", o.Redundancy)
	}
	if o.BlockBytes < 1 {
		return fmt.Errorf("robust: non-positive block size")
	}
	if o.ChunkBytes != 0 && o.ChunkBytes < o.BlockBytes {
		return fmt.Errorf("robust: chunk size %d below block size %d", o.ChunkBytes, o.BlockBytes)
	}
	// A share cap is a fraction of the commit target: NaN would turn it
	// off silently, and a huge one overflows ceil(cap·N) to a negative
	// count that admits no share at all.
	for _, f := range []float64{o.MaxServerShare, o.MaxZoneShare} {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("robust: share cap %v outside [0, 1]", f)
		}
	}
	return nil
}

// Errors. Every failure path in this package wraps one of these
// sentinels (or a sentinel from metadata/blockstore/transport), so
// callers can dispatch with errors.Is across the whole taxonomy.
var (
	// ErrNoServers reports a write with no attached storage servers.
	ErrNoServers = errors.New("robust: no storage servers attached")
	// ErrUnrecoverable reports a read that exhausted every stored
	// block without completing the decode.
	ErrUnrecoverable = errors.New("robust: data unrecoverable from surviving blocks")
	// ErrShortWrite reports a write that could not commit N blocks
	// (nor, with DegradedWrites, the degraded floor). Nothing was
	// recorded in metadata.
	ErrShortWrite = errors.New("robust: not enough blocks committed")
	// ErrCorruptShare reports a stored coded block whose CRC-32C
	// envelope failed verification, or whose payload is not the
	// segment's block size, even after a refetch. The share is
	// rejected before it can poison the decoder; the read proceeds
	// from other shares.
	ErrCorruptShare = errors.New("robust: share checksum mismatch")
	// ErrShareFormat reports a Read, ReadAt or Update of a segment whose
	// shares are in an older format. Repair (`robustore repair`, or the
	// repair daemon's next pass) upgrades them in place.
	ErrShareFormat = errors.New("robust: shares stored in an older format (run robustore repair, or let the repair daemon upgrade them)")
	// ErrDegradedWrite reports a write that committed below the
	// target N but at or above the degraded floor. The segment WAS
	// created (marked Degraded in metadata) and is readable; Repair
	// restores full redundancy. Callers opting into DegradedWrites
	// should treat errors.Is(err, ErrDegradedWrite) as a warning, not
	// a failure.
	ErrDegradedWrite = errors.New("robust: write committed in degraded mode")
)

// Client is a RobuSTore client bound to a metadata service and a set
// of storage backends. Safe for concurrent use.
type Client struct {
	meta   metadata.API
	opts   Options
	obs    *obs.Registry
	m      clientMetrics
	health HealthTracker

	mu     sync.RWMutex
	stores map[string]attached

	graphMu sync.Mutex
	graphs  map[graphKey]*ltcode.Graph
}

// NewClient creates a client over a metadata service — the embedded
// *metadata.Service or a *metadata.RemoteClient for a shared
// networked one. Backends are attached with AttachStore.
func NewClient(meta metadata.API, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Client{
		meta:   meta,
		opts:   opts,
		obs:    opts.Obs,
		m:      newClientMetrics(opts.Obs),
		health: opts.Health,
		stores: make(map[string]attached),
		graphs: make(map[graphKey]*ltcode.Graph),
	}, nil
}

// Meta returns the client's metadata service.
func (c *Client) Meta() metadata.API { return c.meta }

// AttachStore registers a storage backend under an address. The
// backend may be a local store or a transport.Client for a remote
// server. This is the one place the client looks at what a store can
// do: a store with the streaming methods is used as is, any other is
// adapted to them (see backend), and a store that moves one block per
// call gets runs of one block.
func (c *Client) AttachStore(addr string, store blockstore.Store) error {
	if addr == "" || store == nil {
		return fmt.Errorf("robust: AttachStore needs an address and a store")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	be, batches := asBackend(store)
	run := 1
	if batches {
		run = batchBlocks
	}
	c.stores[addr] = attached{be, run}
	return nil
}

// DetachStore removes a backend (its blocks become unreachable; reads
// tolerate this as long as enough blocks survive elsewhere).
func (c *Client) DetachStore(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.stores, addr)
}

// Servers returns the attached backend addresses, sorted.
func (c *Client) Servers() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.stores))
	for a := range c.stores {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

func (c *Client) store(addr string) (backend, bool) {
	a, ok := c.attachment(addr)
	return a.backend, ok
}

func (c *Client) attachment(addr string) (attached, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	a, ok := c.stores[addr]
	return a, ok
}

// attached is one attached store: its backend and its run length.
type attached struct {
	backend
	run int
}

// reportOutcome feeds one request outcome to the failure detector. A
// "not found" or a corrupt-share error still proves the server
// answered, so both count as liveness successes; cancellation and
// deadline errors say nothing about the server and are dropped.
func (c *Client) reportOutcome(addr string, err error) {
	if c.health == nil {
		return
	}
	switch {
	case err == nil,
		errors.Is(err, blockstore.ErrNotFound),
		errors.Is(err, ErrCorruptShare):
		c.health.ReportSuccess(addr)
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		// No signal: the caller gave up, the server may be fine.
	default:
		c.health.ReportFailure(addr)
	}
}

// excluded reports whether the failure detector has evicted addr.
func (c *Client) excluded(addr string) bool {
	return c.health != nil && c.health.Excluded(addr)
}

// placementCandidates joins the attached backends with the metadata
// registry (zone, lifecycle state, capacity, performance) and the
// failure detector's verdicts — the full picture the placement
// manager selects from. Attached servers missing from the registry
// are still candidates (unknown zone, Active, zero hints), so a
// registry-less deployment keeps working.
func (c *Client) placementCandidates() []placement.Candidate {
	info := map[string]metadata.Server{}
	for _, srv := range c.meta.Servers() {
		info[srv.Addr] = srv
	}
	attached := c.Servers()
	cands := make([]placement.Candidate, 0, len(attached))
	for _, addr := range attached {
		srv := info[addr]
		cands = append(cands, placement.Candidate{
			Addr:          addr,
			Zone:          srv.Zone,
			State:         srv.State,
			ExpectedMBps:  srv.ExpectedMBps,
			CapacityBytes: srv.CapacityBytes,
			UsedBytes:     srv.UsedBytes,
			Down:          c.excluded(addr),
		})
	}
	return cands
}

// placementSelect runs one placement decision and records the
// placement_* metrics: every selection counts, and any selection the
// ladder had to serve from a degraded tier counts as a fallback.
func (c *Client) placementSelect(p placement.Policy) (placement.Selection, error) {
	sel, err := placement.Select(c.placementCandidates(), p)
	if err != nil {
		return sel, err
	}
	c.m.placementSelections.Inc()
	if sel.Tier != placement.TierActive {
		c.m.placementFallbacks.Inc()
	}
	return sel, nil
}

// writableServers returns the write-eligible attached backends: the
// first non-empty tier of the placement degrade ladder (Active and
// healthy; then Draining; then failure-detector-Down servers
// re-admitted last — attempting a doomed write produces a clean error
// and fresh detector evidence, while silently targeting nothing
// produces ErrNoServers on a cluster that merely flapped). Removed
// servers are never returned; an all-Removed cluster yields nil and
// the write fails with ErrNoServers, which is the point of removal.
func (c *Client) writableServers() []string {
	sel, err := c.placementSelect(placement.Policy{})
	if err != nil {
		return nil
	}
	return sel.Servers
}

// Pinger is the optional liveness probe a backend may offer;
// transport.Client implements it with the wire-level PING op.
type Pinger interface {
	Ping(ctx context.Context) error
}

// Probe checks one attached backend's liveness without touching data:
// the transport PING when the store offers one, otherwise a listing
// of a reserved segment name. Health probers plug this in as their
// probe function.
func (c *Client) Probe(ctx context.Context, addr string) error {
	store, ok := c.store(addr)
	if !ok {
		return fmt.Errorf("robust: server %q not attached", addr)
	}
	if p, ok := store.(Pinger); ok {
		return p.Ping(ctx)
	}
	_, err := store.List(ctx, "~health-probe")
	return err
}

// graphSeed derives a deterministic coding-graph seed from the
// segment identity, so the seed recorded in metadata is reproducible.
func graphSeed(name string, size int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(size >> (8 * i))
	}
	h.Write(buf[:])
	return int64(h.Sum64() & 0x7FFFFFFFFFFFFFFF)
}

// splitBlocks cuts data into K zero-padded blocks of BlockBytes. All
// blocks are carved from one zeroed backing array — two allocations
// instead of K+1 — with capacities pinned so no append can bleed into
// a neighbor.
func splitBlocks(data []byte, blockBytes int64) [][]byte {
	k := int((int64(len(data)) + blockBytes - 1) / blockBytes)
	if k == 0 {
		k = 1
	}
	backing := make([]byte, int64(k)*blockBytes)
	copy(backing, data)
	out := make([][]byte, k)
	for i := 0; i < k; i++ {
		lo, hi := int64(i)*blockBytes, int64(i+1)*blockBytes
		out[i] = backing[lo:hi:hi]
	}
	return out
}

// Coding algorithms (metadata.Coding.Algorithm). The name fixes the
// graph construction, so reads, Update, Repair and the repair daemon
// refuse a segment whose algorithm they do not know rather than
// decode, or regenerate shares, against the wrong graph.
const (
	// algLT is Luby's robust soliton, which segments written before
	// the spike floor record.
	algLT = "lt"
	// algLTSpike3 caps the soliton's R so its spike sits at degree 3
	// or above (ltcode.Params.MinSpike). Segments hold tens of blocks,
	// where Luby's spike sits on degree 1 and the code is
	// near-replication: with it a 32-block segment lost to two of six
	// servers failed to decode from its surviving 2K blocks in most
	// placements. New segments are written with it.
	algLTSpike3 = "lt-spike3"
)

// graphParams maps a coding record onto the LT parameters its
// algorithm builds the graph with.
func graphParams(coding metadata.Coding) (ltcode.Params, error) {
	p := ltcode.Params{K: coding.K, C: coding.C, Delta: coding.Delta}
	switch coding.Algorithm {
	case algLT:
	case algLTSpike3:
		p.MinSpike = 3
	default:
		return ltcode.Params{}, fmt.Errorf("robust: unknown coding algorithm %q", coding.Algorithm)
	}
	return p, nil
}

// buildGraph reconstructs a chunk's coding graph from its coding
// record.
func buildGraph(coding metadata.Coding) (*ltcode.Graph, error) {
	p, err := graphParams(coding)
	if err != nil {
		return nil, err
	}
	return ltcode.BuildGraph(p, coding.GraphN, rand.New(rand.NewSource(coding.GraphSeed)), ltcode.DefaultGraphOptions())
}

// graphKey identifies a coding graph: construction is deterministic
// in these fields, so equal keys yield identical graphs.
type graphKey struct {
	alg      string
	k, n     int
	c, delta float64
	seed     int64
}

// graphCacheCap bounds the per-client graph memo. Graphs are a few
// hundred KB of neighbor lists at most; a handful covers the hot
// working set (repeated reads of the same segments).
const graphCacheCap = 16

// cachedGraph memoizes buildGraph per client. Graph construction with
// EnsureDecodable runs a symbolic decode per candidate — milliseconds
// of pure CPU that every read and write of the same segment would
// otherwise repeat. Graphs are immutable, so sharing is safe.
func (c *Client) cachedGraph(coding metadata.Coding) (*ltcode.Graph, error) {
	key := graphKey{alg: coding.Algorithm, k: coding.K, n: coding.GraphN, c: coding.C, delta: coding.Delta, seed: coding.GraphSeed}
	c.graphMu.Lock()
	g, ok := c.graphs[key]
	c.graphMu.Unlock()
	if ok {
		return g, nil
	}
	g, err := buildGraph(coding)
	if err != nil {
		return nil, err
	}
	c.graphMu.Lock()
	if len(c.graphs) >= graphCacheCap {
		for k := range c.graphs { // drop an arbitrary entry; a memo, not an LRU
			delete(c.graphs, k)
			break
		}
	}
	c.graphs[key] = g
	c.graphMu.Unlock()
	return g, nil
}

// WriteStats reports one write access.
type WriteStats struct {
	K, N       int
	Committed  int // blocks on servers (>= N on success; overshoot included)
	BytesSent  int64
	Duration   time.Duration
	PerServer  map[string]int
	FailedPuts int
	// FirstCommit is the latency to the first block landing on any
	// server — the write path's first-byte metric. A chunked streaming
	// write commits its first block after one chunk of input, long
	// before the segment finishes arriving.
	FirstCommit time.Duration
	// Degraded reports a graceful-degradation commit: Committed is
	// below N but at/above the degraded floor and the segment was
	// created marked Degraded.
	Degraded bool
}

// ReadStats reports one read access.
type ReadStats struct {
	K           int
	Received    int // blocks delivered before completion
	Reception   float64
	Duration    time.Duration
	PerServer   map[string]int
	FailedGets  int
	UsedDecoder int // blocks that contributed a decoded original
	// CorruptShares counts shares rejected by CRC verification
	// (including refetched copies that were corrupt again).
	CorruptShares int
	// RejectedShares counts delivered shares the decoder refused —
	// an index outside the coding graph, i.e. corrupt metadata or
	// placement. They appear in neither FailedGets (the GET worked)
	// nor CorruptShares (the envelope verified); dropping them
	// silently once hid that accounting gap.
	RejectedShares int
	// Inactivated counts the originals the decoder set aside to finish
	// by inactivation once peeling stalled (summed over chunks): 0
	// means peeling alone completed the read.
	Inactivated int
	// Late counts shares that arrived after their chunk had decoded or
	// after the read was canceled: bytes moved for nothing. They are in
	// neither Received nor FailedGets; a share arriving after the
	// cancel is dropped without CRC verification, since it never
	// reaches the decoder.
	Late int
	// Hedges and HedgeWins are always zero.
	//
	// Deprecated: reads no longer hedge (see Options.HedgeReads).
	Hedges    int
	HedgeWins int
}
