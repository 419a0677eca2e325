package robust

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/ltcode"
)

// Read reconstructs a segment speculatively (§4.3.3): each chunk's
// engine asks the holders for about as many shares as its decoder is
// expected to need (readNeed), in equal runs, probes past a holder
// whose run is late, and asks for more only when the decoder is still
// short once those are in. Each delivered share feeds the incremental
// decoder (peeling, finished by inactivation once the shares held have
// full rank), and the moment a chunk decodes its outstanding requests
// are canceled. Missing blocks and failing servers are tolerated while
// any decodable subset survives.
func (c *Client) Read(ctx context.Context, name string) ([]byte, ReadStats, error) {
	unlock, err := c.meta.LockRead(ctx, name)
	if err != nil {
		return nil, ReadStats{}, err
	}
	defer unlock()
	return c.readLocked(ctx, name)
}

// readLocked performs the read while the caller holds a lock (shared
// by Read and Update).
func (c *Client) readLocked(ctx context.Context, name string) (data []byte, stats ReadStats, err error) {
	start := time.Now()
	tr := c.obs.StartTrace("read", name)
	probes := 0 // one-share probes past late runs, over every chunk
	defer func() {
		c.m.reads.Inc()
		c.m.readSpeculative.Add(int64(probes))
		c.m.readBlocks.Add(int64(stats.Received))
		c.m.readFailedGets.Add(int64(stats.FailedGets))
		c.m.readLateShares.Add(int64(stats.Late))
		c.m.readInactivations.Add(int64(stats.Inactivated))
		c.m.readBytes.Add(int64(len(data)))
		c.m.readLatency.Observe(time.Since(start).Seconds())
		if err != nil {
			c.m.readErrors.Inc()
		}
		tr.End(err)
	}()
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		return nil, ReadStats{}, err
	}
	if f := seg.Coding.ShareFormat; f != blockstore.ShareFormat {
		return nil, ReadStats{}, fmt.Errorf("%w: segment %q is in format %d, not %d", ErrShareFormat, name, f, blockstore.ShareFormat)
	}
	tr.Stage("lookup")
	// One decoder per chunk: each chunk's graph decodes independently,
	// shares routing to their chunk by index stride.
	sc, err := c.segmentCodec(seg)
	if err != nil {
		return nil, ReadStats{}, err
	}
	decs := sc.decoders(ltcode.NewDecoder)
	if tr != nil {
		tr.Stagef("graph", "K=%d N=%d chunks=%d", seg.Coding.K, seg.Coding.N, len(decs))
	}

	fx := &fetcher{c: c, name: name, blockBytes: seg.Coding.BlockBytes}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Read from the attached holders the failure detector has not
	// evicted. If exclusion would silence every holder, fall back to
	// all attached ones: a read against suspect servers can still
	// succeed (and its outcomes refresh the detector), a read against
	// nobody cannot. Each holder is a slot of every chunk's engine.
	holders := make([]string, 0, len(seg.Placement))
	var skipped []string
	for addr := range seg.Placement {
		if _, ok := c.attachment(addr); !ok {
			continue // server gone; speculative access shrugs
		}
		if c.excluded(addr) {
			skipped = append(skipped, addr)
		} else {
			holders = append(holders, addr)
		}
	}
	if len(holders) == 0 {
		holders = skipped
	}
	sort.Strings(holders)
	if tr != nil {
		tr.Stagef("fanout", "servers=%d excluded=%d", len(holders), len(seg.Placement)-len(holders))
	}
	// One engine per chunk, all running at once, with every holder's
	// shares of the chunk in placement order; a share no chunk's graph
	// owns (corrupt metadata or placement) is rejected unfetched.
	budget := readBudget(seg.Coding.BlockBytes, len(sc.chunks))
	rejected := 0
	fetches := make([]*readChunk, len(sc.chunks))
	for ci, v := range sc.chunks {
		fetches[ci] = &readChunk{k: v.graph.K, left: make([][]int, len(holders))}
	}
	stores := make([]attached, len(holders))
	for slot, addr := range holders {
		stores[slot], _ = c.attachment(addr)
		for _, idx := range seg.Placement[addr] {
			ci, _, ok := sc.locate(idx)
			if !ok {
				rejected++
				continue
			}
			left := &fetches[ci].left[slot]
			if *left == nil {
				*left = make([]int, 0, len(seg.Placement[addr])/len(fetches)+1)
			}
			*left = append(*left, idx)
		}
	}
	c.m.readRejectedShares.Add(int64(rejected))
	// The decoders run on one goroutine fed by a channel, out of the
	// workers' hot path; it owns them and the receive, rejected and
	// resolved counts. A chunk still short once its need has resolved
	// raises the need (readNeed); a chunk that decodes ends its engine,
	// canceling its outstanding requests (§4.3.3).
	type deliveredShare struct {
		chunk   int
		addr    string
		idx     int
		payload []byte
	}
	shares := make(chan deliveredShare, 4*batchBlocks)
	decodeDone := make(chan struct{})
	received := make(map[string]int, len(holders))
	go func() {
		defer close(decodeDone)
		remaining := len(decs)
		for s := range shares {
			f, dec := fetches[s.chunk], decs[s.chunk]
			if dec.Complete() {
				fx.late.Add(1)
				continue // drain so no worker blocks on send
			}
			f.resolved++
			if _, aerr := dec.AddData(s.idx-sc.chunks[s.chunk].base, s.payload); aerr != nil {
				rejected++ // the chunk's graph cannot place this share
				c.m.readRejectedShares.Inc()
			} else {
				received[s.addr]++
				// Solve finishes a stalled peel by inactivation at the
				// first share of full rank.
				dec.Solve()
			}
			if !dec.Complete() {
				f.e.raise(f.resolved, readNeed(f.k, budget, f.resolved))
				continue
			}
			f.e.cancel() // its workers see the end through the context
			if remaining--; remaining == 0 {
				if tr != nil {
					tr.Stagef("decode-complete", "inactivated=%d", inactivated(decs))
				}
				cancel()
			}
		}
	}()
	var wg sync.WaitGroup
	var firstByte atomic.Bool // raced for by the workers
	//lint:ignore ctxcancel starts one engine per chunk and blocks on nothing; its workers observe cctx
	for ci, f := range fetches {
		cctx, ccancel := context.WithCancel(rctx)
		f.e = newEngine(cctx, ccancel, f, readNeed(f.k, budget, 0), stores)
		f.e.start(&wg, func(w *worker) {
			addr, store := holders[w.slot], stores[w.slot].backend
			run := &w.run
			deliver := func(idx int, payload []byte, err error) {
				if err == nil && cctx.Err() != nil { // dropped unverified
					fx.late.Add(1)
					return
				}
				if err == nil {
					payload, err = fx.open(cctx, addr, store, idx, payload)
				}
				f.e.ack(run, idx, len(payload), err)
				if err != nil {
					return
				}
				if !firstByte.Swap(true) {
					tr.StageDetail("first-byte", addr)
				}
				select {
				case shares <- deliveredShare{chunk: ci, addr: addr, idx: idx, payload: payload}:
				case <-cctx.Done():
					fx.late.Add(1)
				}
			}
			for cctx.Err() == nil && (len(w.indices) > 0 || f.e.take(w)) {
				store.GetStream(cctx, name, w.indices, deliver)
				// Once the chunk is over, a failure says nothing about
				// the holder.
				if out := f.e.finish(run); cctx.Err() == nil {
					c.reportOutcome(addr, out)
				}
				w.indices = w.indices[:0]
			}
		})
	}
	wg.Wait()
	close(shares)
	<-decodeDone

	failed := 0
	for _, f := range fetches {
		failed += f.failedGets
		probes += f.e.probes
	}
	totalReceived, totalUsed := 0, 0
	complete := true
	for _, dec := range decs {
		totalReceived += dec.Received()
		totalUsed += dec.UsedBlocks()
		complete = complete && dec.Complete()
	}
	stats = ReadStats{
		K:              seg.Coding.K,
		Received:       totalReceived,
		Reception:      float64(totalReceived)/float64(seg.Coding.K) - 1,
		Duration:       time.Since(start),
		PerServer:      received,
		FailedGets:     failed,
		UsedDecoder:    totalUsed,
		CorruptShares:  int(fx.corrupt.Load()),
		RejectedShares: rejected,
		Late:           int(fx.late.Load()),
		Inactivated:    inactivated(decs),
	}
	if tr != nil {
		tr.Stagef("per-server", "blocks=%v failed-gets=%d corrupt=%d late=%d rejected=%d speculative=%d",
			received, stats.FailedGets, stats.CorruptShares, stats.Late, stats.RejectedShares, probes)
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	if !complete {
		return nil, stats, ErrUnrecoverable
	}
	// Concatenate the decoded chunks, truncating each to its own
	// payload length (the last block of every chunk is zero-padded).
	out := make([]byte, 0, seg.Size)
	for i, v := range sc.chunks {
		blocks, derr := decs[i].Data()
		if derr != nil {
			return nil, stats, derr
		}
		for left, j := v.size, 0; left > 0; j++ {
			n := min(left, int64(len(blocks[j])))
			out = append(out, blocks[j][:n]...)
			left -= n
		}
	}
	return out, stats, nil
}

// inactivated sums the originals the chunk decoders set aside to
// finish by inactivation; 0 when peeling alone completed every chunk.
func inactivated(decs []*ltcode.Decoder) int {
	n := 0
	for _, dec := range decs {
		n += dec.Inactivated()
	}
	return n
}

// readWindowBytes is one read's byte budget, one mux stream window: a
// read asks at once for at least the shares it covers, over all its
// chunks (readNeed). The paper's disks drop queued requests on cancel
// (§6.2.5); our servers ship whatever was asked for before the cancel
// lands, so bytes asked for are bytes paid for. Small shares (16 KiB ×
// 64) are all asked for at once, as cheap insurance against stalls;
// large ones only as far as the decoder is expected to need them.
const readWindowBytes = 1 << 20

// readOverhead is ε, the reception overhead a read plans for: a
// symbolic model of "lt-spike3" with placement-ordered arrivals needs
// a median of 1.19·K shares at K = 16 and 32 (means 1.21 and 1.23).
const readOverhead = 0.2

// readBudget is the share count of each chunk's part of the read's
// byte budget.
func readBudget(blockBytes int64, chunks int) int {
	perChunk := readWindowBytes / max(blockBytes, 1)
	return int((perChunk + int64(chunks) - 1) / int64(max(chunks, 1)))
}

// readNeed is how many of a chunk's shares a read asks for, k its
// originals and budget its part of the byte budget in shares, once its
// decoder holds resolved shares and is still short: ceil((1+ε)·k) and
// the budget, and ceil(ε·k) more than the decoder holds.
func readNeed(k, budget, resolved int) int {
	extra := int(math.Ceil(readOverhead * float64(k)))
	return max(k+extra, budget, resolved+extra)
}

// readChunk is one chunk's read source: a holder's room is its shares
// of the chunk not yet asked for, so none is asked for twice. resolved
// is the decode goroutine's, which raises the need and ends the engine.
type readChunk struct {
	e          *engine
	k          int
	left       [][]int // per holder slot, in placement order
	failedGets int
	resolved   int // shares the decoder has taken, placed or refused
}

func (r *readChunk) room(slot int) int   { return len(r.left[slot]) }
func (r *readChunk) ready(slot int) bool { return len(r.left[slot]) > 0 }

func (r *readChunk) take(slot int, dst []int, want int) []int {
	n := min(want, len(r.left[slot]))
	dst = append(dst, r.left[slot][:n]...)
	r.left[slot] = r.left[slot][n:]
	return dst
}

func (r *readChunk) landed(slot, i, size int) bool { return false }
func (r *readChunk) serial() bool                  { return false }

// failed counts a failed GET; another share takes its place.
func (r *readChunk) failed(slot, i int, settled bool) bool {
	if !settled {
		r.failedGets++
	}
	return false
}

// fetcher checks one read access's shares: envelope checks with
// reject-and-refetch, and the per-access recovery counters that end up
// in ReadStats. Each share is asked for once, from its one holder;
// stragglers are masked by asking other holders for other shares
// (§4.3.3), not by asking again.
type fetcher struct {
	c          *Client
	name       string
	blockBytes int64

	corrupt atomic.Int64
	late    atomic.Int64 // shares that arrived after their chunk decoded or the cancel
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

// ReadAt reconstructs length bytes starting at offset. LT codes are
// non-systematic — any read must decode the whole segment (§6.2: "only
// whole blocks can be applied to block-XOR operations") — so this is a
// convenience slice over a full speculative read, not a short-circuit;
// the stats reflect the full-segment access.
func (c *Client) ReadAt(ctx context.Context, name string, offset, length int64) ([]byte, ReadStats, error) {
	if offset < 0 || length < 0 {
		return nil, ReadStats{}, errOffset
	}
	data, stats, err := c.Read(ctx, name)
	if err != nil {
		return nil, stats, err
	}
	if offset > int64(len(data)) {
		return nil, stats, errOffset
	}
	end := offset + length
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	return data[offset:end], stats, nil
}

var errOffset = fmt.Errorf("robust: read range out of bounds")

// Stat returns a segment's metadata record.
func (c *Client) Stat(name string) (SegmentInfo, error) {
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		return SegmentInfo{}, err
	}
	info := SegmentInfo{
		Name:       seg.Name,
		Size:       seg.Size,
		K:          seg.Coding.K,
		N:          seg.Coding.N,
		BlockBytes: seg.Coding.BlockBytes,
		Version:    seg.Version,
		Servers:    make(map[string]int, len(seg.Placement)),
	}
	for addr, idx := range seg.Placement {
		info.Servers[addr] = len(idx)
	}
	return info, nil
}

// SegmentInfo is the public view of a stored segment.
type SegmentInfo struct {
	Name       string
	Size       int64
	K, N       int
	BlockBytes int64
	Version    int64
	Servers    map[string]int // address -> blocks held
}
