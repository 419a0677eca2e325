package robust

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/ltcode"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/placement"
)

// WriteFrom stores size bytes read from r as an erasure-coded
// segment, like Write, but pipelined: with ChunkBytes set the input
// is consumed in fixed-size chunks, and each chunk is LT-encoded and
// ratelessly spread while the reader is already filling the buffer
// for the next one — so encode, network send, and ingest overlap,
// the first block commits after one chunk of input, and peak client
// buffering is O(ChunkBytes), not O(size). A negative size reads r
// to EOF; otherwise exactly size bytes are consumed and a short read
// fails the write. With ChunkBytes unset the whole input is buffered
// and written as a one-chunk segment.
//
// The write commits to metadata only after every chunk reaches its
// durability target; on failure all placed blocks are deleted
// (best-effort) so no partial chunks are orphaned.
func (c *Client) WriteFrom(ctx context.Context, name string, r io.Reader, size int64, servers []string) (WriteStats, error) {
	chunk := c.opts.ChunkBytes
	if chunk <= 0 {
		var data []byte
		if size >= 0 {
			data = make([]byte, size)
			if _, err := io.ReadFull(r, data); err != nil {
				return WriteStats{}, fmt.Errorf("robust: read input: %w", err)
			}
		} else {
			var err error
			data, err = io.ReadAll(r)
			if err != nil {
				return WriteStats{}, fmt.Errorf("robust: read input: %w", err)
			}
		}
		return c.Write(ctx, name, data, servers)
	}

	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	// Double buffer: the reader pump fills one chunk while
	// writeSegment encodes and spreads the other. writeSegment
	// recycles a buffer the moment the chunk's bytes are copied into
	// coding blocks, which is what lets ingest of chunk i+1 overlap
	// the encode and spread of chunk i.
	free := make(chan []byte, 2)
	free <- make([]byte, chunk)
	free <- make([]byte, chunk)
	type readChunk struct {
		data []byte
		err  error
	}
	out := make(chan readChunk)
	go func() {
		defer close(out)
		var read int64
		for {
			want := chunk
			if size >= 0 {
				if rem := size - read; rem < want {
					want = rem
				}
			}
			if want == 0 {
				return
			}
			var buf []byte
			select {
			case buf = <-free:
			case <-rctx.Done():
				return
			}
			n, rerr := io.ReadFull(r, buf[:want])
			read += int64(n)
			var cerr error
			switch {
			case rerr == nil:
			case rerr == io.EOF || rerr == io.ErrUnexpectedEOF:
				if size >= 0 {
					cerr = fmt.Errorf("robust: short input: %d of %d bytes", read, size)
				}
			default:
				cerr = fmt.Errorf("robust: read input: %w", rerr)
			}
			if n == 0 && cerr == nil {
				return // clean EOF on a chunk boundary
			}
			select {
			case out <- readChunk{data: buf[:n], err: cerr}:
			case <-rctx.Done():
				return
			}
			if cerr != nil || rerr != nil {
				return
			}
		}
	}()
	next := func() ([]byte, error) {
		rc, ok := <-out
		if !ok {
			return nil, io.EOF
		}
		if rc.err != nil {
			return nil, rc.err
		}
		return rc.data, nil
	}
	recycle := func(b []byte) {
		select {
		case free <- b[:cap(b)]:
		default:
		}
	}
	return c.writeSegment(ctx, name, size, next, recycle, servers)
}

// writeSegment is the write path shared by Write and WriteFrom: it
// consumes chunks from next (io.EOF ends the stream), encodes and
// ratelessly spreads each one, and commits the segment record once
// every chunk has reached its durability target. recycle, when
// non-nil, hands a chunk buffer back to the producer as soon as its
// bytes have been copied into coding blocks. size is the declared
// total (negative when unknown). On any failure every block placed so
// far is deleted best-effort before returning, so a failed write
// leaves neither metadata nor orphaned partial chunks.
func (c *Client) writeSegment(ctx context.Context, name string, size int64, next func() ([]byte, error), recycle func([]byte), servers []string) (stats WriteStats, err error) {
	start := time.Now()
	tr := c.obs.StartTrace("write", name)
	probes := 0 // one-share probes past late runs, over every chunk
	defer func() {
		c.m.writes.Inc()
		c.m.writeBlocks.Add(int64(stats.Committed))
		c.m.writeBytes.Add(stats.BytesSent)
		c.m.writeFailedPuts.Add(int64(stats.FailedPuts))
		c.m.writeSpeculative.Add(int64(probes))
		c.m.writeLatency.Observe(time.Since(start).Seconds())
		if stats.FirstCommit > 0 {
			c.m.writeFirstCommit.Observe(stats.FirstCommit.Seconds())
		}
		if err != nil {
			c.m.writeErrors.Inc()
		}
		tr.End(err)
	}()
	if name == "" {
		return WriteStats{}, fmt.Errorf("robust: empty segment name")
	}
	if size == 0 {
		return WriteStats{}, fmt.Errorf("robust: empty data")
	}
	if servers == nil {
		servers = c.writableServers()
	}
	if len(servers) == 0 {
		return WriteStats{}, ErrNoServers
	}
	for _, addr := range servers {
		if _, ok := c.store(addr); !ok {
			return WriteStats{}, fmt.Errorf("robust: server %q not attached", addr)
		}
	}
	unlock, err := c.meta.LockWrite(ctx, name)
	if err != nil {
		return WriteStats{}, err
	}
	defer unlock()
	if _, err := c.meta.LookupSegment(name); err == nil {
		return WriteStats{}, metadata.ErrSegmentExists
	}
	tr.Stage("lock")

	chunkBytes := c.opts.ChunkBytes
	var (
		chunks     []metadata.Chunk
		stride     int // chunk 0's graph size: every chunk's index range
		placed     = make(map[string][]int, len(servers))
		total      int64
		totK, totN int
		degraded   bool
		firstNanos atomic.Int64
	)
	defer func() {
		stats.K, stats.N = totK, totN
		stats.Duration = time.Since(start)
		stats.PerServer = countPlacement(placed)
		stats.FirstCommit = time.Duration(firstNanos.Load())
		stats.Degraded = degraded
	}()
	onFirst := func(addr string) {
		d := int64(time.Since(start))
		if d < 1 {
			d = 1 // keep the CAS sentinel distinguishable on coarse clocks
		}
		if firstNanos.CompareAndSwap(0, d) {
			tr.StageDetail("first-commit", addr)
		}
	}
	cleanup := func() {
		// The write failed and nothing reached metadata: scrub the
		// partial spread so no orphaned blocks outlive it. Detached
		// context — the write may be failing precisely because ctx is
		// canceled — and best-effort: the scrubber backstops leftovers.
		dctx, dcancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer dcancel()
		_ = c.deletePlacement(dctx, name, placed)
	}

	for {
		data, nerr := next()
		if nerr == io.EOF {
			break
		}
		if nerr != nil {
			cleanup()
			return stats, nerr
		}
		if len(data) == 0 {
			continue
		}
		ci := len(chunks)
		if chunkBytes > 0 && int64(len(data)) > chunkBytes {
			cleanup()
			return stats, fmt.Errorf("robust: chunk %d exceeds chunk size %d", ci, chunkBytes)
		}
		blocks := splitBlocks(data, c.opts.BlockBytes)
		k := len(blocks)
		n := int(math.Ceil((1 + c.opts.Redundancy) * float64(k)))
		graphN := n + graphSlack*len(servers)
		// Per-chunk seeds derive from the chunk identity so every chunk
		// gets an independent graph, reproducible from the metadata
		// record alone. Chunk 0 is full whenever a second chunk follows,
		// so its graph size is a stride every chunk's graph fits.
		seed := graphSeed(name+"#"+strconv.Itoa(ci), int64(len(data)))
		if ci == 0 {
			stride = graphN
		}
		total += int64(len(data))
		graph, gerr := c.cachedGraph(metadata.Coding{
			Algorithm: algLTSpike3, K: k, C: ltC, Delta: ltDelta, GraphSeed: seed, GraphN: graphN,
		})
		if gerr != nil {
			cleanup()
			return stats, gerr
		}
		if recycle != nil {
			recycle(data) // blocks hold a copy; let the reader refill it
		}
		if tr != nil {
			tr.Stagef("plan", "chunk=%d K=%d N=%d graphN=%d servers=%d", ci, k, n, graphN, len(servers))
		}
		res := c.spreadChunk(ctx, tr, name, servers, spreadPlan{
			base: ci * stride, n: n, graphN: graphN, blocks: blocks, graph: graph,
		}, onFirst)
		stats.Committed += res.committed
		stats.BytesSent += res.bytesSent
		stats.FailedPuts += res.failed
		probes += res.probes
		for addr, idx := range res.placed {
			placed[addr] = append(placed[addr], idx...)
		}
		totK += k
		totN += n
		if cerr := ctx.Err(); cerr != nil {
			cleanup()
			return stats, cerr
		}
		if res.committed < n {
			// Graceful degradation (opt-in): commit what survived when
			// it still clears the degraded floor — comfortably above
			// the LT decode threshold — rather than discarding a
			// recoverable chunk because some servers were down. The
			// floor holds per chunk: each chunk must stay independently
			// decodable. The floor is a count, and a set of shares
			// above it can still miss an original, so the committed
			// shares must also decode.
			if !c.opts.DegradedWrites || res.committed < degradedBlocks(k) {
				cleanup()
				return stats, fmt.Errorf("%w: %d of %d (%d puts failed)",
					ErrShortWrite, res.committed, n, res.failed)
			}
			if !decodes(graph, ci*stride, res.placed) {
				cleanup()
				return stats, fmt.Errorf("%w: the %d committed blocks of %d do not decode (%d puts failed)",
					ErrShortWrite, res.committed, n, res.failed)
			}
			degraded = true
		}
		chunks = append(chunks, metadata.Chunk{
			Size: int64(len(data)), K: k, N: n, GraphSeed: seed, GraphN: graphN,
		})
	}
	if total == 0 {
		return stats, fmt.Errorf("robust: empty data")
	}
	if tr != nil {
		tr.Stagef("per-server", "blocks=%v failed-puts=%d speculative=%d", countPlacement(placed), stats.FailedPuts, probes)
	}

	seg := metadata.Segment{
		Name: name,
		Size: total,
		Coding: metadata.Coding{
			Algorithm:   algLTSpike3,
			K:           totK,
			N:           totN,
			BlockBytes:  c.opts.BlockBytes,
			C:           ltC,
			Delta:       ltDelta,
			GraphSeed:   chunks[0].GraphSeed,
			GraphN:      stride*(len(chunks)-1) + chunks[len(chunks)-1].GraphN,
			ShareFormat: blockstore.ShareFormat,
		},
		Placement:   placed,
		Degraded:    degraded,
		Chunks:      chunks,
		ChunkStride: stride,
	}
	if cerr := c.meta.CreateSegment(seg); cerr != nil {
		cleanup()
		return stats, cerr
	}
	tr.Stage("metadata")
	if degraded {
		c.m.writeDegraded.Inc()
		tr.StageDetail("degraded-commit", fmt.Sprintf("%d/%d", stats.Committed, totN))
		return stats, fmt.Errorf("%w: %d of %d blocks (floor %d)",
			ErrDegradedWrite, stats.Committed, totN, degradedBlocks(totK))
	}
	return stats, nil
}

// spreadBackoffMin and spreadBackoffMax bound how long a write worker
// whose whole run failed waits before claiming more work.
const (
	spreadBackoffMin = time.Millisecond
	spreadBackoffMax = 8 * time.Millisecond
)

// spreadPlan is one chunk's coding work handed to the rateless engine.
type spreadPlan struct {
	base   int // first global coded index of this chunk
	n      int // commit target
	graphN int // local graph size; the cursor and caps run against it
	blocks [][]byte
	graph  *ltcode.Graph
}

// spreadResult is what one chunk's spread produced.
type spreadResult struct {
	committed int
	bytesSent int64
	failed    int
	probes    int              // one-share probes sent past a late run
	placed    map[string][]int // global indices per server
}

// spreadChunk runs the rateless speculative spread (§4.3.2) for one
// chunk and stops at N. Each worker claims what the commit target
// still needs, at most one equal run of ceil(N / workers) indices:
// queued retries first, then fresh indices off the cursor. A worker
// with nothing to claim sends a one-share probe only past a run that
// is late by this write's own ack times (see late), and otherwise
// waits. An index whose put fails goes to a shared retry queue so
// another server picks it up, bounded by a failure budget; an index
// every live server has refused is dropped, and the spread ends when
// nothing is left to claim, in flight or queued. Indices travel the
// wire and land in the placement as p.base+local. Each run goes to its
// server as one PutStream with per-entry acks.
func (c *Client) spreadChunk(ctx context.Context, tr *obs.Trace, name string, servers []string, p spreadPlan, onFirstCommit func(addr string)) spreadResult {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The share cap is a fraction of the commit target n, not of the
	// (larger) graph: capping against graphN lets a fast server absorb
	// share·graphN of the n committed blocks, which under adversarial
	// scheduling concentrates the segment on fewer holders than the
	// placement-diversity option promises and can make the loss of two
	// servers unrecoverable.
	perServerCap := p.graphN
	if c.opts.MaxServerShare > 0 {
		perServerCap = max(int(math.Ceil(c.opts.MaxServerShare*float64(p.n))), 1)
	}
	// The zone cap is the same reservation discipline one level up:
	// servers in the same failure domain share one count, so no zone
	// can absorb more than ceil(MaxZoneShare·n) of the committed shares
	// no matter how the speculative race lands.
	slots := make([]spreadServer, len(servers))
	for i, addr := range servers {
		slots[i] = spreadServer{addr: addr, live: perServerParallel}
	}
	perZoneCap := 0
	if c.opts.MaxZoneShare > 0 {
		perZoneCap = placement.ZoneCapShares(c.opts.MaxZoneShare, p.n)
		zoneOf := make(map[string]string, len(servers))
		for _, srv := range c.meta.Servers() {
			zoneOf[srv.Addr] = srv.Zone
		}
		zoneCounts := make(map[string]*int)
		for i, addr := range servers {
			z := zoneOf[addr]
			if zoneCounts[z] == nil {
				zoneCounts[z] = new(int)
			}
			slots[i].zone = zoneCounts[z]
		}
	}
	sp := newSpread(wctx, cancel, p, slots, perServerCap, perZoneCap)
	// Every worker's first run is claimed before any worker starts, off
	// the cursor in this order: each server's first pipeline, then each
	// server's second. So a server's two runs lie apart in the index
	// space, and the first shares a read gets from each holder are
	// consecutive ones, which on uniform-coverage graphs cover disjoint
	// originals.
	atts := make([]attached, len(servers))
	for slot, addr := range servers {
		atts[slot], _ = c.attachment(addr)
	}
	workers := make([]spreadWorker, 0, perServerParallel*len(servers))
	for w := 0; w < perServerParallel; w++ {
		for slot, a := range atts {
			workers = append(workers, spreadWorker{slot: slot, maxRun: a.run, indices: make([]int, 0, a.run)})
		}
	}
	for i := range workers {
		sp.take(&workers[i], false)
	}
	// The first block landing on any server is raced for by the workers.
	var firstCommit atomic.Bool
	bufLen := shareBufLen(c.opts.BlockBytes)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func(w *spreadWorker) {
			slot, addr, store, maxRun := w.slot, servers[w.slot], atts[w.slot].backend, w.maxRun
			run := &w.run
			defer wg.Done()
			defer sp.exit(slot)
			puts := make([]blockstore.BatchPut, 0, maxRun)
			runErrs := make([]error, maxRun)
			// Share buffers are leased from the pool once per worker
			// lifetime and reused across runs — safe because
			// Store.Put must not retain data — so a warm pool is
			// touched a handful of times per write, not per block.
			bufs := make([]*[]byte, 0, maxRun)
			defer func() {
				for _, b := range bufs {
					putShareBuf(b)
				}
			}()
			var (
				runOK   bool // some entry of the current run committed
				backoff time.Duration
			)
			// acked resolves one entry. PutStream delivers acks one
			// at a time and completes them before returning.
			acked := func(j int, e error) {
				runErrs[j] = e
				ok, reached := sp.ack(run, puts[j].Index-p.base, len(puts[j].Data), e)
				if !ok {
					return
				}
				runOK = true
				if !firstCommit.Swap(true) {
					onFirstCommit(addr)
				}
				if reached {
					tr.Stage("commit-target")
				}
			}
			for {
				if wctx.Err() != nil {
					return
				}
				if len(w.indices) == 0 && !sp.take(w, true) {
					return
				}
				// Encode the run into this worker's leased buffers.
				for len(bufs) < len(w.indices) {
					bufs = append(bufs, getShareBuf(bufLen))
				}
				puts = puts[:0]
				for bi, i := range w.indices {
					puts = append(puts, blockstore.BatchPut{
						Index: p.base + i,
						Data:  encodeShareInto(*bufs[bi], name, p.base, p.graph, i, p.blocks),
					})
				}
				runOK = false
				if serr := store.PutStream(wctx, name, puts, acked); serr != nil {
					// Nothing was acked: every entry goes back to the
					// re-route for a healthier server.
					for j := range puts {
						acked(j, serr)
					}
				}
				// One health outcome per run.
				c.reportOutcome(addr, c.batchOutcome(runErrs[:len(puts)]))
				sp.finish(run)
				w.indices = w.indices[:0]
				// A server failing whole runs — dead, refusing, or
				// erroring every put — would otherwise re-claim work
				// as fast as it fails and burn the chunk's failure
				// budget before slower healthy servers commit.
				// Exponential backoff, reset by any commit, keeps its
				// share of the budget small; the re-queued indices go
				// to other workers meanwhile.
				if runOK {
					backoff = 0
					continue
				}
				backoff = min(max(2*backoff, spreadBackoffMin), spreadBackoffMax)
				if sleepCtx(wctx, backoff) != nil {
					return
				}
			}
		}(&workers[i])
	}
	wg.Wait()

	res := spreadResult{
		committed: sp.committed,
		bytesSent: sp.bytesSent,
		failed:    sp.failed,
		probes:    sp.probes,
		placed:    make(map[string][]int, len(servers)),
	}
	for _, srv := range sp.servers {
		if len(srv.placed) > 0 {
			res.placed[srv.addr] = srv.placed
		}
	}
	return res
}

// decodes reports whether a chunk's committed shares recover all its
// originals: placed holds their segment-wide indices, base the chunk's
// first.
func decodes(graph *ltcode.Graph, base int, placed map[string][]int) bool {
	dec := ltcode.NewSymbolicDecoder(graph)
	for _, indices := range placed {
		for _, i := range indices {
			dec.Add(i - base)
		}
	}
	return dec.Solve()
}
