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
// segment, like Write, but pipelined: with ChunkBytes set each
// fixed-size chunk is LT-encoded and ratelessly spread while the reader
// fills the next, so the first block commits after one chunk of input
// and peak client buffering is O(ChunkBytes). A negative size reads r
// to EOF; otherwise exactly size bytes are consumed and a short read
// fails the write. With ChunkBytes unset the whole input is buffered
// and written as one chunk. The write commits to metadata only after
// every chunk reaches its durability target; on failure all placed
// blocks are deleted (best-effort).
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
// non-nil, hands a chunk buffer back once its bytes are copied into
// coding blocks. size is the declared total (negative: unknown). On
// any failure every placed block is deleted best-effort first.
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
		// The write failed and nothing reached metadata: delete the
		// partial spread, best-effort, on a detached context (ctx may
		// be why it failed); the scrubber backstops leftovers.
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
		sp := c.spreadChunk(ctx, tr, name, servers, spreadPlan{
			base: ci * stride, n: n, graphN: graphN, blocks: blocks, graph: graph,
		}, onFirst)
		stats.Committed += sp.committed
		stats.BytesSent += sp.bytesSent
		stats.FailedPuts += sp.failedPuts
		probes += sp.e.probes
		for _, srv := range sp.servers {
			if len(srv.placed) > 0 {
				placed[srv.addr] = append(placed[srv.addr], srv.placed...)
			}
		}
		totK += k
		totN += n
		if cerr := ctx.Err(); cerr != nil {
			cleanup()
			return stats, cerr
		}
		if sp.committed < n {
			// Graceful degradation (opt-in): commit what survived when
			// it clears the degraded floor, comfortably above the LT
			// decode threshold, and decodes. The floor holds per chunk:
			// each chunk must stay independently decodable.
			if !c.opts.DegradedWrites || sp.committed < degradedBlocks(k) {
				cleanup()
				return stats, fmt.Errorf("%w: %d of %d (%d puts failed)",
					ErrShortWrite, sp.committed, n, sp.failedPuts)
			}
			if !sp.decodes(graph) {
				cleanup()
				return stats, fmt.Errorf("%w: the %d committed blocks of %d do not decode (%d puts failed)",
					ErrShortWrite, sp.committed, n, sp.failedPuts)
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

// spreadPlan is one chunk's coding work handed to the rateless engine.
type spreadPlan struct {
	base   int // first global coded index of this chunk
	n      int // commit target
	graphN int // local graph size; the cursor and caps run against it
	blocks [][]byte
	graph  *ltcode.Graph
}

// spreadChunk runs the rateless speculative spread (§4.3.2) of one
// chunk on the engine (see spread) and returns it once it is over: N
// committed, or nothing left to claim or in flight, or stuck. Indices
// travel the wire and land in the placement as p.base+local; each run
// goes to its server as one PutStream with per-entry acks.
func (c *Client) spreadChunk(ctx context.Context, tr *obs.Trace, name string, servers []string, p spreadPlan, onFirstCommit func(addr string)) *spread {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The share cap is a fraction of the commit target n, not of the
	// larger graph, which would let a fast server absorb share·graphN
	// of the n committed blocks: fewer holders than the placement
	// diversity option promises.
	perServerCap := p.graphN
	if c.opts.MaxServerShare > 0 {
		perServerCap = max(int(math.Ceil(c.opts.MaxServerShare*float64(p.n))), 1)
	}
	// The zone cap is the same one level up: servers in one failure
	// domain share one count.
	slots := make([]spreadServer, len(servers))
	atts := make([]attached, len(servers))
	for i, addr := range servers {
		slots[i] = spreadServer{addr: addr}
		atts[i], _ = c.attachment(addr)
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
	sp := newSpread(wctx, cancel, p, slots, atts, perServerCap, perZoneCap)
	// The first block landing on any server is raced for by the workers.
	var firstCommit atomic.Bool
	bufLen := shareBufLen(c.opts.BlockBytes)
	var wg sync.WaitGroup
	sp.e.start(&wg, func(w *worker) {
		addr, store, maxRun := servers[w.slot], atts[w.slot].backend, w.maxRun
		run := &w.run
		puts := make([]blockstore.BatchPut, 0, maxRun)
		// Share buffers are leased once per worker and reused across
		// runs: Store.Put must not retain data.
		bufs := make([]*[]byte, 0, maxRun)
		defer func() {
			for _, b := range bufs {
				putShareBuf(b)
			}
		}()
		var backoff time.Duration
		// acked resolves one entry. PutStream delivers acks one at a
		// time and completes them before returning.
		acked := func(j int, e error) {
			reached := sp.e.ack(run, puts[j].Index-p.base, len(puts[j].Data), e)
			if e != nil {
				return
			}
			if !firstCommit.Swap(true) {
				onFirstCommit(addr)
			}
			if reached {
				tr.Stage("commit-target")
			}
		}
		for wctx.Err() == nil && (len(w.indices) > 0 || sp.e.take(w)) {
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
			if serr := store.PutStream(wctx, name, puts, acked); serr != nil {
				// Nothing was acked: every entry goes back to the
				// re-route for a healthier server.
				for j := range puts {
					acked(j, serr)
				}
			}
			out := sp.e.finish(run)
			c.reportOutcome(addr, out)
			w.indices = w.indices[:0]
			// A server failing whole runs — dead, refusing, or
			// erroring every put — would otherwise re-claim work as
			// fast as it fails and burn the failure budget before
			// slower healthy servers commit. Exponential backoff from
			// 1 to 8 ms, reset by any commit, keeps its share small.
			if out == nil {
				backoff = 0
				continue
			}
			backoff = min(max(2*backoff, time.Millisecond), 8*time.Millisecond)
			if sleepCtx(wctx, backoff) != nil {
				return
			}
		}
	})
	wg.Wait()
	return sp
}

// decodes reports whether the spread's committed shares recover all
// the chunk's originals.
func (s *spread) decodes(graph *ltcode.Graph) bool {
	dec := ltcode.NewSymbolicDecoder(graph)
	for _, srv := range s.servers {
		for _, i := range srv.placed {
			dec.Add(i - s.base)
		}
	}
	return dec.Solve()
}
