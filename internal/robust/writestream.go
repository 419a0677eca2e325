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

// streamPutter is the pipelined write fast path a backend may offer;
// transport.Client implements it with the mux PUTSTREAM op. The
// contract matches transport.Client.PutStream: a non-nil return means
// no entry was acknowledged (the caller retries them all another
// way), nil means every entry received exactly one acked call.
type streamPutter interface {
	PutStream(ctx context.Context, segment string, puts []blockstore.BatchPut, acked func(i int, err error)) error
}

// WriteFrom stores size bytes read from r as an erasure-coded
// segment, like Write, but pipelined: with ChunkBytes set the input
// is consumed in fixed-size chunks, and each chunk is LT-encoded and
// ratelessly spread while the reader is already filling the buffer
// for the next one — so encode, network send, and ingest overlap,
// the first block commits after one chunk of input, and peak client
// buffering is O(ChunkBytes), not O(size). A negative size reads r
// to EOF; otherwise exactly size bytes are consumed and a short read
// fails the write. With ChunkBytes unset the whole input is buffered
// and written as a single-graph segment.
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
	defer func() {
		c.m.writes.Inc()
		c.m.writeBlocks.Add(int64(stats.Committed))
		c.m.writeBytes.Add(stats.BytesSent)
		c.m.writeFailedPuts.Add(int64(stats.FailedPuts))
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

	sealed := !c.opts.DisableShareChecksums
	chunkBytes := c.opts.ChunkBytes
	// A chunked layout uses one fixed index stride sized for a full
	// chunk, so a coded index maps to its chunk by division. The last
	// chunk may be shorter; its graph still fits its stride slot.
	var stride int
	if chunkBytes > 0 {
		kFull := int((chunkBytes + c.opts.BlockBytes - 1) / c.opts.BlockBytes)
		nFull := int(math.Ceil((1 + c.opts.Redundancy) * float64(kFull)))
		stride = nFull + c.opts.GraphSlack*len(servers)
	}

	var (
		chunks     []metadata.Chunk
		placed     = make(map[string][]int, len(servers))
		total      int64
		totK, totN int
		degraded   bool
		firstNanos atomic.Int64
		seed0      int64 // single-graph layout's seed and graph size
		graphN0    int
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
		if len(placed) == 0 {
			return
		}
		// The write failed and nothing reached metadata: scrub the
		// partial spread so no orphaned blocks outlive it. Detached
		// context — the write may be failing precisely because ctx is
		// canceled — and best-effort: the scrubber backstops leftovers.
		dctx, dcancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer dcancel()
		for addr, indices := range placed {
			if dctx.Err() != nil {
				return
			}
			store, ok := c.store(addr)
			if !ok {
				continue
			}
			_ = deleteBlocks(dctx, store, name, indices)
		}
	}

	for ci := 0; ; ci++ {
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
		if chunkBytes > 0 && int64(len(data)) > chunkBytes {
			cleanup()
			return stats, fmt.Errorf("robust: chunk %d exceeds chunk size %d", ci, chunkBytes)
		}
		blocks := splitBlocks(data, c.opts.BlockBytes)
		k := len(blocks)
		n := int(math.Ceil((1 + c.opts.Redundancy) * float64(k)))
		graphN := n + c.opts.GraphSlack*len(servers)
		var seed int64
		var base int
		if chunkBytes > 0 {
			// Per-chunk seeds derive from the chunk identity so every
			// chunk gets an independent graph, reproducible from the
			// metadata record alone.
			seed = graphSeed(name+"#"+strconv.Itoa(ci), int64(len(data)))
			base = ci * stride
		} else {
			seed = graphSeed(name, int64(len(data)))
			seed0, graphN0 = seed, graphN
		}
		total += int64(len(data))
		graph, gerr := c.cachedGraph(metadata.Coding{
			Algorithm: algLTSpike3, K: k, C: c.opts.LTC, Delta: c.opts.LTDelta, GraphSeed: seed, GraphN: graphN,
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
			base: base, n: n, graphN: graphN, blocks: blocks, graph: graph, sealed: sealed,
		}, onFirst)
		stats.Committed += res.committed
		stats.BytesSent += res.bytesSent
		stats.FailedPuts += res.failed
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
			// decodable.
			if !c.opts.DegradedWrites || res.committed < floorInt(k, c.opts.DegradedFloor) {
				cleanup()
				return stats, fmt.Errorf("%w: %d of %d (%d puts failed)",
					ErrShortWrite, res.committed, n, res.failed)
			}
			degraded = true
		}
		if chunkBytes > 0 {
			chunks = append(chunks, metadata.Chunk{
				Size: int64(len(data)), K: k, N: n, GraphSeed: seed, GraphN: graphN,
			})
		}
	}
	if total == 0 {
		return stats, fmt.Errorf("robust: empty data")
	}
	if tr != nil {
		tr.Stagef("per-server", "blocks=%v failed-puts=%d", countPlacement(placed), stats.FailedPuts)
	}

	cod := metadata.Coding{
		Algorithm:  algLTSpike3,
		K:          totK,
		N:          totN,
		BlockBytes: c.opts.BlockBytes,
		C:          c.opts.LTC,
		Delta:      c.opts.LTDelta,
		ShareCRC:   sealed,
	}
	var chunkStride int
	if chunkBytes > 0 {
		cod.GraphSeed = chunks[0].GraphSeed
		cod.GraphN = stride*(len(chunks)-1) + chunks[len(chunks)-1].GraphN
		chunkStride = stride
	} else {
		cod.GraphSeed = seed0
		cod.GraphN = graphN0
	}
	seg := metadata.Segment{
		Name:        name,
		Size:        total,
		Coding:      cod,
		Placement:   placed,
		Degraded:    degraded,
		Chunks:      chunks,
		ChunkStride: chunkStride,
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
			ErrDegradedWrite, stats.Committed, totN, floorInt(totK, c.opts.DegradedFloor))
	}
	return stats, nil
}

// spreadBackoffMin and spreadBackoffMax bound how long a write worker
// whose whole run failed waits before claiming more work.
const (
	spreadBackoffMin = time.Millisecond
	spreadBackoffMax = 32 * time.Millisecond
)

// spreadPlan is one chunk's coding work handed to the rateless engine.
type spreadPlan struct {
	base   int // first global coded index of this chunk
	n      int // commit target
	graphN int // local graph size; the cursor and caps run against it
	blocks [][]byte
	graph  *ltcode.Graph
	sealed bool
}

// spreadResult is what one chunk's spread produced.
type spreadResult struct {
	committed int
	bytesSent int64
	failed    int
	placed    map[string][]int // global indices per server
}

// spreadChunk runs the rateless speculative spread (§4.3.2) for one
// chunk. Fresh local block indices come from an atomic cursor; an
// index whose put fails goes to a shared retry queue so another
// (healthier) server picks it up, bounded by a global failure budget.
// Indices travel the wire and land in the placement as p.base+local.
// Backends offering the streaming fast path get whole runs shipped
// over one PUTSTREAM op with per-entry acks; others keep the batch or
// per-block pipelines.
func (c *Client) spreadChunk(ctx context.Context, tr *obs.Trace, name string, servers []string, p spreadPlan, onFirstCommit func(addr string)) spreadResult {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n, graphN := p.n, p.graphN
	var (
		next      int64 = -1 // atomically incremented local block cursor
		committed int64
		inflight  int64 // indices claimed by workers, not yet resolved
		bytesSent int64
		failed    int64
		// Stage markers raced for by the rateless workers: the first
		// block landing on a server and the commit target being reached.
		firstCommit, targetReached atomic.Bool
	)
	failureBudget := int64(4*graphN + 64)
	retry := make(chan int, graphN)
	// takeIndices claims up to want local indices: queued retries
	// first, then a fresh run off the cursor, then it blocks until a
	// retry appears or the spread ends. An empty result means it's over.
	takeIndices := func(dst []int, want int) []int {
		dst = dst[:0]
	drain:
		for len(dst) < want {
			select {
			case i := <-retry:
				dst = append(dst, i)
			default:
				break drain
			}
		}
		if m := int64(want - len(dst)); m > 0 {
			end := atomic.AddInt64(&next, m)
			for i := end - m + 1; i <= end; i++ {
				if i < int64(graphN) {
					dst = append(dst, int(i))
				}
			}
		}
		if len(dst) > 0 {
			return dst
		}
		select {
		case i := <-retry:
			return append(dst, i)
		case <-wctx.Done():
			return dst
		}
	}
	// The share cap is a fraction of the commit target n, not of the
	// (larger) graph: capping against graphN lets a fast server absorb
	// share·graphN of the n committed blocks, which under adversarial
	// scheduling concentrates the segment on fewer holders than the
	// placement-diversity option promises and can make the loss of two
	// servers unrecoverable.
	perServerCap := int64(graphN)
	if c.opts.MaxServerShare > 0 {
		perServerCap = int64(math.Ceil(c.opts.MaxServerShare * float64(n)))
		if perServerCap < 1 {
			perServerCap = 1
		}
	}
	// The zone cap is the same reservation discipline one level up:
	// servers in the same failure domain share one atomic counter, so
	// no zone can absorb more than ceil(MaxZoneShare·n) of the
	// committed shares no matter how the speculative race lands.
	var (
		perZoneCap int64
		zoneCounts map[string]*int64
		zoneOf     map[string]string
	)
	if c.opts.MaxZoneShare > 0 {
		perZoneCap = int64(placement.ZoneCapShares(c.opts.MaxZoneShare, n))
		zoneOf = make(map[string]string, len(servers))
		for _, srv := range c.meta.Servers() {
			zoneOf[srv.Addr] = srv.Zone
		}
		zoneCounts = make(map[string]*int64)
		for _, addr := range servers {
			z := zoneOf[addr]
			if zoneCounts[z] == nil {
				zoneCounts[z] = new(int64)
			}
		}
	}
	placeMu := sync.Mutex{}
	placed := make(map[string][]int, len(servers))
	serverCount := make(map[string]*int64, len(servers))
	for _, addr := range servers {
		var zero int64
		serverCount[addr] = &zero
	}
	batchRun := c.opts.BatchBlocks
	if batchRun < 1 {
		batchRun = 1
	}
	bufLen := shareBufLen(c.opts.BlockBytes)
	var wg sync.WaitGroup
	for _, addr := range servers {
		store, _ := c.store(addr)
		count := serverCount[addr]
		var zcount *int64
		if zoneCounts != nil {
			zcount = zoneCounts[zoneOf[addr]]
		}
		for w := 0; w < c.opts.PerServerParallel; w++ {
			wg.Add(1)
			go func(addr string, store storePutter) {
				defer wg.Done()
				batcher, _ := store.(putBatcher)
				streamer, _ := store.(streamPutter)
				maxRun := batchRun
				if batcher == nil && streamer == nil {
					maxRun = 1 // no batch fast path: keep the per-block pipeline
				}
				indices := make([]int, 0, maxRun)
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
				// handle resolves one entry's outcome. It runs serially
				// within a run — PutStream delivers acks one at a time
				// and completes them before returning, the fallback
				// loops call it inline — so overBudget needs no atomics.
				var overBudget bool
				// runOK records whether any entry of the current run
				// committed; a run that lost every entry backs the
				// worker off before it claims more work.
				var runOK bool
				var backoff time.Duration
				handle := func(j int, errj error) {
					if errj != nil {
						atomic.AddInt64(count, -1)
						if zcount != nil {
							atomic.AddInt64(zcount, -1)
						}
						if wctx.Err() != nil || overBudget {
							return
						}
						if atomic.AddInt64(&failed, 1) > failureBudget {
							overBudget = true
							return
						}
						retry <- puts[j].Index - p.base // hand it to a healthier worker
						return
					}
					runOK = true
					atomic.AddInt64(&bytesSent, int64(len(puts[j].Data)))
					if !firstCommit.Swap(true) {
						onFirstCommit(addr)
					}
					placeMu.Lock()
					placed[addr] = append(placed[addr], puts[j].Index)
					placeMu.Unlock()
					if atomic.AddInt64(&committed, 1) >= int64(n) {
						if !targetReached.Swap(true) {
							tr.Stage("commit-target")
						}
						cancel() // enough blocks on disk: stop the rest
					}
				}
				for {
					if wctx.Err() != nil {
						return
					}
					// Size the run by the outstanding commit need, so a
					// batch never claims blocks nobody has to store: an
					// unbounded run would overshoot the target by whole
					// batches (the floor of 1 keeps each worker probing,
					// exactly like the per-block pipeline, in case an
					// in-flight put on another server fails).
					want := int(int64(n) - atomic.LoadInt64(&committed) - atomic.LoadInt64(&inflight))
					if want < 1 {
						want = 1
					}
					if want > maxRun {
						want = maxRun
					}
					// Reserve the run in this server's share before taking
					// indices: a plain load-then-put check lets two
					// pipeline workers race past the cap together.
					reserved := want
					if over := atomic.AddInt64(count, int64(want)) - perServerCap; over > 0 {
						if over >= int64(want) {
							atomic.AddInt64(count, -int64(want))
							return // this server has its share
						}
						atomic.AddInt64(count, -over)
						reserved -= int(over)
					}
					if zcount != nil {
						if over := atomic.AddInt64(zcount, int64(reserved)) - perZoneCap; over > 0 {
							if over >= int64(reserved) {
								atomic.AddInt64(zcount, -int64(reserved))
								atomic.AddInt64(count, -int64(reserved))
								return // this failure domain has its share
							}
							atomic.AddInt64(zcount, -over)
							atomic.AddInt64(count, -over)
							reserved -= int(over)
						}
					}
					indices = takeIndices(indices, reserved)
					if give := int64(reserved - len(indices)); give > 0 {
						atomic.AddInt64(count, -give)
						if zcount != nil {
							atomic.AddInt64(zcount, -give)
						}
					}
					if len(indices) == 0 {
						return // spread ended while waiting for work
					}
					atomic.AddInt64(&inflight, int64(len(indices)))
					// Encode the run into this worker's leased buffers.
					for len(bufs) < len(indices) {
						bufs = append(bufs, getShareBuf(bufLen))
					}
					puts = puts[:0]
					for bi, i := range indices {
						puts = append(puts, blockstore.BatchPut{
							Index: p.base + i,
							Data:  encodeShareInto(*bufs[bi], p.graph, i, p.blocks, p.sealed),
						})
					}
					overBudget, runOK = false, false
					// One health outcome per wire operation: the stream
					// and the batch are one round trip each, the fallback
					// loop stays one per put.
					streamed := false
					if streamer != nil && len(puts) > 1 {
						acked := func(j int, e error) {
							runErrs[j] = e
							handle(j, e)
						}
						if serr := streamer.PutStream(wctx, name, puts, acked); serr == nil {
							// Every entry was acked exactly once; runErrs
							// is fully populated for the health verdict.
							c.reportOutcome(addr, c.batchOutcome(runErrs[:len(puts)]))
							streamed = true
						}
						// A non-nil return guarantees zero acks were
						// delivered: fall back to the batch or per-block
						// path and re-send the whole run.
					}
					if !streamed {
						var errs []error
						if batcher != nil && len(puts) > 1 {
							errs = batcher.PutBatch(wctx, name, puts)
							c.reportOutcome(addr, c.batchOutcome(errs))
						} else {
							errs = runErrs[:len(puts)]
							for j := range puts {
								if cerr := wctx.Err(); cerr != nil {
									errs[j] = cerr // commit target reached or caller gone
									continue
								}
								errs[j] = store.Put(wctx, name, puts[j].Index, puts[j].Data)
								c.reportOutcome(addr, errs[j])
							}
						}
						for j := range puts {
							handle(j, errs[j])
						}
					}
					atomic.AddInt64(&inflight, -int64(len(puts)))
					if overBudget {
						cancel()
						return
					}
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
			}(addr, store)
		}
	}
	wg.Wait()

	return spreadResult{
		committed: int(atomic.LoadInt64(&committed)),
		bytesSent: atomic.LoadInt64(&bytesSent),
		failed:    int(atomic.LoadInt64(&failed)),
		placed:    placed,
	}
}
