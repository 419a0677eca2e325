package robust

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/ltcode"
)

// Read reconstructs a segment speculatively (§4.3.3): workers fan out
// block requests to every holder in parallel, each delivered block
// feeds the incremental decoder (peeling, finished by inactivation once
// the blocks held have full rank), and the moment decoding completes
// every outstanding request is canceled. Missing blocks and
// failing servers are tolerated while any decodable subset survives.
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
	defer func() {
		c.m.reads.Inc()
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

	var (
		wg     sync.WaitGroup
		failed atomic.Int64
		// Stage markers raced for by the fan-out workers: the first
		// delivered block and a worker observing completion and
		// canceling the rest (§4.3.3 early cancellation).
		firstByte, earlyCancel atomic.Bool
	)
	// Fan out to the attached holders the failure detector has not
	// evicted. If exclusion would silence every holder, fall back to
	// all attached ones: a read against suspect servers can still
	// succeed (and its outcomes refresh the detector), a read against
	// nobody cannot.
	targets := make(map[string]attached, len(seg.Placement))
	skipped := make(map[string]attached)
	for addr := range seg.Placement {
		store, ok := c.attachment(addr)
		if !ok {
			continue // server gone; speculative access shrugs
		}
		if c.excluded(addr) {
			skipped[addr] = store
			continue
		}
		targets[addr] = store
	}
	if len(targets) == 0 {
		targets = skipped
	}
	if tr != nil {
		tr.Stagef("fanout", "servers=%d excluded=%d", len(targets), len(seg.Placement)-len(targets))
	}
	// The decoder runs on its own goroutine fed by a channel: LT
	// peeling is inherently single-threaded, and funneling shares
	// through a channel keeps the decoder lock (and its contention)
	// out of the network workers' hot path entirely. The goroutine
	// owns the decoder, the per-server receive counts, and the
	// rejected- and late-share counts; all are read only after it
	// exits.
	type deliveredShare struct {
		addr    string
		idx     int
		payload []byte
	}
	shares := make(chan deliveredShare, 4*batchBlocks)
	decodeDone := make(chan struct{})
	received := make(map[string]int, len(targets))
	rejected, late := 0, 0
	var decComplete atomic.Bool
	go func() {
		defer close(decodeDone)
		remaining := len(decs)
		for s := range shares {
			ci, local, ok := sc.locate(s.idx)
			if !ok {
				// No chunk owns this index (corrupt metadata or
				// placement). Neither a failed GET nor a CRC reject;
				// count it instead of dropping it silently.
				rejected++
				c.m.readRejectedShares.Inc()
				continue
			}
			dec := decs[ci]
			if dec.Complete() {
				late++
				continue // drain so no worker blocks on send
			}
			if _, aerr := dec.AddData(local, s.payload); aerr != nil {
				// The chunk's graph cannot place this share either.
				rejected++
				c.m.readRejectedShares.Inc()
				continue
			}
			received[s.addr]++
			// Peeling stalls well before the shares held stop
			// determining the chunk; Solve finishes it by inactivation
			// at the first share of full rank (it returns at once
			// while too few are held).
			if !dec.Complete() {
				dec.Solve()
			}
			if dec.Complete() {
				if remaining--; remaining == 0 {
					decComplete.Store(true)
					if tr != nil {
						tr.Stagef("decode-complete", "inactivated=%d", inactivated(decs))
					}
					cancel()
				}
			}
		}
	}()
	for addr, indices := range seg.Placement {
		a, ok := targets[addr]
		if !ok {
			continue
		}
		// Split the server's block list among its worker pipelines;
		// each pipeline walks its share of the list one window at a
		// time (see readWindow), so a store that moves one block per
		// call gets a window per block.
		win := readWindow(seg.Coding.BlockBytes, a.run)
		for w := 0; w < perServerParallel; w++ {
			wg.Add(1)
			go func(addr string, store backend, mine []int) {
				defer wg.Done()
				deliver := func(idx int, payload []byte) {
					if !firstByte.Swap(true) {
						tr.StageDetail("first-byte", addr)
					}
					select {
					case shares <- deliveredShare{addr: addr, idx: idx, payload: payload}:
					case <-rctx.Done():
						fx.late.Add(1)
					}
				}
				ws := fx.newWindow(addr, store, deliver)
				for lo := 0; lo < len(mine); lo += win {
					if rctx.Err() != nil {
						return
					}
					if decComplete.Load() {
						if !earlyCancel.Swap(true) {
							tr.Stage("early-cancel")
						}
						cancel()
						return
					}
					hi := min(lo+win, len(mine))
					failed.Add(int64(ws.fetch(rctx, mine[lo:hi])))
				}
			}(addr, a.backend, stripeSlice(indices, w, perServerParallel))
		}
	}
	wg.Wait()
	close(shares)
	<-decodeDone

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
		FailedGets:     int(failed.Load()),
		UsedDecoder:    totalUsed,
		CorruptShares:  int(fx.corrupt.Load()),
		RejectedShares: rejected,
		Late:           late + int(fx.late.Load()),
		Inactivated:    inactivated(decs),
	}
	if tr != nil {
		tr.Stagef("per-server", "blocks=%v failed-gets=%d corrupt=%d late=%d rejected=%d",
			received, stats.FailedGets, stats.CorruptShares, stats.Late, stats.RejectedShares)
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
		var got int64
		for _, b := range blocks {
			need := v.size - got
			if need <= 0 {
				break
			}
			if need > int64(len(b)) {
				need = int64(len(b))
			}
			out = append(out, b[:need]...)
			got += need
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

// readWindowBytes caps the share bytes one read keeps requested and
// undelivered at one holder: one mux stream window, roughly a LAN
// holder's bandwidth-delay product. The paper's disks serve one request
// at a time and drop the queued ones on cancel (§6.2.5); a server that
// runs every GET at once ships whatever was asked for before the cancel
// lands, so asking a fast holder for all of its large shares moves
// several times the bytes the decoder needs.
const readWindowBytes = 1 << 20

// readWindow returns the shares one of a holder's pipelines requests
// per GetStream call: readWindowBytes split across the pipelines, at
// least one share and at most the store's run. The cap is in bytes, not
// shares, because bytes are what a canceled read wastes: small shares
// (up to 32 KiB) keep the full run, and only large ones are paced.
func readWindow(blockBytes int64, run int) int {
	n := readWindowBytes / max(blockBytes*perServerParallel, 1)
	return int(max(1, min(n, int64(run))))
}

// stripeSlice deals element i of xs to worker i mod workers.
func stripeSlice(xs []int, worker, workers int) []int {
	out := make([]int, 0, (len(xs)-worker+workers-1)/workers)
	for i := worker; i < len(xs); i += workers {
		out = append(out, xs[i])
	}
	return out
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
