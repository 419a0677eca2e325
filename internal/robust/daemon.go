package robust

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/obs"
)

// DaemonOptions configure the self-healing scrub/repair daemon; its
// rebalancer restores the client's Options.MaxZoneShare zone cap.
type DaemonOptions struct {
	// ScrubInterval is the pause between scrub passes (default 30s).
	ScrubInterval time.Duration
	// RepairRateBytesPerSec bounds repair write bandwidth with a token
	// bucket: each queued segment charges deficit·BlockBytes before its
	// repair runs. Zero disables throttling.
	RepairRateBytesPerSec int64
	// RepairBurstBytes is the bucket depth (default: one second of
	// rate). A repair larger than the burst still runs — it just waits
	// for the debt to amortize.
	RepairBurstBytes int64
	// Rebalance enables the rebalance phase: after each scrub/repair
	// pass the daemon plans share migrations off Draining/Removed and
	// over-full servers (and back onto rejoined ones), restores the
	// client's Options.MaxZoneShare cap, and executes the moves under
	// the same token bucket as repairs. Off by default.
	Rebalance bool
	// Now is the clock (default time.Now); tests inject a fake so
	// throttle arithmetic is deterministic.
	Now func() time.Time
	// Obs, when non-nil, receives scrub_*, repair_queue_*, and
	// rebalance_* metrics.
	Obs *obs.Registry
}

func (o DaemonOptions) withDefaults() DaemonOptions {
	if o.ScrubInterval <= 0 {
		o.ScrubInterval = 30 * time.Second
	}
	if o.RepairBurstBytes <= 0 {
		o.RepairBurstBytes = o.RepairRateBytesPerSec
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// daemonMetrics are the daemon's metric handles (nil/no-op without a
// registry).
type daemonMetrics struct {
	passes         *obs.Counter
	segments       *obs.Counter
	corruptShares  *obs.Counter
	missingShares  *obs.Counter
	scrubErrors    *obs.Counter
	queueDepth     *obs.Gauge
	enqueued       *obs.Counter
	repaired       *obs.Counter
	repairErrors   *obs.Counter
	throttleSecond *obs.Histogram

	rebalancePasses     *obs.Counter
	rebalanceMoves      *obs.Counter
	rebalanceMoveErrors *obs.Counter
	rebalanceBytes      *obs.Counter
	rebalanceQueueDepth *obs.Gauge
	rebalanceThrottle   *obs.Histogram
}

func newDaemonMetrics(r *obs.Registry) daemonMetrics {
	return daemonMetrics{
		passes:         r.Counter("scrub_passes_total"),
		segments:       r.Counter("scrub_segments_total"),
		corruptShares:  r.Counter("scrub_corrupt_shares_total"),
		missingShares:  r.Counter("scrub_missing_shares_total"),
		scrubErrors:    r.Counter("scrub_errors_total"),
		queueDepth:     r.Gauge("repair_queue_depth"),
		enqueued:       r.Counter("repair_queue_enqueued_total"),
		repaired:       r.Counter("repair_queue_repaired_total"),
		repairErrors:   r.Counter("repair_queue_errors_total"),
		throttleSecond: r.Histogram("repair_throttle_seconds"),

		rebalancePasses:     r.Counter("rebalance_passes_total"),
		rebalanceMoves:      r.Counter("rebalance_moves_total"),
		rebalanceMoveErrors: r.Counter("rebalance_move_errors_total"),
		rebalanceBytes:      r.Counter("rebalance_bytes_total"),
		rebalanceQueueDepth: r.Gauge("rebalance_queue_depth"),
		rebalanceThrottle:   r.Histogram("rebalance_throttle_seconds"),
	}
}

// SegmentAudit is one segment's scrub result: how many of its placed
// shares are live, corrupt, or missing, and the redundancy deficit a
// repair would have to close.
type SegmentAudit struct {
	Name     string
	K, N     int
	Live     int // shares present and (where the holder scrubs) intact
	Corrupt  int // shares failing the holder's integrity scrub
	Missing  int // placed shares absent, or on unreachable holders
	Degraded bool
	// Outdated reports a record in an older share format: it is not
	// scrubbed, and a repair upgrades every share in place.
	Outdated bool
	// CorruptBy maps holder address to the corrupt share indices found
	// there; the daemon deletes these before repairing so corruption
	// becomes absence and the repair audit regenerates them.
	CorruptBy map[string][]int
}

// Deficit is the number of shares a repair must regenerate to restore
// the commit target N.
func (a SegmentAudit) Deficit() int {
	d := a.N - a.Live
	if d < 0 {
		return 0
	}
	return d
}

// RepairShares is the number of shares a repair pass writes: every
// missing or corrupt share is regenerated in place of the lost one —
// surplus redundancy from a rateless overshoot does not excuse it —
// and a segment still short of N after that is topped up to it.
func (a SegmentAudit) RepairShares() int {
	n := max(a.Deficit(), a.Missing+a.Corrupt)
	if a.Outdated {
		n += a.Live // each upgraded in place
	}
	return n
}

// NeedsRepair reports whether a repair pass would change anything.
// Missing shares trigger a repair even when surplus redundancy keeps
// the deficit at zero: the repair prunes dead holders from the
// placement and re-places their shares, so the placement converges
// back onto live servers instead of pointing at ghosts forever. An
// outdated record needs the repair that upgrades it.
func (a SegmentAudit) NeedsRepair() bool {
	return a.Deficit() > 0 || a.Corrupt > 0 || a.Missing > 0 || a.Degraded || a.Outdated
}

// Audit scrubs one segment: every holder in the placement is listed
// (presence) and, when the record is in the current share format and
// the holder can, scrubbed (corruption). No payload data moves.
func (c *Client) Audit(ctx context.Context, name string) (SegmentAudit, error) {
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		return SegmentAudit{}, err
	}
	audit := SegmentAudit{
		Name: name, K: seg.Coding.K, N: seg.Coding.N,
		Degraded:  seg.Degraded,
		Outdated:  seg.Coding.ShareFormat != blockstore.ShareFormat,
		CorruptBy: make(map[string][]int),
	}
	holders, err := c.survey(ctx, seg, true)
	if err != nil {
		return audit, err
	}
	for _, h := range holders {
		audit.Live += len(h.live)
		audit.Missing += len(h.lost)
		audit.Corrupt += len(h.corrupt)
		if len(h.corrupt) > 0 {
			audit.CorruptBy[h.addr] = h.corrupt
		}
	}
	return audit, nil
}

// tokenBucket throttles repair bandwidth with a reservation model:
// take always succeeds and returns how long the caller must wait for
// the reserved tokens to exist, so a repair larger than the burst
// still proceeds — it just pays its debt up front.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate, burst int64, now func() time.Time) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = rate
	}
	return &tokenBucket{
		rate:   float64(rate),
		burst:  float64(burst),
		tokens: float64(burst),
		last:   now(),
		now:    now,
	}
}

// take reserves n tokens and returns the wait before they are funded.
// A nil bucket never throttles.
func (b *tokenBucket) take(n int64) time.Duration {
	if b == nil || n <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	b.tokens += t.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = t
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// orderAudits sorts the repair queue by priority: Degraded segments
// first (they sit closest to the decode threshold), then the largest
// redundancy deficit, then name for a stable order.
func orderAudits(queue []SegmentAudit) {
	sort.Slice(queue, func(i, j int) bool {
		a, b := queue[i], queue[j]
		if a.Degraded != b.Degraded {
			return a.Degraded
		}
		if a.Deficit() != b.Deficit() {
			return a.Deficit() > b.Deficit()
		}
		return a.Name < b.Name
	})
}

// DaemonStats reports one scrub/repair pass.
type DaemonStats struct {
	Scanned   int // segments audited
	Enqueued  int // segments needing repair
	Repaired  int // repairs that succeeded
	Failed    int // repairs (or audits) that errored
	Corrupt   int // corrupt shares found (and deleted)
	Missing   int // missing shares found
	Throttled time.Duration
}

// Daemon is the self-healing control loop: it periodically scrubs
// every segment the metadata service knows, queues the damaged ones
// by redundancy deficit (Degraded first), and drains the queue
// through Client.Repair under the configured bandwidth budget.
type Daemon struct {
	c      *Client
	opts   DaemonOptions
	m      daemonMetrics
	bucket *tokenBucket

	startOnce sync.Once
	stopOnce  sync.Once
	cancel    context.CancelFunc
	wg        sync.WaitGroup
}

// NewDaemon builds a daemon over the client's metadata and backends.
func NewDaemon(c *Client, opts DaemonOptions) *Daemon {
	opts = opts.withDefaults()
	return &Daemon{
		c:      c,
		opts:   opts,
		m:      newDaemonMetrics(opts.Obs),
		bucket: newTokenBucket(opts.RepairRateBytesPerSec, opts.RepairBurstBytes, opts.Now),
	}
}

// RunOnce performs one full scrub-and-repair pass.
func (d *Daemon) RunOnce(ctx context.Context) (DaemonStats, error) {
	var stats DaemonStats
	d.m.passes.Inc()
	tr := d.c.obs.StartTrace("scrub-pass", "")
	var firstErr error
	defer func() { tr.End(firstErr) }()

	// Scrub phase: audit every segment.
	var queue []SegmentAudit
	for _, name := range d.c.meta.ListSegments() {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		audit, err := d.c.Audit(ctx, name)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return stats, cerr
			}
			d.m.scrubErrors.Inc()
			stats.Failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		stats.Scanned++
		stats.Corrupt += audit.Corrupt
		stats.Missing += audit.Missing
		d.m.segments.Inc()
		d.m.corruptShares.Add(int64(audit.Corrupt))
		d.m.missingShares.Add(int64(audit.Missing))
		if audit.NeedsRepair() {
			queue = append(queue, audit)
		}
	}
	orderAudits(queue)
	stats.Enqueued = len(queue)
	d.m.enqueued.Add(int64(len(queue)))
	d.m.queueDepth.Set(float64(len(queue)))
	if tr != nil {
		tr.Stagef("scrub", "scanned=%d queued=%d corrupt=%d missing=%d",
			stats.Scanned, len(queue), stats.Corrupt, stats.Missing)
	}

	// Repair phase: drain by priority under the bandwidth budget.
	for qi, audit := range queue {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		// Turn corruption into absence: a deleted share fails the repair
		// audit's presence check, so Repair regenerates it. Deleting a
		// share the scrub already condemned cannot lose information.
		for addr, indices := range audit.CorruptBy {
			store, ok := d.c.store(addr)
			if !ok {
				continue
			}
			for _, i := range indices {
				if err := store.Delete(ctx, audit.Name, i); err != nil && ctx.Err() != nil {
					return stats, ctx.Err()
				}
			}
		}
		cost := int64(audit.RepairShares()) * d.c.opts.BlockBytes
		if wait := d.bucket.take(cost); wait > 0 {
			stats.Throttled += wait
			d.m.throttleSecond.Observe(wait.Seconds())
			if err := sleepCtx(ctx, wait); err != nil {
				return stats, err
			}
		}
		if _, err := d.c.Repair(ctx, audit.Name); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return stats, cerr
			}
			d.m.repairErrors.Inc()
			stats.Failed++
			if firstErr == nil {
				firstErr = err
			}
		} else {
			d.m.repaired.Inc()
			stats.Repaired++
		}
		d.m.queueDepth.Set(float64(len(queue) - qi - 1))
	}
	if tr != nil {
		tr.Stagef("repair", "repaired=%d failed=%d throttled=%s",
			stats.Repaired, stats.Failed, stats.Throttled)
	}
	return stats, firstErr
}

// Start launches the background loop: one immediate pass, then one
// per ScrubInterval until Stop. Pass errors are absorbed — a scrub
// pass failing (servers down) is exactly when the next pass matters.
func (d *Daemon) Start() {
	d.startOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		d.cancel = cancel
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			// Repair before rebalance: migrations plan against the
			// placement, so letting repair prune dead holders first
			// keeps the rebalancer from planning moves off ghosts.
			pass := func() {
				d.RunOnce(ctx)
				if d.opts.Rebalance && ctx.Err() == nil {
					d.RebalanceOnce(ctx)
				}
			}
			pass()
			ticker := time.NewTicker(d.opts.ScrubInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					pass()
				}
			}
		}()
	})
}

// Stop cancels the loop and waits for an in-flight pass to unwind.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() {
		if d.cancel != nil {
			d.cancel()
		}
		d.wg.Wait()
	})
}

// sleepCtx waits for d, honoring ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
