package robust

import "repro/internal/obs"

// clientMetrics holds the client's metric handles, resolved once at
// construction. With a nil registry every handle is nil and every
// update is a no-op nil check — the disabled client allocates nothing
// extra on the access paths.
//
// Metric names (DESIGN.md §7):
//
//	robust_reads_total / robust_read_errors_total
//	robust_read_blocks_total       blocks delivered before completion
//	robust_read_failed_gets_total  failed block GETs tolerated
//	robust_read_bytes_total        decoded payload bytes returned
//	robust_read_latency_seconds    whole-access latency histogram
//	robust_writes_total / robust_write_errors_total
//	robust_write_blocks_total      coded blocks committed (incl. overshoot)
//	robust_write_failed_puts_total failed block PUTs retried elsewhere
//	robust_write_speculative_total one-share probes sent past the need because a run was late
//	robust_write_bytes_total       coded bytes shipped to servers
//	robust_write_latency_seconds
//	robust_write_first_commit_seconds latency to the first committed block
//	robust_read_corrupt_shares_total  shares rejected by CRC verification
//	robust_read_rejected_shares_total shares the decoder refused (bad index)
//	robust_read_inactivations_total   originals set aside to finish decodes by inactivation
//	robust_read_late_shares_total     shares that arrived after their chunk decoded or the read was canceled
//	robust_write_degraded_total       writes committed in degraded mode
//	robust_repairs_total / robust_repair_errors_total
//	robust_repair_regenerated_total / robust_repair_pruned_total
//	robust_repair_promoted_total      degraded segments restored to full N
//	robust_repair_latency_seconds
//	robust_health_checks_total
//	placement_selections_total        placement decisions served
//	placement_fallback_total          selections served from a degraded tier
type clientMetrics struct {
	reads              *obs.Counter
	readErrors         *obs.Counter
	readBlocks         *obs.Counter
	readFailedGets     *obs.Counter
	readBytes          *obs.Counter
	readLatency        *obs.Histogram
	readCorruptShares  *obs.Counter
	readRejectedShares *obs.Counter
	readInactivations  *obs.Counter
	readLateShares     *obs.Counter

	writes           *obs.Counter
	writeErrors      *obs.Counter
	writeBlocks      *obs.Counter
	writeFailedPuts  *obs.Counter
	writeSpeculative *obs.Counter
	writeBytes       *obs.Counter
	writeLatency     *obs.Histogram
	writeFirstCommit *obs.Histogram
	writeDegraded    *obs.Counter

	repairs           *obs.Counter
	repairErrors      *obs.Counter
	repairRegenerated *obs.Counter
	repairPruned      *obs.Counter
	repairPromoted    *obs.Counter
	repairLatency     *obs.Histogram

	healthChecks *obs.Counter

	placementSelections *obs.Counter
	placementFallbacks  *obs.Counter
}

// newClientMetrics resolves every handle against r; a nil r yields
// all-nil (no-op) handles.
func newClientMetrics(r *obs.Registry) clientMetrics {
	return clientMetrics{
		reads:              r.Counter("robust_reads_total"),
		readErrors:         r.Counter("robust_read_errors_total"),
		readBlocks:         r.Counter("robust_read_blocks_total"),
		readFailedGets:     r.Counter("robust_read_failed_gets_total"),
		readBytes:          r.Counter("robust_read_bytes_total"),
		readLatency:        r.Histogram("robust_read_latency_seconds"),
		readCorruptShares:  r.Counter("robust_read_corrupt_shares_total"),
		readRejectedShares: r.Counter("robust_read_rejected_shares_total"),
		readInactivations:  r.Counter("robust_read_inactivations_total"),
		readLateShares:     r.Counter("robust_read_late_shares_total"),

		writes:           r.Counter("robust_writes_total"),
		writeErrors:      r.Counter("robust_write_errors_total"),
		writeBlocks:      r.Counter("robust_write_blocks_total"),
		writeFailedPuts:  r.Counter("robust_write_failed_puts_total"),
		writeSpeculative: r.Counter("robust_write_speculative_total"),
		writeBytes:       r.Counter("robust_write_bytes_total"),
		writeLatency:     r.Histogram("robust_write_latency_seconds"),
		writeFirstCommit: r.Histogram("robust_write_first_commit_seconds"),
		writeDegraded:    r.Counter("robust_write_degraded_total"),

		repairs:           r.Counter("robust_repairs_total"),
		repairErrors:      r.Counter("robust_repair_errors_total"),
		repairRegenerated: r.Counter("robust_repair_regenerated_total"),
		repairPruned:      r.Counter("robust_repair_pruned_total"),
		repairPromoted:    r.Counter("robust_repair_promoted_total"),
		repairLatency:     r.Histogram("robust_repair_latency_seconds"),

		healthChecks: r.Counter("robust_health_checks_total"),

		placementSelections: r.Counter("placement_selections_total"),
		placementFallbacks:  r.Counter("placement_fallback_total"),
	}
}
