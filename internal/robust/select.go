package robust

import (
	"context"
	"errors"

	"repro/internal/placement"
)

// QoS expresses the Appendix B open-options that matter to placement:
// how many servers to spread across and whether to force zone
// diversity (§5.3.1: "it is important to have each file striped across
// multiple distributed sites" / "a mixed selection ... is
// recommended").
type QoS struct {
	// Servers is the number of storage servers to use (0 = all
	// attached). §5.3.1: at least expected-bandwidth / per-server
	// bandwidth.
	Servers int
	// SpreadZones, when true, selects round-robin across metadata
	// zones so no single site failure can take out a large share.
	SpreadZones bool
	// PreferFast, when true, favors servers with higher ExpectedMBps
	// in the metadata registry (the §5.3.1 "lightly-loaded disks"
	// heuristic, using the registry's performance hints).
	PreferFast bool
	// Seed randomizes ties deterministically (0 = unseeded default).
	Seed int64
}

// SelectServers picks a server subset per the QoS policy through the
// placement manager: registry zone/capacity/performance hints weight
// the draw, lifecycle states and the failure detector gate admission,
// and the degrade ladder guarantees a non-empty result whenever any
// non-Removed server is attached — health exclusion alone never
// yields ErrNoServers (Down servers are re-admitted last; see
// internal/placement). Attached servers missing from the registry are
// still eligible (unknown zone, zero expected bandwidth). The client's
// Options.MaxZoneShare caps the fraction of the selection any single
// zone may contribute, the same cap the write path enforces on
// committed shares.
func (c *Client) SelectServers(q QoS) ([]string, error) {
	sel, err := c.placementSelect(placement.Policy{
		Servers:      q.Servers,
		SpreadZones:  q.SpreadZones,
		PreferFast:   q.PreferFast,
		MaxZoneShare: c.opts.MaxZoneShare,
		Seed:         q.Seed,
	})
	if err != nil {
		if errors.Is(err, placement.ErrNoCandidates) {
			return nil, ErrNoServers
		}
		return nil, err
	}
	return sel.Servers, nil
}

// WriteWithQoS is Write with placement driven by a QoS policy instead
// of an explicit server list (the Appendix B open-with-QoS path).
func (c *Client) WriteWithQoS(ctx context.Context, name string, data []byte, q QoS) (WriteStats, error) {
	servers, err := c.SelectServers(q)
	if err != nil {
		return WriteStats{}, err
	}
	return c.Write(ctx, name, data, servers)
}
