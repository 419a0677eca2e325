// Package placement is RobuSTore's placement manager: it owns server
// selection and data-movement policy. The paper's §5.3.1 argues every
// object should be striped across diverse, lightly-loaded sites; this
// package turns that from a flat per-write server pick into a policy
// layer with failure domains (zones) as hard constraints, candidates
// weighted by lifecycle state, health, capacity fill, and expected
// performance, and a deterministic degrade ladder so placement never
// reports "no servers" while data is still reachable.
//
// The same selector serves every placement decision: write target
// sets, repair re-placement, and the rebalancer's migration targets
// (rebalance.go).
//
// # Degrade ladder
//
// Candidates are partitioned into strict priority tiers; the first
// non-empty tier is the selection pool (never a mix — topping an
// Active pool up with Draining servers would keep a drain from ever
// finishing):
//
//  1. TierActive:       Active lifecycle state, not Down.
//  2. TierDraining:     Draining, not Down — their disks are alive
//     and their blocks readable; placing on them only delays a drain,
//     which beats failing the write.
//  3. TierDownActive:   Active but failure-detector-Down, re-admitted
//     last: attempting a doomed write produces a clean error and
//     fresh detector evidence, ErrNoCandidates on a cluster that
//     merely flapped produces an outage.
//  4. TierDownDraining: Down and Draining.
//
// Removed servers are tombstones and are never admitted to any tier.
package placement

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"repro/internal/metadata"
)

// Candidate is one server as the selector sees it: registry facts
// (zone, capacity, expected performance, lifecycle state) joined with
// the failure detector's verdict.
type Candidate struct {
	Addr          string
	Zone          string
	State         metadata.ServerState
	ExpectedMBps  float64
	CapacityBytes int64
	UsedBytes     int64 // 0 = unknown fill
	Down          bool  // failure-detector eviction
}

// Tier identifies the degrade-ladder tier a selection drew from; see
// the package comment for the documented priority.
type Tier int

// The ladder tiers, in admission order.
const (
	TierActive Tier = iota
	TierDraining
	TierDownActive
	TierDownDraining
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierActive:
		return "active"
	case TierDraining:
		return "draining"
	case TierDownActive:
		return "down-active"
	case TierDownDraining:
		return "down-draining"
	default:
		return "unknown"
	}
}

// Policy expresses one placement decision's constraints.
type Policy struct {
	// Servers is how many servers to select (0 = every server in the
	// chosen tier).
	Servers int
	// SpreadZones interleaves the selection round-robin across zones
	// so a prefix of the result is as zone-diverse as possible.
	SpreadZones bool
	// PreferFast orders candidates by ExpectedMBps (the §5.3.1
	// "lightly-loaded disks" heuristic) instead of weighted sampling.
	PreferFast bool
	// MaxZoneShare caps the fraction of the selection any single zone
	// may contribute (0 disables the cap). The write path enforces the
	// same fraction on committed shares; capping the server set keeps
	// the two consistent.
	MaxZoneShare float64
	// Seed randomizes ties deterministically (same seed, same
	// selection).
	Seed int64
}

// Selection is a placement decision.
type Selection struct {
	Servers []string
	// Tier is the degrade-ladder tier the pool was drawn from;
	// anything past TierActive means the selector fell back.
	Tier Tier
	// ZoneOf maps each selected server to its zone.
	ZoneOf map[string]string
}

// ErrNoCandidates reports a selection with no admissible server in
// any tier: nothing is registered, or everything is Removed.
var ErrNoCandidates = errors.New("placement: no admissible servers")

// Select picks a server subset per the policy. See the package
// comment for the tier ladder; within the chosen tier candidates are
// ordered by seeded weighted sampling (weight = capacity-fill
// headroom × expected-performance factor), or strictly by
// ExpectedMBps under PreferFast, then interleaved across zones under
// SpreadZones and capped per zone by MaxZoneShare.
func Select(cands []Candidate, p Policy) (Selection, error) {
	pool, tier := ladderPool(cands)
	if len(pool) == 0 {
		return Selection{}, ErrNoCandidates
	}
	ordered := orderPool(pool, p)
	if p.SpreadZones {
		ordered = interleaveZones(ordered)
	}
	n := p.Servers
	if n <= 0 || n > len(ordered) {
		n = len(ordered)
	}
	sel := Selection{Tier: tier, ZoneOf: make(map[string]string, n)}
	zoneCap := len(ordered) // unlimited
	if p.MaxZoneShare > 0 {
		zoneCap = int(math.Ceil(p.MaxZoneShare * float64(n)))
		if zoneCap < 1 {
			zoneCap = 1
		}
	}
	perZone := map[string]int{}
	for _, c := range ordered {
		if len(sel.Servers) == n {
			break
		}
		if perZone[c.Zone] >= zoneCap {
			continue // this zone already holds its share of the selection
		}
		perZone[c.Zone]++
		sel.Servers = append(sel.Servers, c.Addr)
		sel.ZoneOf[c.Addr] = c.Zone
	}
	if len(sel.Servers) == 0 {
		// A zone cap below 1 server per zone cannot happen (floor 1),
		// so an empty result here means the pool itself was empty.
		return Selection{}, ErrNoCandidates
	}
	return sel, nil
}

// ladderPool returns the first non-empty tier and its label.
func ladderPool(cands []Candidate) ([]Candidate, Tier) {
	var tiers [4][]Candidate
	for _, c := range cands {
		switch st := c.State.Normalize(); {
		case st == metadata.ServerRemoved:
			// Tombstone: never admitted.
		case st == metadata.ServerActive && !c.Down:
			tiers[TierActive] = append(tiers[TierActive], c)
		case st == metadata.ServerDraining && !c.Down:
			tiers[TierDraining] = append(tiers[TierDraining], c)
		case st == metadata.ServerActive:
			tiers[TierDownActive] = append(tiers[TierDownActive], c)
		case st == metadata.ServerDraining:
			tiers[TierDownDraining] = append(tiers[TierDownDraining], c)
		}
	}
	for t, pool := range tiers {
		if len(pool) > 0 {
			return pool, Tier(t)
		}
	}
	return nil, TierActive
}

// weight scores one candidate: capacity headroom (a nearly full
// server is nearly never picked) times a mild expected-performance
// factor. Unknown capacity or performance contribute neutrally.
func weight(c Candidate) float64 {
	w := 1.0
	if c.CapacityBytes > 0 {
		headroom := 1 - float64(c.UsedBytes)/float64(c.CapacityBytes)
		if headroom < 0.01 {
			headroom = 0.01 // full servers stay admissible, barely
		}
		w *= headroom
	}
	if c.ExpectedMBps > 0 {
		w *= 1 + c.ExpectedMBps/100
	}
	return w
}

// orderPool orders the tier pool: deterministic weighted sampling
// without replacement (exponential-key method) under the policy seed,
// or a strict ExpectedMBps sort under PreferFast (ties broken by the
// sampled order).
func orderPool(pool []Candidate, p Policy) []Candidate {
	out := append([]Candidate(nil), pool...)
	// Canonical order first so the seeded draw is independent of
	// caller ordering.
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	rng := rand.New(rand.NewSource(p.Seed + 0x5ee1ec7))
	keys := make(map[string]float64, len(out))
	for _, c := range out {
		u := rng.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		// Smaller key = earlier pick; dividing the exponential draw by
		// the weight is the standard one-pass weighted sample.
		keys[c.Addr] = -math.Log(u) / weight(c)
	}
	sort.SliceStable(out, func(i, j int) bool { return keys[out[i].Addr] < keys[out[j].Addr] })
	if p.PreferFast {
		sort.SliceStable(out, func(i, j int) bool { return out[i].ExpectedMBps > out[j].ExpectedMBps })
	}
	return out
}

// interleaveZones round-robins the ordered pool across zones
// (first-appearance zone order, preserving intra-zone order), so any
// prefix of the result is as zone-diverse as the pool allows.
func interleaveZones(pool []Candidate) []Candidate {
	zones := map[string][]Candidate{}
	var zoneOrder []string
	for _, c := range pool {
		if _, ok := zones[c.Zone]; !ok {
			zoneOrder = append(zoneOrder, c.Zone)
		}
		zones[c.Zone] = append(zones[c.Zone], c)
	}
	out := make([]Candidate, 0, len(pool))
	for len(out) < len(pool) {
		for _, z := range zoneOrder {
			if len(zones[z]) == 0 {
				continue
			}
			out = append(out, zones[z][0])
			zones[z] = zones[z][1:]
		}
	}
	return out
}

// Writable reports whether a candidate may take new blocks without a
// ladder fallback: Active and not Down.
func Writable(c Candidate) bool {
	return c.State.Normalize() == metadata.ServerActive && !c.Down
}

// ZoneCapShares converts a share fraction into the absolute per-zone
// share cap for a segment committing total shares: ceil(frac·total),
// floored at 1 so a single-zone cluster still commits.
func ZoneCapShares(frac float64, total int) int {
	if frac <= 0 {
		return total
	}
	cap := int(math.Ceil(frac * float64(total)))
	if cap < 1 {
		cap = 1
	}
	return cap
}
