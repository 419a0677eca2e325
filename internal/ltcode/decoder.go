package ltcode

import (
	"fmt"
)

// Decoder is an incremental LT decoder: peeling (belief propagation),
// finished by inactivation. Feed coded blocks with Add or AddData as
// they arrive; peeling runs on every block with the lazy-XOR strategy
// of §5.2.3 — XOR work is performed only when a coded block actually
// yields an original block, so redundant late-arriving blocks cost no
// memory traffic. Peeling alone stalls well before the received blocks
// stop determining the data at storage-sized K; Solve finishes a
// stalled decode by inactivation (solve.go) and completes exactly when
// the received blocks have GF(2) rank K. Complete reports when all K
// originals are recovered, by either route.
//
// A Decoder built with NewDecoder carries data; one built with
// NewSymbolicDecoder tracks only graph state (used by the simulator to
// determine reception overhead and XOR counts without moving bytes).
// The simulator, the erasure-code framework and the Raptor layer call
// Add/AddData only, so they keep the paper's peel-only completion.
//
// Decoder is not safe for concurrent use; wrap with a mutex or confine
// to one goroutine.
type Decoder struct {
	g        *Graph
	symbolic bool

	decoded      []bool
	decodedCount int
	data         [][]byte // decoded originals; nil entries until decoded
	coded        [][]byte // received coded payloads (data mode)
	blockLen     int      // payload length, set by the first AddData
	received     []bool
	nReceived    int

	// pending peeling state
	remaining []int32 // per received coded block: # undecoded neighbors
	waiters   [][]int32
	ripple    []int32 // coded blocks at remaining==1

	xorOps        int64
	usedBlocks    int
	edgesReceived int64

	// requiredPrefix, when positive, marks only the first
	// requiredPrefix originals as the decode target (used by Raptor
	// codes, whose LT layer runs over input+pre-code intermediates but
	// only the inputs must be recovered).
	requiredPrefix  int
	requiredDecoded int

	sv          solver // Solve's reusable working state, set up on first use
	solveAt     int    // Solve does no work before this many blocks are received
	inactivated int    // originals the successful Solve set aside
}

// NewDecoder returns a data-carrying decoder for the graph.
func NewDecoder(g *Graph) *Decoder {
	d := newDecoder(g)
	d.data = make([][]byte, g.K)
	d.coded = make([][]byte, g.N)
	return d
}

// NewSymbolicDecoder returns a decoder that tracks decodability only.
func NewSymbolicDecoder(g *Graph) *Decoder {
	d := newDecoder(g)
	d.symbolic = true
	return d
}

func newDecoder(g *Graph) *Decoder {
	d := &Decoder{
		g:         g,
		decoded:   make([]bool, g.K),
		received:  make([]bool, g.N),
		remaining: make([]int32, g.N),
		waiters:   make([][]int32, g.K),
	}
	// Pre-size each original's waiter list to its graph degree, carved
	// from one arena: original j gains at most deg(j) waiters over the
	// decoder's lifetime, so the appends in add() never grow a list and
	// the peeling path allocates nothing beyond the ripple stack.
	deg := make([]int32, g.K)
	total := 0
	for _, nb := range g.Neighbors {
		total += len(nb)
		for _, j := range nb {
			deg[j]++
		}
	}
	arena := make([]int32, total)
	off := 0
	for j := 0; j < g.K; j++ {
		end := off + int(deg[j])
		d.waiters[j] = arena[off:off:end]
		off = end
	}
	return d
}

// AddData feeds coded block idx with its payload, returning the number
// of original blocks newly decoded as a consequence. Duplicate
// deliveries are ignored. The first payload sets the decoder's block
// length; a later payload of another length is refused with an error.
func (d *Decoder) AddData(idx int, payload []byte) (int, error) {
	if d.symbolic {
		return 0, fmt.Errorf("ltcode: AddData on symbolic decoder")
	}
	if idx < 0 || idx >= d.g.N {
		return 0, fmt.Errorf("ltcode: coded block index %d out of range [0,%d)", idx, d.g.N)
	}
	if d.received[idx] {
		return 0, nil
	}
	if d.nReceived == 0 {
		d.blockLen = len(payload)
	} else if len(payload) != d.blockLen {
		return 0, fmt.Errorf("ltcode: coded block %d is %d bytes, want %d", idx, len(payload), d.blockLen)
	}
	d.coded[idx] = payload
	return d.add(idx), nil
}

// Add feeds coded block idx in symbolic mode, returning true if any
// original block was newly decoded.
func (d *Decoder) Add(idx int) bool {
	if idx < 0 || idx >= d.g.N || d.received[idx] {
		return false
	}
	return d.add(idx) > 0
}

func (d *Decoder) add(idx int) int {
	d.received[idx] = true
	d.nReceived++
	d.edgesReceived += int64(len(d.g.Neighbors[idx]))
	if d.decodedCount == d.g.K {
		return 0
	}
	var rem int32
	for _, j := range d.g.Neighbors[idx] {
		if !d.decoded[j] {
			rem++
			d.waiters[j] = append(d.waiters[j], int32(idx))
		}
	}
	d.remaining[idx] = rem
	if rem != 1 {
		return 0 // rem==0: redundant; rem>1: wait
	}
	before := d.decodedCount
	d.ripple = append(d.ripple, int32(idx))
	d.processRipple()
	return d.decodedCount - before
}

func (d *Decoder) processRipple() {
	for len(d.ripple) > 0 && d.decodedCount < d.g.K {
		ci := d.ripple[len(d.ripple)-1]
		d.ripple = d.ripple[:len(d.ripple)-1]
		if d.remaining[ci] != 1 {
			continue // stale ripple entry; neighbor decoded elsewhere
		}
		// Find the single undecoded neighbor.
		var target int32 = -1
		for _, j := range d.g.Neighbors[ci] {
			if !d.decoded[j] {
				target = j
				break
			}
		}
		if target < 0 {
			d.remaining[ci] = 0
			continue
		}
		d.decodeOriginal(target, ci)
	}
}

// decodeOriginal recovers original block `orig` using received coded
// block `via` whose other neighbors are all decoded.
func (d *Decoder) decodeOriginal(orig, via int32) {
	nb := d.g.Neighbors[via]
	if !d.symbolic {
		sum := xorSum{out: make([]byte, len(d.coded[via])), first: d.coded[via]}
		for _, j := range nb {
			if j != orig {
				sum.add(d.data[j])
			}
		}
		d.data[orig] = sum.result()
	}
	d.xorOps += int64(len(nb) - 1)
	d.markSolved(orig, via)
	// Notify waiters.
	for _, ci := range d.waiters[orig] {
		if d.remaining[ci] <= 0 {
			continue
		}
		d.remaining[ci]--
		if d.remaining[ci] == 1 {
			d.ripple = append(d.ripple, ci)
		}
	}
	d.waiters[orig] = nil
}

// markSolved records original orig as recovered through received coded
// block via, and releases via's payload.
func (d *Decoder) markSolved(orig, via int32) {
	d.usedBlocks++
	d.remaining[via] = 0
	d.decoded[orig] = true
	d.decodedCount++
	if d.requiredPrefix > 0 && int(orig) < d.requiredPrefix {
		d.requiredDecoded++
	}
	if !d.symbolic {
		d.coded[via] = nil // release payload; no longer needed
	}
}

// Complete reports whether all K original blocks are decoded.
func (d *Decoder) Complete() bool { return d.decodedCount == d.g.K }

// SetRequiredPrefix restricts the decode target to the first n
// originals: RequiredComplete reports true once they are all
// recovered, even if later originals (e.g. pre-code symbols) are not.
// Must be called before any blocks are added.
func (d *Decoder) SetRequiredPrefix(n int) {
	if d.nReceived > 0 {
		panic("ltcode: SetRequiredPrefix after blocks were added")
	}
	if n < 0 || n > d.g.K {
		panic("ltcode: required prefix out of range")
	}
	d.requiredPrefix = n
	d.requiredDecoded = 0
}

// RequiredComplete reports whether the required prefix (or everything,
// if no prefix was set) is decoded.
func (d *Decoder) RequiredComplete() bool {
	if d.requiredPrefix > 0 {
		return d.requiredDecoded == d.requiredPrefix
	}
	return d.Complete()
}

// DecodedCount returns how many original blocks are recovered so far.
func (d *Decoder) DecodedCount() int { return d.decodedCount }

// Received returns how many distinct coded blocks have been fed in.
func (d *Decoder) Received() int { return d.nReceived }

// ReceptionOverhead returns Received()/K - 1; meaningful once Complete.
func (d *Decoder) ReceptionOverhead() float64 {
	return float64(d.nReceived)/float64(d.g.K) - 1
}

// XorOps returns the number of block-XOR operations performed — the
// "edges used" metric of Fig 5-2. With lazy XOR this counts only the
// edges of coded blocks that actually produced an original block.
func (d *Decoder) XorOps() int64 { return d.xorOps }

// UsedBlocks returns how many received coded blocks contributed a
// decoded original.
func (d *Decoder) UsedBlocks() int { return d.usedBlocks }

// Inactivated returns how many originals Solve set aside to finish
// the decode: 0 while incomplete or when peeling alone finished it.
func (d *Decoder) Inactivated() int { return d.inactivated }

// EdgesReceived returns the total edge count of all received coded
// blocks. A greedy decoder (the original LT algorithm, which
// substitutes every decoded original into every pending coded block
// immediately) performs roughly one block-XOR per received edge, so
// this is the greedy-XOR cost that the lazy strategy (XorOps) avoids.
func (d *Decoder) EdgesReceived() int64 { return d.edgesReceived }

// Data returns the decoded original blocks. It errors unless Complete.
func (d *Decoder) Data() ([][]byte, error) {
	if d.symbolic {
		return nil, fmt.Errorf("ltcode: symbolic decoder has no data")
	}
	if !d.Complete() {
		return nil, fmt.Errorf("ltcode: decode incomplete (%d/%d)", d.decodedCount, d.g.K)
	}
	return d.data, nil
}

// IsDecoded reports whether original block j has been recovered.
func (d *Decoder) IsDecoded(j int) bool { return d.decoded[j] }

// DataBlock returns one decoded original block without requiring full
// completion (used by codes that only need a prefix of the originals).
func (d *Decoder) DataBlock(j int) ([]byte, error) {
	if d.symbolic {
		return nil, fmt.Errorf("ltcode: symbolic decoder has no data")
	}
	if j < 0 || j >= d.g.K {
		return nil, fmt.Errorf("ltcode: original index %d out of range", j)
	}
	if !d.decoded[j] {
		return nil, fmt.Errorf("ltcode: original %d not decoded", j)
	}
	return d.data[j], nil
}
