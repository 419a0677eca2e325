package robust

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/ltcode"
	"repro/internal/metadata"
	"repro/internal/obs"
)

// gf2Rank returns the GF(2) rank of the given coded blocks' rows over
// K <= 64 originals — computed here, independently of the decoder.
func gf2Rank(g *ltcode.Graph, idx []int) int {
	var basis [64]uint64
	rank := 0
	for _, i := range idx {
		var row uint64
		for _, j := range g.Neighbors[i] {
			row |= 1 << uint(j)
		}
		for b := 63; b >= 0 && row != 0; b-- {
			if row&(1<<uint(b)) == 0 {
				continue
			}
			if basis[b] == 0 {
				basis[b] = row
				rank++
				break
			}
			row ^= basis[b]
		}
	}
	return rank
}

// keepOnly deletes every placed share of name outside keep.
func keepOnly(t *testing.T, c *Client, name string, keep []int) {
	t.Helper()
	seg, err := c.meta.LookupSegment(name)
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[int]bool, len(keep))
	for _, i := range keep {
		kept[i] = true
	}
	for addr, idx := range seg.Placement {
		st, ok := c.store(addr)
		if !ok {
			t.Fatalf("%s not attached", addr)
		}
		for _, i := range idx {
			if !kept[i] {
				if err := st.Delete(context.Background(), name, i); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestHealthAgreesWithReadPastPeeling(t *testing.T) {
	// Health must report Decodable exactly when Read decodes: surviving
	// shares of full rank that peeling alone cannot finish decode, and
	// shares of rank below K do not. The survivors are picked by hand
	// from the segment's own graph, with an independent rank check.
	reg := obs.NewRegistry()
	c, _ := newTestClient(t, 4, Options{BlockBytes: 1 << 10, Obs: reg})
	ctx := context.Background()
	for _, fullRank := range []bool{true, false} {
		name := fmt.Sprintf("seg-full-rank-%v", fullRank)
		data := randData(16<<10, 31) // K=16
		if _, err := c.Write(ctx, name, data, nil); err != nil {
			t.Fatal(err)
		}
		seg, err := c.meta.LookupSegment(name)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := c.segmentCodec(seg)
		if err != nil {
			t.Fatal(err)
		}
		g := sc.chunks[0].graph
		var placed []int
		for _, idx := range seg.Placement {
			placed = append(placed, idx...)
		}
		// Walk seeded orders of the placed shares to the first prefix of
		// full rank that peeling leaves unfinished; one share fewer has
		// rank K-1.
		var keep []int
		for seed := int64(1); keep == nil && seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(len(placed), func(i, j int) { placed[i], placed[j] = placed[j], placed[i] })
			for n := g.K; n <= len(placed); n++ {
				if gf2Rank(g, placed[:n]) < g.K {
					continue
				}
				peel := ltcode.NewSymbolicDecoder(g)
				for _, i := range placed[:n] {
					peel.Add(i)
				}
				if !peel.Complete() {
					keep = append([]int(nil), placed[:n]...)
				}
				break
			}
		}
		if keep == nil {
			t.Fatal("no order of the placed shares has a full-rank prefix that does not peel")
		}
		if !fullRank {
			keep = keep[:len(keep)-1]
			if r := gf2Rank(g, keep); r != g.K-1 {
				t.Fatalf("survivors have rank %d, want %d", r, g.K-1)
			}
		}
		keepOnly(t, c, name, keep)

		rep, err := c.Health(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Reachable != len(keep) || rep.Decodable != fullRank {
			t.Fatalf("full rank %v: Health reachable=%d decodable=%v, want %d and %v",
				fullRank, rep.Reachable, rep.Decodable, len(keep), fullRank)
		}
		got, stats, err := c.Read(ctx, name)
		if !fullRank {
			if !errors.Is(err, ErrUnrecoverable) {
				t.Fatalf("Read of rank-deficient survivors = %v, want ErrUnrecoverable", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Read of full-rank survivors: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("Read of full-rank survivors returned wrong bytes")
		}
		// Peeling cannot finish any subset of survivors it cannot finish
		// whole, so the read must have inactivated.
		if stats.Inactivated == 0 || stats.Received > len(keep) {
			t.Fatalf("stats inactivated=%d received=%d, want > 0 and <= %d", stats.Inactivated, stats.Received, len(keep))
		}
		if got := reg.Snapshot().Counters["robust_read_inactivations_total"]; got != int64(stats.Inactivated) {
			t.Fatalf("robust_read_inactivations_total = %d, want %d", got, stats.Inactivated)
		}
		want := fmt.Sprintf("inactivated=%d", stats.Inactivated)
		found := false
		for _, tr := range reg.Traces(0) {
			for _, st := range tr.Stages {
				found = found || (tr.Op == "read" && tr.Key == name && st.Name == "decode-complete" && st.Detail == want)
			}
		}
		if !found {
			t.Fatalf("no read trace of %s records decode-complete %q", name, want)
		}
	}
}

// parentSegment is one segment in testdata/parent_segments.json: its
// metadata record, the seed of its randData payload, and every share
// the writing client stored, as the previous decoder's release wrote
// them (lt-spike3, 64-byte blocks, one whole segment and one chunked).
type parentSegment struct {
	Record   metadata.Segment `json:"record"`
	DataSeed int64            `json:"data_seed"`
	Shares   []struct {
		Addr  string `json:"addr"`
		Index int    `json:"index"`
		Data  []byte `json:"data"`
	} `json:"shares"`
}

func TestSegmentsFromPeelOnlyReleaseRead(t *testing.T) {
	// Segments written before reads finished by inactivation still read
	// once their shares are upgraded: the graph and placement they
	// recorded are unchanged, and the RSC1 shares they hold refuse reads
	// until a repair reseals them in the current format.
	raw, err := os.ReadFile("testdata/parent_segments.json")
	if err != nil {
		t.Fatal(err)
	}
	var segs []parentSegment
	if err := json.Unmarshal(raw, &segs); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("fixture holds %d segments, want 2", len(segs))
	}
	c, stores := newTestClient(t, 4, Options{BlockBytes: 64})
	ctx := context.Background()
	for _, ps := range segs {
		for _, sh := range ps.Shares {
			var i int
			if _, err := fmt.Sscanf(sh.Addr, "mem-%02d", &i); err != nil {
				t.Fatal(err)
			}
			if err := stores[i].Put(ctx, ps.Record.Name, sh.Index, sh.Data); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.meta.CreateSegment(ps.Record); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Read(ctx, ps.Record.Name); !errors.Is(err, ErrShareFormat) {
			t.Fatalf("%s: read before the upgrade = %v, want ErrShareFormat", ps.Record.Name, err)
		}
		if rs, err := c.Repair(ctx, ps.Record.Name); err != nil || rs.Regenerated != 0 {
			t.Fatalf("%s: upgrade %+v, %v", ps.Record.Name, rs, err)
		}
		got, _, err := c.Read(ctx, ps.Record.Name)
		if err != nil {
			t.Fatalf("%s: %v", ps.Record.Name, err)
		}
		if !bytes.Equal(got, randData(int(ps.Record.Size), ps.DataSeed)) {
			t.Fatalf("%s read back wrong data", ps.Record.Name)
		}
		rep, err := c.Health(ctx, ps.Record.Name)
		if err != nil || !rep.Decodable || rep.Missing != 0 {
			t.Fatalf("%s: Health %+v, %v", ps.Record.Name, rep, err)
		}
	}
}
