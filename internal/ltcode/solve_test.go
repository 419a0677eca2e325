package ltcode

import (
	"bytes"
	"math/rand"
	"testing"
)

// rankPrefix returns how many blocks of order it takes for their rows
// to reach GF(2) rank K (K <= 64: one word per row), or -1 if all of
// them fall short. It is the reference Solve is checked against, and
// shares no code with the decoder.
func rankPrefix(g *Graph, order []int) int {
	var basis [64]uint64 // basis[b]: a reduced row whose highest set bit is b
	rank := 0
	for i, idx := range order {
		var row uint64
		for _, j := range g.Neighbors[idx] {
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
		if rank == g.K {
			return i + 1
		}
	}
	return -1
}

// spike3Graph builds the client's graph shape: "lt-spike3" at K, with
// GraphN = 4K + 32 (N = 4K plus four slack shares on eight servers).
func spike3Graph(t testing.TB, k int, rng *rand.Rand) *Graph {
	t.Helper()
	g, err := BuildGraph(Params{K: k, C: 1, Delta: 0.1, MinSpike: 3}, 4*k+32, rng, DefaultGraphOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// feed adds blocks of order to d until it completes, calling Solve
// after each one when solve is set, and returns how many it took (-1 if
// it never completed).
func feed(d *Decoder, order []int, coded [][]byte, solve bool) int {
	for i, idx := range order {
		if coded != nil {
			if _, err := d.AddData(idx, coded[idx]); err != nil {
				panic(err)
			}
		} else {
			d.Add(idx)
		}
		if !d.Complete() && solve {
			d.Solve()
		}
		if d.Complete() {
			return i + 1
		}
	}
	return -1
}

func TestSolveCompletesAtFullRank(t *testing.T) {
	// Over seeded graphs and arrival orders, a decoder that calls Solve
	// after every block completes at exactly the shortest prefix of full
	// GF(2) rank; the symbolic decoder completes at the same index with
	// the same XOR count; the decoded blocks are the originals; and no
	// received payload is modified.
	for _, k := range []int{16, 32, 64} {
		rng := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 300; trial++ {
			g := spike3Graph(t, k, rng)
			orig := make([][]byte, k)
			for i := range orig {
				orig[i] = make([]byte, 24)
				rng.Read(orig[i])
			}
			coded, err := g.Encode(orig)
			if err != nil {
				t.Fatal(err)
			}
			pristine := make([][]byte, len(coded))
			for i, c := range coded {
				pristine[i] = append([]byte(nil), c...)
			}
			order := rng.Perm(g.N)
			want := rankPrefix(g, order)
			dat, sym := NewDecoder(g), NewSymbolicDecoder(g)
			got := feed(dat, order, coded, true)
			if got != want {
				t.Fatalf("K=%d trial %d: data decoder completed after %d blocks, full rank at %d", k, trial, got, want)
			}
			if gs := feed(sym, order, nil, true); gs != got {
				t.Fatalf("K=%d trial %d: symbolic decoder completed after %d blocks, data decoder %d", k, trial, gs, got)
			}
			if sym.XorOps() != dat.XorOps() || sym.UsedBlocks() != dat.UsedBlocks() || sym.Inactivated() != dat.Inactivated() {
				t.Fatalf("K=%d trial %d: symbolic xors/used/inactivated %d/%d/%d, data %d/%d/%d", k, trial,
					sym.XorOps(), sym.UsedBlocks(), sym.Inactivated(), dat.XorOps(), dat.UsedBlocks(), dat.Inactivated())
			}
			blocks, err := dat.Data()
			if err != nil {
				t.Fatal(err)
			}
			for i := range orig {
				if !bytes.Equal(blocks[i], orig[i]) {
					t.Fatalf("K=%d trial %d: original %d decoded wrong", k, trial, i)
				}
			}
			for i := range coded {
				if !bytes.Equal(coded[i], pristine[i]) {
					t.Fatalf("K=%d trial %d: received payload %d was modified", k, trial, i)
				}
			}
		}
	}
}

func TestSolveOverheadAndCost(t *testing.T) {
	// Pins the gain on the client's graphs: the mean reception overhead
	// of peeling alone against peeling finished by inactivation, and the
	// decode XORs per original the finish costs. Shares arrive in a
	// random order over the N = 4K shares a fault-free write commits.
	cases := []struct {
		k                  int
		peelMin, peelMax   float64 // peeling alone measured ~0.47 (K=16), ~0.41 (K=32)
		solveMax, xorRatio float64
	}{
		{16, 0.42, 0.52, 0.25, 0},
		{32, 0.34, 0.44, 0.25, 1.5},
	}
	const trials = 1000
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(int64(100 + tc.k)))
		var peelOvh, solveOvh, peelXors, solveXors float64
		for trial := 0; trial < trials; trial++ {
			g := spike3Graph(t, tc.k, rng)
			order := rng.Perm(4 * tc.k)
			peel, solve := NewSymbolicDecoder(g), NewSymbolicDecoder(g)
			if feed(peel, order, nil, false) < 0 || feed(solve, order, nil, true) < 0 {
				t.Fatalf("K=%d trial %d: a decodable graph did not decode", tc.k, trial)
			}
			peelOvh += peel.ReceptionOverhead()
			solveOvh += solve.ReceptionOverhead()
			peelXors += float64(peel.XorOps())
			solveXors += float64(solve.XorOps())
		}
		peelOvh /= trials
		solveOvh /= trials
		ratio := solveXors / peelXors
		t.Logf("K=%d: mean overhead peeling %.3f, with Solve %.3f; XORs per block %.2f → %.2f (×%.2f)",
			tc.k, peelOvh, solveOvh, peelXors/trials/float64(tc.k), solveXors/trials/float64(tc.k), ratio)
		if peelOvh < tc.peelMin || peelOvh > tc.peelMax {
			t.Errorf("K=%d: peeling overhead %.3f outside [%.2f, %.2f]", tc.k, peelOvh, tc.peelMin, tc.peelMax)
		}
		if solveOvh > tc.solveMax {
			t.Errorf("K=%d: overhead with Solve %.3f, want <= %.2f", tc.k, solveOvh, tc.solveMax)
		}
		if tc.xorRatio > 0 && ratio > tc.xorRatio {
			t.Errorf("K=%d: Solve costs %.2f× peeling's XORs, want <= %.1f×", tc.k, ratio, tc.xorRatio)
		}
	}
}

// benchClientShape decodes the client's "lt-spike3" graphs (GraphN =
// 4K + 32, shares in a random order over the N = 4K a write commits)
// with peeling alone or with Solve after every share. ns/op and MB/s
// time the data decode over a few graphs; overhead (shares received /
// K - 1) and xors/block (block XORs per original) are means over 500
// symbolic decodes of further graphs.
func benchClientShape(b *testing.B, k, blockBytes int, solve bool) {
	rng := rand.New(rand.NewSource(int64(k)))
	var ovh, xors float64
	const sampled = 500
	for i := 0; i < sampled; i++ {
		g := spike3Graph(b, k, rng)
		d := NewSymbolicDecoder(g)
		if feed(d, rng.Perm(4*k), nil, solve) < 0 {
			b.Fatal("decode incomplete")
		}
		ovh += d.ReceptionOverhead()
		xors += float64(d.XorOps()) / float64(k)
	}
	orig := make([][]byte, k)
	for i := range orig {
		orig[i] = make([]byte, blockBytes)
		rng.Read(orig[i])
	}
	type trial struct {
		g     *Graph
		order []int
		coded [][]byte // only the shares peeling alone consumes
	}
	trials := make([]trial, 4)
	for i := range trials {
		tr := trial{g: spike3Graph(b, k, rng), order: rng.Perm(4 * k)}
		n := feed(NewSymbolicDecoder(tr.g), tr.order, nil, false)
		tr.coded = make([][]byte, tr.g.N)
		for _, idx := range tr.order[:n] {
			tr.coded[idx] = tr.g.EncodeBlock(idx, orig)
		}
		trials[i] = tr
	}
	b.SetBytes(int64(k * blockBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trials[i%len(trials)]
		if feed(NewDecoder(tr.g), tr.order, tr.coded, solve) < 0 {
			b.Fatal("decode incomplete")
		}
	}
	b.ReportMetric(ovh/sampled, "overhead")
	b.ReportMetric(xors/sampled, "xors/block")
}

func BenchmarkDecodeSpike3K16Block16K(b *testing.B) {
	b.Run("peel", func(b *testing.B) { benchClientShape(b, 16, 16<<10, false) })
	b.Run("solve", func(b *testing.B) { benchClientShape(b, 16, 16<<10, true) })
}

func BenchmarkDecodeSpike3K32Block256K(b *testing.B) {
	b.Run("peel", func(b *testing.B) { benchClientShape(b, 32, 256<<10, false) })
	b.Run("solve", func(b *testing.B) { benchClientShape(b, 32, 256<<10, true) })
}

// BenchmarkEncodeSpike3K32Block256K encodes all N = 4K shares a write
// commits of the client's "lt-spike3" graph at K = 32 and 256 KiB
// blocks into reused buffers, as the write path does; MB/s counts user
// bytes.
func BenchmarkEncodeSpike3K32Block256K(b *testing.B) {
	const k, blockBytes = 32, 256 << 10
	rng := rand.New(rand.NewSource(k))
	g := spike3Graph(b, k, rng)
	orig := make([][]byte, k)
	for i := range orig {
		orig[i] = make([]byte, blockBytes)
		rng.Read(orig[i])
	}
	coded := make([][]byte, 4*k)
	for i := range coded {
		coded[i] = make([]byte, blockBytes)
	}
	b.SetBytes(int64(k * blockBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for idx, dst := range coded {
			g.EncodeBlockInto(dst, idx, orig)
		}
	}
}
