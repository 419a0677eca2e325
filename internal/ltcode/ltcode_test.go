package ltcode

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Params{K: 1, C: 1, Delta: 0.5}, true},
		{Params{K: 1024, C: 0.1, Delta: 0.01}, true},
		{Params{K: 0, C: 1, Delta: 0.5}, false},
		{Params{K: 10, C: 0, Delta: 0.5}, false},
		{Params{K: 10, C: -1, Delta: 0.5}, false},
		{Params{K: 10, C: 1, Delta: 0}, false},
		{Params{K: 10, C: 1, Delta: 1.5}, false},
		{Params{K: 10, C: 1, Delta: 0.5, MinSpike: 3}, true},
		{Params{K: 10, C: 1, Delta: 0.5, MinSpike: -1}, false},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.p, err, tc.ok)
		}
	}
}

func TestRobustSolitonIsDistribution(t *testing.T) {
	for _, p := range []Params{
		{K: 1, C: 1, Delta: 0.5},
		{K: 2, C: 1, Delta: 0.5},
		{K: 128, C: 1, Delta: 0.1},
		{K: 1024, C: 0.1, Delta: 0.9},
		{K: 1024, C: 2, Delta: 0.01},
	} {
		pmf := RobustSoliton(p)
		if len(pmf) != p.K {
			t.Fatalf("pmf length %d != K %d", len(pmf), p.K)
		}
		var sum float64
		for i, v := range pmf {
			if v < 0 {
				t.Fatalf("negative pmf[%d]=%v for %+v", i, v, p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("pmf sums to %v for %+v", sum, p)
		}
	}
}

func TestRobustSolitonSpike(t *testing.T) {
	// The robust part must put extra mass at degree ~K/R compared to
	// the ideal soliton.
	p := Params{K: 1024, C: 1, Delta: 0.1}
	robust := RobustSoliton(p)
	ideal := IdealSoliton(p.K)
	r := p.C * math.Log(float64(p.K)/p.Delta) * math.Sqrt(float64(p.K))
	spike := int(math.Ceil(float64(p.K) / r))
	if robust[spike-1] <= ideal[spike-1] {
		t.Fatalf("no spike at degree %d: robust=%v ideal=%v", spike, robust[spike-1], ideal[spike-1])
	}
}

func TestMinSpikeMovesSmallKSpikeOffDegreeOne(t *testing.T) {
	// K=32, C=1, δ=0.1: R ≈ 32.6 > K, so Luby's spike lands on degree
	// 1 and most coded blocks are copies. MinSpike 3 caps R at K/3.
	luby := RobustSoliton(Params{K: 32, C: 1, Delta: 0.1})
	capped := RobustSoliton(Params{K: 32, C: 1, Delta: 0.1, MinSpike: 3})
	if luby[0] < 0.8 {
		t.Fatalf("uncapped μ(1) = %.2f, expected the degree-1 collapse", luby[0])
	}
	if capped[0] > 0.2 {
		t.Fatalf("capped μ(1) = %.2f, want the copies gone", capped[0])
	}
	best := 0
	for i, v := range capped {
		if v > capped[best] {
			best = i
		}
	}
	if best+1 != 3 {
		t.Fatalf("capped spike at degree %d, want 3", best+1)
	}
	// Where R is already below K/MinSpike, and at K < 8 where the
	// floor would pass K/4, the cap changes nothing.
	for _, k := range []int{1, 2, 4, 7, 1024} {
		p := Params{K: k, C: 1, Delta: 0.1}
		plain := RobustSoliton(p)
		p.MinSpike = 3
		for i, v := range RobustSoliton(p) {
			//lint:ignore floateq the cap must leave the pmf bit-identical
			if v != plain[i] {
				t.Fatalf("MinSpike changed the K=%d pmf at degree %d", k, i+1)
			}
		}
	}
	// At K=8 the floor is K/4 = 2.
	eight := RobustSoliton(Params{K: 8, C: 1, Delta: 0.1, MinSpike: 3})
	if eight[1] <= eight[0] || eight[1] <= eight[2] {
		t.Fatalf("K=8 capped pmf %v: want its peak at degree 2", eight)
	}
}

func TestMinSpikeSurvivesHalfLoss(t *testing.T) {
	// A storage code must survive losing half its blocks when 2K
	// remain. Count decode failures over random half-subsets of a
	// 4K-block graph, with and without the cap.
	const k, trials = 32, 200
	fails := func(minSpike int) int {
		rng := rand.New(rand.NewSource(7))
		bad := 0
		for tr := 0; tr < trials; tr++ {
			g, err := BuildGraph(Params{K: k, C: 1, Delta: 0.1, MinSpike: minSpike}, 4*k, rng, DefaultGraphOptions())
			if err != nil {
				t.Fatal(err)
			}
			d := NewSymbolicDecoder(g)
			for _, i := range rng.Perm(4 * k)[:2*k] {
				d.Add(i)
			}
			if !d.Complete() {
				bad++
			}
		}
		return bad
	}
	luby, capped := fails(0), fails(3)
	if capped*10 > trials || capped*5 > luby {
		t.Fatalf("half-loss decode failures: %d/%d capped vs %d/%d uncapped", capped, trials, luby, trials)
	}
}

func TestMeanDegreeGrowsWithK(t *testing.T) {
	d128 := MeanDegree(RobustSoliton(Params{K: 128, C: 1, Delta: 0.5}))
	d1024 := MeanDegree(RobustSoliton(Params{K: 1024, C: 1, Delta: 0.5}))
	if d1024 <= d128 {
		t.Fatalf("mean degree should grow with K: d128=%v d1024=%v", d128, d1024)
	}
	// Paper: "average encoded-node degree is about five" for typical
	// parameters at K~1024.
	if d1024 < 3 || d1024 > 20 {
		t.Fatalf("mean degree at K=1024 out of plausible range: %v", d1024)
	}
}

func TestDegreeSamplerInRange(t *testing.T) {
	p := Params{K: 100, C: 1, Delta: 0.5}
	s := NewDegreeSampler(RobustSoliton(p))
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, p.K+1)
	for i := 0; i < 100000; i++ {
		d := s.Sample(rng)
		if d < 1 || d > p.K {
			t.Fatalf("sampled degree %d out of [1,%d]", d, p.K)
		}
		counts[d]++
	}
	// Degree 2 is the ideal-soliton mode (~1/2 mass); sanity check it.
	if counts[2] < 30000 {
		t.Fatalf("degree-2 frequency %d implausibly low", counts[2])
	}
}

func TestBuildGraphShape(t *testing.T) {
	p := Params{K: 64, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(2))
	g, err := BuildGraph(p, 256, rng, DefaultGraphOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.K != 64 || g.N != 256 || len(g.Neighbors) != 256 {
		t.Fatalf("graph shape wrong: K=%d N=%d", g.K, g.N)
	}
	for i, nb := range g.Neighbors {
		if len(nb) < 1 || len(nb) > g.K {
			t.Fatalf("coded block %d degree %d out of range", i, len(nb))
		}
		seen := map[int32]bool{}
		for _, j := range nb {
			if j < 0 || int(j) >= g.K {
				t.Fatalf("neighbor %d out of range", j)
			}
			if seen[j] {
				t.Fatalf("duplicate neighbor %d in coded block %d", j, i)
			}
			seen[j] = true
		}
	}
}

func TestBuildGraphErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := BuildGraph(Params{K: 0, C: 1, Delta: 0.5}, 4, rng, GraphOptions{}); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := BuildGraph(Params{K: 4, C: 1, Delta: 0.5}, 0, rng, GraphOptions{}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := BuildGraph(Params{K: 8, C: 1, Delta: 0.5}, 4, rng,
		GraphOptions{EnsureDecodable: true}); err == nil {
		t.Fatal("EnsureDecodable with N<K accepted")
	}
}

func TestUniformCoverage(t *testing.T) {
	// With permutation-stream selection, original-block degrees must be
	// nearly equal (paper: "same node degree, or, at most, different in
	// one"; duplicate-skip re-draws can add at most a little slack).
	p := Params{K: 128, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(3))
	g, err := BuildGraph(p, 512, rng, GraphOptions{UniformCoverage: true})
	if err != nil {
		t.Fatal(err)
	}
	deg := g.OriginalDegrees()
	minD, maxD := deg[0], deg[0]
	for _, d := range deg {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD-minD > 3 {
		t.Fatalf("uniform coverage spread too wide: min=%d max=%d", minD, maxD)
	}
	// Contrast: purely random selection should have a visibly wider
	// spread at the same size.
	g2, err := BuildGraph(p, 512, rng, GraphOptions{UniformCoverage: false})
	if err != nil {
		t.Fatal(err)
	}
	deg2 := g2.OriginalDegrees()
	min2, max2 := deg2[0], deg2[0]
	for _, d := range deg2 {
		if d < min2 {
			min2 = d
		}
		if d > max2 {
			max2 = d
		}
	}
	if max2-min2 <= maxD-minD {
		t.Fatalf("random selection spread (%d) not wider than uniform (%d)",
			max2-min2, maxD-minD)
	}
}

func TestEnsureDecodable(t *testing.T) {
	p := Params{K: 64, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		g, err := BuildGraph(p, 96, rng, DefaultGraphOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !g.FullyDecodable() {
			t.Fatal("EnsureDecodable graph not fully decodable")
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := Params{K: 32, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(5))
	g, err := BuildGraph(p, 128, rng, DefaultGraphOptions())
	if err != nil {
		t.Fatal(err)
	}
	const blockSize = 64
	orig := make([][]byte, p.K)
	for i := range orig {
		orig[i] = make([]byte, blockSize)
		rng.Read(orig[i])
	}
	coded, err := g.Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	// Feed in random order until complete.
	d := NewDecoder(g)
	for _, idx := range rng.Perm(g.N) {
		if _, err := d.AddData(idx, coded[idx]); err != nil {
			t.Fatal(err)
		}
		if d.Complete() {
			break
		}
	}
	if !d.Complete() {
		t.Fatal("decode did not complete with all blocks")
	}
	got, err := d.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if !bytes.Equal(got[i], orig[i]) {
			t.Fatalf("original block %d decoded incorrectly", i)
		}
	}
}

func TestDecodeFromSubset(t *testing.T) {
	// Decoding must succeed from a strict subset well short of N when
	// redundancy is ample.
	p := Params{K: 64, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(6))
	g, err := BuildGraph(p, 512, rng, DefaultGraphOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := NewSymbolicDecoder(g)
	perm := rng.Perm(g.N)
	used := 0
	for _, idx := range perm {
		d.Add(idx)
		used++
		if d.Complete() {
			break
		}
	}
	if !d.Complete() {
		t.Fatal("did not complete")
	}
	if used >= g.N {
		t.Fatalf("needed all %d blocks; expected completion well before", g.N)
	}
	if used < p.K {
		t.Fatalf("completed with %d < K=%d blocks: impossible", used, p.K)
	}
}

func TestDuplicateAddIgnored(t *testing.T) {
	p := Params{K: 16, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(7))
	g, err := BuildGraph(p, 64, rng, DefaultGraphOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := NewSymbolicDecoder(g)
	d.Add(0)
	n1 := d.Received()
	d.Add(0)
	if d.Received() != n1 {
		t.Fatal("duplicate Add counted twice")
	}
}

func TestAddDataErrors(t *testing.T) {
	p := Params{K: 8, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(8))
	g, _ := BuildGraph(p, 32, rng, DefaultGraphOptions())
	d := NewDecoder(g)
	if _, err := d.AddData(-1, []byte{1}); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := d.AddData(32, []byte{1}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	s := NewSymbolicDecoder(g)
	if _, err := s.AddData(0, []byte{1}); err == nil {
		t.Fatal("AddData on symbolic decoder accepted")
	}
	if _, err := s.Data(); err == nil {
		t.Fatal("Data on symbolic decoder accepted")
	}
	if _, err := d.Data(); err == nil {
		t.Fatal("Data before completion accepted")
	}
}

func TestSymbolicMatchesDataDecoder(t *testing.T) {
	// Feeding identical block orders, the symbolic and data decoders
	// must agree on completion point, decoded counts, and XOR ops.
	p := Params{K: 32, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(9))
	g, err := BuildGraph(p, 128, rng, DefaultGraphOptions())
	if err != nil {
		t.Fatal(err)
	}
	orig := make([][]byte, p.K)
	for i := range orig {
		orig[i] = make([]byte, 16)
		rng.Read(orig[i])
	}
	coded, _ := g.Encode(orig)
	sym := NewSymbolicDecoder(g)
	dat := NewDecoder(g)
	for _, idx := range rng.Perm(g.N) {
		sym.Add(idx)
		dat.AddData(idx, coded[idx])
		if sym.DecodedCount() != dat.DecodedCount() {
			t.Fatalf("decoded counts diverge: sym=%d dat=%d", sym.DecodedCount(), dat.DecodedCount())
		}
		if sym.XorOps() != dat.XorOps() {
			t.Fatalf("xor ops diverge: sym=%d dat=%d", sym.XorOps(), dat.XorOps())
		}
		if sym.Complete() {
			break
		}
	}
	if !sym.Complete() || !dat.Complete() {
		t.Fatal("decoders did not complete together")
	}
}

func TestLazyXorSkipsRedundantBlocks(t *testing.T) {
	// After completion, adding more blocks must cost zero extra XORs.
	p := Params{K: 32, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(10))
	g, _ := BuildGraph(p, 256, rng, DefaultGraphOptions())
	d := NewSymbolicDecoder(g)
	perm := rng.Perm(g.N)
	i := 0
	for ; i < len(perm); i++ {
		d.Add(perm[i])
		if d.Complete() {
			break
		}
	}
	ops := d.XorOps()
	for ; i < len(perm); i++ {
		d.Add(perm[i])
	}
	if d.XorOps() != ops {
		t.Fatalf("XOR ops grew after completion: %d -> %d", ops, d.XorOps())
	}
	// Exactly K blocks are "used" (each decode produces one original).
	if d.UsedBlocks() != p.K {
		t.Fatalf("UsedBlocks = %d, want K=%d", d.UsedBlocks(), p.K)
	}
}

func TestReceptionOverheadRange(t *testing.T) {
	// Paper §5.2.4: for sane parameters overhead lands around 0.3-0.5
	// at K=1024 — allow a generous envelope at smaller K.
	p := Params{K: 256, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(11))
	st := MeasureOverheadStats(p, 4*p.K, 20, rng, DefaultGraphOptions())
	if st.Failures > 0 {
		t.Fatalf("%d overhead trials failed to decode", st.Failures)
	}
	if st.MeanOverhead < 0.05 || st.MeanOverhead > 1.2 {
		t.Fatalf("mean reception overhead %v outside plausible range", st.MeanOverhead)
	}
}

func TestAffectedCoded(t *testing.T) {
	p := Params{K: 16, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(12))
	g, _ := BuildGraph(p, 64, rng, DefaultGraphOptions())
	for orig := 0; orig < p.K; orig++ {
		affected := g.AffectedCoded(orig)
		// Cross-check against the neighbor lists.
		want := 0
		for _, nb := range g.Neighbors {
			for _, j := range nb {
				if int(j) == orig {
					want++
					break
				}
			}
		}
		if len(affected) != want {
			t.Fatalf("AffectedCoded(%d) = %d entries, want %d", orig, len(affected), want)
		}
	}
}

func TestEncodeBlockIsXorOfNeighbors(t *testing.T) {
	p := Params{K: 8, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(13))
	g, _ := BuildGraph(p, 16, rng, DefaultGraphOptions())
	orig := make([][]byte, p.K)
	for i := range orig {
		orig[i] = make([]byte, 8)
		rng.Read(orig[i])
	}
	for i := 0; i < g.N; i++ {
		got := g.EncodeBlock(i, orig)
		want := make([]byte, 8)
		for _, j := range g.Neighbors[i] {
			for b := range want {
				want[b] ^= orig[j][b]
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeBlock(%d) wrong", i)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	p := Params{K: 4, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(14))
	g, _ := BuildGraph(p, 8, rng, DefaultGraphOptions())
	if _, err := g.Encode(make([][]byte, 3)); err == nil {
		t.Fatal("wrong block count accepted")
	}
	bad := [][]byte{make([]byte, 4), make([]byte, 4), make([]byte, 5), make([]byte, 4)}
	if _, err := g.Encode(bad); err == nil {
		t.Fatal("unequal block sizes accepted")
	}
}

func TestK1Degenerate(t *testing.T) {
	p := Params{K: 1, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(15))
	g, err := BuildGraph(p, 4, rng, DefaultGraphOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := NewSymbolicDecoder(g)
	d.Add(0)
	if !d.Complete() {
		t.Fatal("K=1 should decode from any single block")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	type cfg struct {
		Seed int64
	}
	f := func(c cfg) bool {
		rng := rand.New(rand.NewSource(c.Seed))
		k := 2 + rng.Intn(40)
		n := k + k/2 + rng.Intn(3*k)
		g, err := BuildGraph(Params{K: k, C: 1, Delta: 0.5}, n, rng, DefaultGraphOptions())
		if err != nil {
			return false
		}
		size := 1 + rng.Intn(64)
		orig := make([][]byte, k)
		for i := range orig {
			orig[i] = make([]byte, size)
			rng.Read(orig[i])
		}
		coded, err := g.Encode(orig)
		if err != nil {
			return false
		}
		d := NewDecoder(g)
		for _, idx := range rng.Perm(n) {
			d.AddData(idx, coded[idx])
			if d.Complete() {
				break
			}
		}
		if !d.Complete() {
			return false
		}
		got, err := d.Data()
		if err != nil {
			return false
		}
		for i := range orig {
			if !bytes.Equal(got[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodedNeverExceedsK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(30)
		g, err := BuildGraph(Params{K: k, C: 1, Delta: 0.5}, 4*k, rng, DefaultGraphOptions())
		if err != nil {
			return false
		}
		d := NewSymbolicDecoder(g)
		for _, idx := range rng.Perm(g.N) {
			d.Add(idx)
			if d.DecodedCount() > k || d.Received() > g.N {
				return false
			}
		}
		return d.Complete()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func benchDecode(b *testing.B, k, blockKB int) {
	p := Params{K: k, C: 1, Delta: 0.1}
	rng := rand.New(rand.NewSource(1))
	g, err := BuildGraph(p, 3*k, rng, DefaultGraphOptions())
	if err != nil {
		b.Fatal(err)
	}
	size := blockKB << 10
	orig := make([][]byte, k)
	for i := range orig {
		orig[i] = make([]byte, size)
		rng.Read(orig[i])
	}
	coded, _ := g.Encode(orig)
	order := rng.Perm(g.N)
	b.SetBytes(int64(k * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(g)
		for _, idx := range order {
			d.AddData(idx, coded[idx])
			if d.Complete() {
				break
			}
		}
		if !d.Complete() {
			b.Fatal("decode incomplete")
		}
	}
}

func BenchmarkDecodeK128Block16K(b *testing.B)  { benchDecode(b, 128, 16) }
func BenchmarkDecodeK1024Block16K(b *testing.B) { benchDecode(b, 1024, 16) }

func BenchmarkEncodeK1024Block16K(b *testing.B) {
	p := Params{K: 1024, C: 1, Delta: 0.1}
	rng := rand.New(rand.NewSource(1))
	g, err := BuildGraph(p, 3*1024, rng, DefaultGraphOptions())
	if err != nil {
		b.Fatal(err)
	}
	orig := make([][]byte, p.K)
	for i := range orig {
		orig[i] = make([]byte, 16<<10)
		rng.Read(orig[i])
	}
	b.SetBytes(int64(p.K * 16 << 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Encode(orig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildGraphK1024(b *testing.B) {
	p := Params{K: 1024, C: 1, Delta: 0.5}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := BuildGraph(p, 4096, rng, DefaultGraphOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddDataRejectsWrongLength: a payload whose length differs from
// the first one's is refused with an error — never handed to the XOR
// kernel, which would panic on it — and leaves the decoder as it was.
func TestAddDataRejectsWrongLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := BuildGraph(Params{K: 16, C: 1, Delta: 0.1}, 64, rng, DefaultGraphOptions())
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, g.K)
	for i := range data {
		data[i] = bytes.Repeat([]byte{byte(i + 1)}, 32)
	}
	d := NewDecoder(g)
	for idx := 0; idx < g.N && !d.Complete(); idx++ {
		block := g.EncodeBlock(idx, data)
		if idx%3 == 1 {
			for _, bad := range [][]byte{block[:31], append(block, 0)} {
				if _, err := d.AddData(idx, bad); err == nil {
					t.Fatalf("AddData accepted a %d-byte block after 32-byte ones", len(bad))
				}
			}
		}
		if _, err := d.AddData(idx, block); err != nil {
			t.Fatal(err)
		}
		d.Solve()
	}
	got, err := d.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("original %d decoded wrong", i)
		}
	}
}
