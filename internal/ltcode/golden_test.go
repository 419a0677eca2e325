package ltcode

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

// graphHash digests a graph's shape and every neighbour list in order.
func graphHash(g *Graph) string {
	h := sha256.New()
	var w [4]byte
	put := func(v int) {
		binary.LittleEndian.PutUint32(w[:], uint32(v))
		h.Write(w[:])
	}
	put(g.K)
	put(g.N)
	for _, nb := range g.Neighbors {
		put(len(nb))
		for _, j := range nb {
			put(int(j))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGraphGolden pins BuildGraph's output for the two graph
// constructions stored segments name: Luby's ("lt", MinSpike 0) and the
// spike-floored one ("lt-spike3", MinSpike 3). A stored segment records
// only its seed, so which candidate graph BuildGraph accepts — including
// the peel-based EnsureDecodable check — is storage format: a change
// here silently re-maps every stored segment's shares.
func TestGraphGolden(t *testing.T) {
	cases := []struct {
		minSpike int
		k, n     int
		seed     int64
		want     string
	}{
		{0, 8, 64, 1, "bfa1f6cfb43ab774"},
		{0, 16, 96, 2, "142b209b32f6db0d"},
		{0, 32, 160, 3, "8d25930b8ff137fe"},
		{0, 64, 288, 4, "2542871cb55c77bd"},
		{3, 8, 64, 1, "5b697c0acd0873eb"},
		{3, 16, 96, 2, "9cec56f0209e9cf0"},
		{3, 16, 80, 8957335289750081011, "e992f6ef4428a625"},
		{3, 32, 160, 3, "35fd1c28d3085644"},
		{3, 64, 288, 4, "0d5ce244e41f9427"},
		{3, 256, 1056, 5, "5457008b6eeadae6"},
		{0, 16, 20, 1, "d3e8653cf5d6c0a7"},
		// The first candidate graph of these has full GF(2) rank but
		// does not peel (checked below): a rank-based check would
		// accept it, the stored format takes a later candidate.
		{3, 16, 20, 1, "1627499059629917"},
		{3, 32, 40, 2, "99ef29d841359712"},
	}
	for _, tc := range cases {
		p := Params{K: tc.k, C: 1, Delta: 0.1, MinSpike: tc.minSpike}
		g, err := BuildGraph(p, tc.n, rand.New(rand.NewSource(tc.seed)), DefaultGraphOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got := graphHash(g); got != tc.want {
			t.Errorf("MinSpike=%d K=%d N=%d seed=%d: graph hash %s, want %s", tc.minSpike, tc.k, tc.n, tc.seed, got, tc.want)
		}
	}
	for _, tc := range cases[len(cases)-2:] {
		p := Params{K: tc.k, C: 1, Delta: 0.1, MinSpike: tc.minSpike}
		first, err := BuildGraph(p, tc.n, rand.New(rand.NewSource(tc.seed)), GraphOptions{UniformCoverage: true})
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, first.N)
		for i := range all {
			all[i] = i
		}
		if first.FullyDecodable() || rankPrefix(first, all) < 0 {
			t.Errorf("K=%d N=%d seed=%d: first candidate is not full-rank-but-unpeelable; the case pins nothing", tc.k, tc.n, tc.seed)
		}
	}
}
