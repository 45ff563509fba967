// Package gen provides the synthetic graph generators used by the
// experiments: R-MAT (Chakrabarti et al., SDM'04) for the scale-free
// workloads of Figs. 7a/7b and the real-dataset proxies, Erdős–Rényi as the
// degenerate R-MAT case, and Holme–Kim (Phys. Rev. E 2002) for the
// tunable-clustering sweep of Fig. 7c.
//
// All generators are deterministic given a seed and return simplified
// undirected graphs (no self-loops, no multi-edges).
package gen

import (
	"fmt"
	"math/rand"

	"github.com/optlab/opt/internal/graph"
)

// RMATParams configures the recursive matrix generator. The four quadrant
// probabilities must be positive and sum to 1. The paper uses the GTgraph
// defaults a=0.45, b=0.15, c=0.15, d=0.25.
type RMATParams struct {
	NumVertices int   // rounded up to a power of two internally
	NumEdges    int64 // number of edge samples (before simplification)
	A, B, C, D  float64
	Seed        int64
	// Noise perturbs the quadrant probabilities at each recursion level,
	// as in the original implementation, to avoid degenerate staircase
	// structure. 0 disables it; GTgraph uses 0.1.
	Noise float64
}

// DefaultRMAT returns the GTgraph default parameters used in §5.8 for the
// given scale.
func DefaultRMAT(numVertices int, numEdges int64, seed int64) RMATParams {
	return RMATParams{
		NumVertices: numVertices,
		NumEdges:    numEdges,
		A:           0.45, B: 0.15, C: 0.15, D: 0.25,
		Seed:  seed,
		Noise: 0.1,
	}
}

// RMAT generates an R-MAT graph. Edge endpoints are sampled by the
// recursive quadrant descent; the sampled multigraph is then simplified, so
// the resulting |E| is slightly below NumEdges for dense parameterisations.
func RMAT(p RMATParams) (*graph.Graph, error) {
	if p.NumVertices <= 0 {
		return nil, fmt.Errorf("gen: RMAT NumVertices = %d, want > 0", p.NumVertices)
	}
	if p.NumEdges < 0 {
		return nil, fmt.Errorf("gen: RMAT NumEdges = %d, want >= 0", p.NumEdges)
	}
	sum := p.A + p.B + p.C + p.D
	if p.A <= 0 || p.B <= 0 || p.C <= 0 || p.D <= 0 || sum < 0.999 || sum > 1.001 {
		return nil, fmt.Errorf("gen: RMAT probabilities (%v, %v, %v, %v) must be positive and sum to 1",
			p.A, p.B, p.C, p.D)
	}
	levels := 0
	for 1<<levels < p.NumVertices {
		levels++
	}
	n := p.NumVertices
	rng := rand.New(rand.NewSource(p.Seed))
	b := graph.NewBuilder(n)
	for i := int64(0); i < p.NumEdges; i++ {
		u, v := rmatSample(rng, levels, p)
		if int(u) >= n || int(v) >= n {
			// The power-of-two grid may exceed n; resample into range by
			// rejection to keep the distribution shape.
			i--
			continue
		}
		if err := b.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

func rmatSample(rng *rand.Rand, levels int, p RMATParams) (graph.VertexID, graph.VertexID) {
	var u, v uint32
	a, bb, c := p.A, p.B, p.C
	for l := 0; l < levels; l++ {
		ra, rb, rc := a, bb, c
		if p.Noise > 0 {
			ra = mutate(rng, a, p.Noise)
			rb = mutate(rng, bb, p.Noise)
			rc = mutate(rng, c, p.Noise)
			rd := mutate(rng, 1-a-bb-c, p.Noise)
			norm := ra + rb + rc + rd
			ra, rb, rc = ra/norm, rb/norm, rc/norm
		}
		r := rng.Float64()
		u <<= 1
		v <<= 1
		switch {
		case r < ra:
			// quadrant a: (0,0)
		case r < ra+rb:
			v |= 1
		case r < ra+rb+rc:
			u |= 1
		default:
			u |= 1
			v |= 1
		}
	}
	return u, v
}

func mutate(rng *rand.Rand, x, noise float64) float64 {
	return x * (1 - noise/2 + rng.Float64()*noise)
}

// ErdosRenyi generates a G(n, m) random graph: m edge samples drawn
// uniformly, simplified.
func ErdosRenyi(n int, m int64, seed int64) (*graph.Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: ErdosRenyi n = %d, want > 0", n)
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := int64(0); i < m; i++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if err := b.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// HolmeKimParams configures the growing scale-free generator with tunable
// clustering [19]. Each new vertex attaches M edges; after each
// preferential attachment, with probability TriadProb a "triad formation"
// step connects the new vertex to a random neighbor of the previous target,
// closing a triangle. Larger TriadProb yields a larger clustering
// coefficient at (nearly) constant density.
type HolmeKimParams struct {
	NumVertices int
	M           int     // edges added per new vertex (average degree ≈ 2M)
	TriadProb   float64 // probability of triad formation after each PA step
	Seed        int64
}

// HolmeKim generates a Holme–Kim graph.
func HolmeKim(p HolmeKimParams) (*graph.Graph, error) {
	if p.NumVertices <= 0 || p.M <= 0 {
		return nil, fmt.Errorf("gen: HolmeKim needs NumVertices > 0 and M > 0, got %d, %d",
			p.NumVertices, p.M)
	}
	if p.TriadProb < 0 || p.TriadProb > 1 {
		return nil, fmt.Errorf("gen: HolmeKim TriadProb = %v, want in [0, 1]", p.TriadProb)
	}
	n := p.NumVertices
	m := p.M
	if m >= n {
		m = n - 1
	}
	rng := rand.New(rand.NewSource(p.Seed))

	// nbrs lists each vertex's neighbours in insertion order, so a triad
	// partner is picked by index and one seed always gives one graph; seen
	// only answers duplicate checks (Go randomises map iteration order).
	nbrs := make([][]uint32, n)
	seen := make([]map[uint32]struct{}, n)
	for i := range seen {
		seen[i] = make(map[uint32]struct{})
	}
	// repeated holds each vertex once per degree unit: sampling from it is
	// preferential attachment.
	var repeated []uint32
	addEdge := func(u, v uint32) bool {
		if u == v {
			return false
		}
		if _, dup := seen[u][v]; dup {
			return false
		}
		seen[u][v] = struct{}{}
		seen[v][u] = struct{}{}
		nbrs[u] = append(nbrs[u], v)
		nbrs[v] = append(nbrs[v], u)
		repeated = append(repeated, u, v)
		return true
	}

	// Seed clique of m+1 vertices.
	seedSize := m + 1
	for u := 0; u < seedSize; u++ {
		for v := u + 1; v < seedSize; v++ {
			addEdge(uint32(u), uint32(v))
		}
	}
	for u := seedSize; u < n; u++ {
		var lastTarget uint32
		hasLast := false
		added := 0
		attempts := 0
		for added < m && attempts < 50*m {
			attempts++
			var target uint32
			if hasLast && rng.Float64() < p.TriadProb {
				// Triad formation: pick a random neighbor of lastTarget.
				if ns := nbrs[lastTarget]; len(ns) > 0 {
					target = ns[rng.Intn(len(ns))]
				} else {
					target = repeated[rng.Intn(len(repeated))]
				}
			} else {
				target = repeated[rng.Intn(len(repeated))]
			}
			if addEdge(uint32(u), target) {
				lastTarget = target
				hasLast = true
				added++
			}
		}
	}

	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for _, v := range nbrs[u] {
			if uint32(u) < v {
				if err := b.AddEdge(uint32(u), v); err != nil {
					return nil, err
				}
			}
		}
	}
	return b.Build(), nil
}
