package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"github.com/optlab/opt/internal/baselines/inmem"
	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
)

// input is one workload's generated graph. Generating it is not timed;
// only the graph (or an edge-list file of it) reaches the program.
type input struct {
	// g is degree-ordered: the order every store of this benchmark uses.
	g *graph.Graph
	// ref is the triangle count from graph.CountTrianglesReference.
	ref int64
}

func newInput(g *graph.Graph) *input {
	og, _ := graph.DegreeOrder(g)
	return &input{g: og, ref: graph.CountTrianglesReference(og)}
}

// costCPU times one single-thread in-memory edge-iterator count of the
// input, the Cost_CPU of the paper's §3.3 yardstick, and checks its answer.
func (in *input) costCPU() (float64, error) {
	start := time.Now()
	if n := inmem.EdgeIteratorCount(in.g, nil, nil); n != in.ref {
		return 0, fmt.Errorf("in-memory count %d, reference %d", n, in.ref)
	}
	return time.Since(start).Seconds(), nil
}

// rmatGraph is an R-MAT graph with the GTgraph default probabilities.
func rmatGraph(vertices int, edges, seed int64) (*graph.Graph, error) {
	return gen.RMAT(gen.DefaultRMAT(vertices, edges, seed))
}

// holmeKimGraph grows a Holme–Kim graph [Holme & Kim, Phys. Rev. E 2002]:
// power-law degrees with tunable clustering, so it holds many triangles
// per edge. It takes the steps of internal/gen.HolmeKim, but picks a triad
// partner by index from insertion-ordered neighbour lists instead of from
// a map's iteration order, which Go randomises: the same seed always gives
// the same graph.
func holmeKimGraph(vertices, m int, triad float64, seed int64) (*graph.Graph, error) {
	if vertices <= 0 || m <= 0 {
		return nil, fmt.Errorf("Holme–Kim graph needs vertices > 0 and m > 0, got %d, %d", vertices, m)
	}
	m = min(m, vertices-1)
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]uint32, vertices)
	// repeated holds each vertex once per degree unit: sampling from it is
	// preferential attachment.
	var repeated []uint32
	b := graph.NewBuilder(vertices)
	add := func(u, v uint32) error {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		repeated = append(repeated, u, v)
		return b.AddEdge(u, v)
	}
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			if err := add(uint32(u), uint32(v)); err != nil {
				return nil, err
			}
		}
	}
	for u := uint32(m + 1); int(u) < vertices; u++ {
		var last uint32
		hasLast := false
		for added, attempts := 0, 0; added < m && attempts < 50*m; attempts++ {
			var target uint32
			if hasLast && rng.Float64() < triad {
				nbrs := adj[last]
				target = nbrs[rng.Intn(len(nbrs))]
			} else {
				target = repeated[rng.Intn(len(repeated))]
			}
			// u is the newest vertex, so a duplicate edge can only be one
			// of the few u has gained in this step.
			if target == u || slices.Contains(adj[u], target) {
				continue
			}
			if err := add(u, target); err != nil {
				return nil, err
			}
			last, hasLast = target, true
			added++
		}
	}
	return b.Build(), nil
}

// writeEdgeList writes g as "u v" lines, one per edge.
func writeEdgeList(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var werr error
	g.Edges(func(u, v graph.VertexID) bool {
		_, werr = fmt.Fprintf(w, "%d %d\n", u, v)
		return werr == nil
	})
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
