package main

import (
	"time"

	"github.com/optlab/opt/internal/bits"
	"github.com/optlab/opt/internal/intersect"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// Replays time one layer's public function alone, over the workload's own
// data, outside any operation.

// replayRange is the page count of one decode replay read.
const replayRange = 64

// decodeReplay reads every page of st once, then times Store.DecodeAppend
// over all of them, three passes, and returns the median nanoseconds per
// page with every vertex's decoded adjacency list.
func decodeReplay(st *storage.Store) (float64, [][]uint32, error) {
	dev, err := st.DeviceBackend(ssd.BackendPortable)
	if err != nil {
		return 0, nil, err
	}
	defer dev.Close()
	var spans [][]byte
	for p := uint32(0); p < st.NumPages; {
		n := st.AlignedRange(p, replayRange)
		data, err := dev.ReadPages(p, n)
		if err != nil {
			return 0, nil, err
		}
		spans = append(spans, data)
		p += uint32(n)
	}
	var recs []storage.VertexRec
	var arena []uint32
	var passes []float64
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for _, data := range spans {
			if recs, arena, err = st.DecodeAppend(recs[:0], arena[:0], data); err != nil {
				return 0, nil, err
			}
		}
		passes = append(passes, float64(time.Since(start).Nanoseconds())/float64(st.NumPages))
	}
	adj := make([][]uint32, st.NumVertices)
	for _, data := range spans {
		rs, err := st.Decode(data)
		if err != nil {
			return 0, nil, err
		}
		for _, r := range rs {
			adj[r.ID] = r.Adj
		}
	}
	return median(passes), adj, nil
}

// kernel selects which intersection a replay runs.
type kernel int

const (
	// kernelOPT is the OPT edge-iterator's: n≻(u) ∩ n≻(v) for every edge
	// u < v, through intersect.AdaptiveBitmap with a membership set over
	// n≻(u) once it is a hub list.
	kernelOPT kernel = iota
	// kernelShard is Shard2D's: the parts of n(u) and n(v) above v, for
	// every edge u < v, through intersect.MergeCount.
	kernelShard
)

// hubDegree mirrors the OPT core's threshold for building a membership
// set over the fixed side of its intersections.
const hubDegree = 256

// replaySink keeps the replayed kernels' results live.
var replaySink int64

// intersectReplay runs the kernel over every edge of adj once and returns
// nanoseconds per Eq. 3 operation (min(|a|, |b|) per intersection).
func intersectReplay(adj [][]uint32, n int, k kernel) float64 {
	set := bits.NewSet(n)
	var buf []uint32
	var ops, found int64
	start := time.Now()
	for u, list := range adj {
		nsU := list[intersect.UpperBound(list, uint32(u)):]
		if k == kernelShard {
			for _, v := range nsU {
				a := list[intersect.UpperBound(list, v):]
				b := adj[v][intersect.UpperBound(adj[v], v):]
				ops += intersect.MinCost(a, b)
				found += int64(intersect.MergeCount(a, b))
			}
			continue
		}
		var hub *bits.Set
		if len(nsU) >= hubDegree {
			hub = set
			for _, x := range nsU {
				hub.Add(int(x))
			}
		}
		for _, v := range nsU {
			nsV := adj[v][intersect.UpperBound(adj[v], v):]
			ops += intersect.MinCost(nsU, nsV)
			buf = intersect.AdaptiveBitmap(buf[:0], nsV, nsU, hub)
			found += int64(len(buf))
		}
		if hub != nil {
			for _, x := range nsU {
				hub.Remove(int(x))
			}
		}
	}
	elapsed := time.Since(start)
	replaySink += found
	return float64(elapsed.Nanoseconds()) / float64(max(ops, 1))
}
