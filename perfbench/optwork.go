package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/optlab/opt/internal/core"
	"github.com/optlab/opt/internal/engine"
	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// optSpec fixes one OPT workload: the store layout, the run options and
// whether triangles are listed to a file.
type optSpec struct {
	codec     string
	pageSize  int
	memFrac   float64
	latency   ssd.Latency
	channels  int
	threads   int
	list      bool // list every triangle into a NestedWriter file
	streaming bool // build the store from an edge-list file through extsort
}

// A run sets up at least minSetups times and, while set-up is quick,
// until it has spent setupTime on it, at most maxSetups times; setup_s is
// the median.
const (
	minSetups = 3
	maxSetups = 60
	setupTime = time.Second
)

// moreSetups reports whether a run that started setting up at start and
// has done n set-ups should do another.
func moreSetups(start time.Time, n int) bool {
	return n < minSetups || (n < maxSetups && time.Since(start) < setupTime)
}

// minOps is the fewest operations a timed phase runs, however long they
// take.
const minOps = 3

// runIOOverlap: OPT counting over an R-MAT store read through simulated
// FlashSSD latency, with a buffer about 6.7 times smaller than the store.
func runIOOverlap(ctx context.Context, cfg config) (*outcome, error) {
	v, e := 1<<18, int64(4_000_000)
	sp := optSpec{codec: storage.CodecRaw, pageSize: 4096, memFrac: 0.15, channels: 8, threads: 2,
		latency: ssd.Latency{PerRead: 100 * time.Microsecond, PerPage: 300 * time.Microsecond}}
	if cfg.tiny {
		v, e = 1<<10, 8000
		sp.pageSize = 1024
		sp.latency = ssd.Latency{PerRead: 10 * time.Microsecond, PerPage: 30 * time.Microsecond}
	}
	g, err := rmatGraph(v, e, cfg.seed)
	if err != nil {
		return nil, err
	}
	return runOPT(ctx, cfg, sp, newInput(g), "")
}

// runCPUList: OPT listing every triangle of a clustered Holme–Kim graph
// into a file, over a deltavarint store built by the streaming builder,
// with no simulated latency.
func runCPUList(ctx context.Context, cfg config) (*outcome, error) {
	v, m := 200_000, 10
	sp := optSpec{codec: storage.CodecDeltaVarint, pageSize: 4096, memFrac: 0.05, channels: 8, threads: 2,
		list: true, streaming: true}
	if cfg.tiny {
		v, m = 2000, 4
		sp.pageSize = 1024
	}
	g, err := holmeKimGraph(v, m, 0.9, cfg.seed)
	if err != nil {
		return nil, err
	}
	edgeList := filepath.Join(cfg.workDir(), "g.el")
	if err := writeEdgeList(edgeList, g); err != nil {
		return nil, err
	}
	return runOPT(ctx, cfg, sp, newInput(g), edgeList)
}

// optRunner runs operations of one OPT workload over its store.
type optRunner struct {
	sp       optSpec
	st       *storage.Store
	expected int64
	outPath  string
}

// opResult is one operation's outcome.
type opResult struct {
	wall      time.Duration
	res       *engine.Result
	triangles int64 // as counted by the engine, or read back from the file
	closeTime time.Duration
	outBytes  int64
}

// opTrace is one traced operation's instrumentation.
type opTrace struct {
	t     *tracer
	op    int32
	io    ioCounters
	sink  *iterSink
	emits *emitRecorder
	mx    *metrics.Collector
}

func newOpTrace(t *tracer, op int32) *opTrace {
	ot := &opTrace{t: t, op: op, sink: newIterSink(t, op), mx: metrics.NewCollector()}
	ot.emits = &emitRecorder{t: t, op: op, iter: &ot.sink.cur}
	return ot
}

// buildStore builds the workload's store at path and opens it. It
// returns the build time alone and the build-and-open time.
func buildStore(ctx context.Context, sp optSpec, path string, in *input, edgeList string) (*storage.Store, time.Duration, time.Duration, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, 0, 0, err
	}
	start := time.Now()
	var err error
	if sp.streaming {
		_, err = storage.BuildFileStreamingContext(ctx, path, storage.EdgeListFileScanner{Path: edgeList},
			storage.StreamBuildOptions{PageSize: sp.pageSize, DegreeOrder: true, Codec: sp.codec})
	} else {
		_, err = storage.BuildFileCodec(path, in.g, sp.pageSize, sp.codec)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	build := time.Since(start)
	st, err := storage.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	return st, build, time.Since(start), nil
}

// op runs one triangulation through engine.Run, from opening the device
// to closing it and, when listing, closing the output file. With ot set
// it runs traced.
func (r *optRunner) op(ctx context.Context, ot *opTrace) (opResult, error) {
	var out opResult
	var opStart int64
	if ot != nil {
		opStart = ot.t.now()
	}
	start := time.Now()
	dev, err := r.st.DeviceBackend(ssd.BackendPortable)
	if err != nil {
		return out, err
	}
	opts := engine.Options{
		Threads:        r.sp.threads,
		MemoryFraction: r.sp.memFrac,
		QueueDepth:     r.sp.channels,
		Latency:        r.sp.latency,
	}
	if ot != nil {
		dev = newTracedDevice(dev, ot.t, ot.op, 0, r.sp.latency, &ot.io)
		opts.CollectIterStats = true
		opts.Events = events.Tee(ot.mx, ot.sink)
	}
	var f *os.File
	var nw *core.NestedWriter
	if r.sp.list {
		if f, err = os.Create(r.outPath); err != nil {
			_ = dev.Close()
			return out, err
		}
		nw = core.NewNestedWriter(f)
		opts.OnTriangles = nw.Emit
		if ot != nil {
			opts.OnTriangles = ot.emits.wrap(nw.Emit)
		}
	}
	res, err := engine.Run(ctx, "OPT", r.st, dev, opts)
	if nw != nil {
		closeStart := time.Now()
		if cerr := nw.Close(); err == nil {
			err = cerr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		out.closeTime = time.Since(closeStart)
		out.outBytes = nw.BytesWritten()
	}
	if cerr := dev.Close(); err == nil {
		err = cerr
	}
	out.wall = time.Since(start)
	if ot != nil {
		ot.emits.close()
		ot.t.add(span{kind: kindOp, op: ot.op, start: opStart, end: ot.t.now()})
	}
	if err != nil {
		return out, err
	}
	out.res = res
	out.triangles = res.Triangles
	return out, nil
}

// check compares an operation's answers with the reference: the engine's
// count and, when listing, the count in the output file read back.
func (r *optRunner) check(o opResult) error {
	if o.triangles != r.expected {
		return fmt.Errorf("OPT counted %d triangles, reference %d", o.triangles, r.expected)
	}
	if !r.sp.list {
		return nil
	}
	f, err := os.Open(r.outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var n int64
	if err := core.ReadNested(f, func(_, _ uint32, ws []uint32) error {
		n += int64(len(ws))
		return nil
	}); err != nil {
		return fmt.Errorf("reading the output back: %w", err)
	}
	if n != r.expected {
		return fmt.Errorf("output file lists %d triangles, reference %d", n, r.expected)
	}
	return nil
}

// runOPT sets the store up, then runs the untraced or the traced phase.
func runOPT(ctx context.Context, cfg config, sp optSpec, in *input, edgeList string) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	storePath := filepath.Join(cfg.workDir(), "g.optstore")
	var st *storage.Store
	var builds, setups []float64
	for start := time.Now(); moreSetups(start, len(setups)); {
		s, build, setup, err := buildStore(ctx, sp, storePath, in, edgeList)
		if err != nil {
			return nil, fmt.Errorf("building the store: %w", err)
		}
		st = s
		builds = append(builds, build.Seconds())
		setups = append(setups, setup.Seconds())
	}
	r := &optRunner{sp: sp, st: st, expected: in.ref + cfg.expectBias, outPath: filepath.Join(cfg.workDir(), "triangles.bin")}

	// One operation before timing, so the page cache and the runtime's
	// pools are warm. Its answer is checked like any other.
	o, err := r.op(ctx, nil)
	if err != nil {
		return nil, err
	}
	out.attempted++
	if err := r.check(o); err != nil {
		out.fail("warm-up operation: %v", err)
	}
	if cfg.trace {
		return out, r.traced(ctx, cfg, in, out, median(builds))
	}

	// Each operation follows one Cost_CPU measurement, so the yardstick
	// sees the same host as the operations do, and each of the two starts
	// on a freshly collected heap.
	var walls, costs []float64
	heap := startHeapSampler(0)
	err = timedLoop(ctx, cfg.seconds, minOps, func(int) (time.Duration, error) {
		runtime.GC()
		c, err := in.costCPU()
		if err != nil {
			return 0, err
		}
		costs = append(costs, c)
		runtime.GC()
		heap.reset()
		out.attempted++
		o, err := r.op(ctx, nil)
		heap.lap()
		if err != nil {
			out.fail("operation %d: %v", out.attempted, err)
			return o.wall, nil
		}
		walls = append(walls, o.wall.Seconds())
		if err := r.check(o); err != nil {
			out.fail("operation %d: %v", out.attempted, err)
		}
		return o.wall, nil
	})
	heapMB := heap.Stop()
	if err != nil {
		return nil, err
	}
	costCPU := median(costs)
	p50 := median(walls)
	cP := r.simReadAll().Seconds()
	out.metrics["setup_s"] = median(setups)
	out.metrics["run_s_p50"] = p50
	out.metrics["run_s_p90"] = quantile(walls, 0.9)
	out.metrics["edges_per_s"] = float64(st.NumEdges) * float64(len(walls)) / sum(walls)
	out.metrics["ideal_ratio"] = p50 / (cP + costCPU)
	out.metrics["heap_peak_mb"] = heapMB
	return out, nil
}

// simReadAll is c·P(G): the simulated time for the device channels to
// read every page of the store once, each channel streaming its share in
// one read.
func (r *optRunner) simReadAll() time.Duration {
	if r.sp.latency == (ssd.Latency{}) {
		return 0
	}
	share := (int(r.st.NumPages) + r.sp.channels - 1) / r.sp.channels
	return r.sp.latency.Cost(share)
}

// traced runs untraced and traced operations alternately, then the
// single-layer replays, and fills the per-layer metrics.
func (r *optRunner) traced(ctx context.Context, cfg config, in *input, out *outcome, buildS float64) error {
	t := newTracer("bench")
	var plain, traced []float64
	var ots []*opTrace
	var results []opResult
	err := timedLoop(ctx, cfg.seconds, 2*minOps-1, func(i int) (time.Duration, error) {
		var ot *opTrace
		if i%2 == 1 {
			ot = newOpTrace(t, int32(len(ots)))
		}
		runtime.GC()
		out.attempted++
		o, err := r.op(ctx, ot)
		if err != nil {
			out.fail("operation %d: %v", out.attempted, err)
			return o.wall, nil
		}
		if err := r.check(o); err != nil {
			out.fail("operation %d: %v", out.attempted, err)
		}
		if ot == nil {
			plain = append(plain, o.wall.Seconds())
			return o.wall, nil
		}
		traced = append(traced, o.wall.Seconds())
		ots = append(ots, ot)
		results = append(results, o)
		return o.wall, nil
	})
	if err != nil {
		return err
	}
	if len(ots) == 0 {
		return fmt.Errorf("no traced operation succeeded")
	}

	m := out.metrics
	var perOp []map[string]float64
	for i, ot := range ots {
		perOp = append(perOp, r.layerMetrics(ot, results[i]))
	}
	for name := range perOp[0] {
		var xs []float64
		for _, p := range perOp {
			xs = append(xs, p[name])
		}
		m[name] = median(xs)
	}
	m["storage.build_s"] = buildS
	m["storage.pages"] = float64(r.st.NumPages)
	m["storage.bytes_per_edge"] = float64(r.st.NumPages) * float64(r.st.PageSize) / float64(r.st.NumEdges)
	m["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1

	// The serial and virtual-core runs: real speed-up beside the
	// projection EXPERIMENTS.md uses.
	serial, err := r.serialWall(ctx)
	if err := out.checked(err); err != nil {
		return err
	}
	m["core.speedup_real"] = serial.Seconds() / median(plain)
	virt, err := r.virtualSpeedup(ctx)
	if err := out.checked(err); err != nil {
		return err
	}
	m["core.speedup_virtual"] = virt

	decodeNS, recs, err := decodeReplay(r.st)
	if err != nil {
		return err
	}
	m["storage.decode_ns_per_page"] = decodeNS
	m["intersect.ns_per_op"] = intersectReplay(recs, r.st.NumVertices, kernelOPT)

	t.resolve()
	for layer, s := range t.selfByLayer() {
		m["self."+layer+"_s"] = s / float64(len(ots))
	}
	return t.writeChrome(cfg.traceFile())
}

// layerMetrics is one traced operation's per-layer metrics.
func (r *optRunner) layerMetrics(ot *opTrace, o opResult) map[string]float64 {
	var internal, external, load, elapsed time.Duration
	var internalPages, reused int
	for _, s := range o.res.IterStats {
		internal += s.InternalTime
		external += s.ExternalTime
		load += s.LoadTime
		elapsed += s.Elapsed
		internalPages += s.InternalPages
		reused += s.ReusedPages
	}
	busy := internal + external
	reads, pages, readNS := ot.io.reads.Load(), ot.io.pages.Load(), ot.io.readNS.Load()
	hits, wasted := ot.mx.PrefetchHits(), ot.mx.PrefetchWasted()
	m := map[string]float64{
		"ssd.reads":                        float64(reads),
		"ssd.pages_read":                   float64(pages),
		"ssd.pages_per_read":               float64(pages) / float64(max(reads, 1)),
		"ssd.read_s":                       float64(readNS) / 1e9,
		"ssd.sim_busy_s":                   float64(ot.io.simNS.Load()) / float64(r.sp.channels) / 1e9,
		"ssd.inflight_mean":                float64(readNS) / float64(o.wall),
		"buffer.reused_pages":              float64(reused),
		"buffer.reuse_frac":                float64(reused) / float64(max(internalPages, 1)),
		"core.iterations":                  float64(o.res.Iterations),
		"core.internal_busy_s":             internal.Seconds(),
		"core.external_busy_s":             external.Seconds(),
		"core.load_s":                      load.Seconds(),
		"core.busy_frac":                   float64(busy) / (float64(r.sp.threads) * float64(o.wall)),
		"core.morphs":                      float64(ot.mx.Morphs()),
		"core.unaccounted_frac":            1 - float64(elapsed)/float64(o.wall),
		"iosched.coalesced_reads":          float64(ot.mx.CoalescedReads()),
		"iosched.pages_per_coalesced_read": float64(ot.mx.CoalescedPages()) / float64(max(ot.mx.CoalescedReads(), 1)),
		"iosched.prefetch_useful_frac":     float64(hits) / float64(max(hits+wasted, 1)),
		"intersect.ops":                    float64(o.res.IntersectOps),
		"intersect.ops_per_busy_s":         float64(o.res.IntersectOps) / busy.Seconds(),
		"events.count":                     float64(ot.sink.count.Load()),
	}
	if r.sp.list {
		m["output.emit_s"] = float64(ot.emits.total.Load()) / 1e9
		m["output.bytes"] = float64(o.outBytes)
		m["output.close_s"] = o.closeTime.Seconds()
	}
	return m
}

// serialWall times one OPT_serial run with the workload's options.
func (r *optRunner) serialWall(ctx context.Context) (time.Duration, error) {
	dev, err := r.st.DeviceBackend(ssd.BackendPortable)
	if err != nil {
		return 0, err
	}
	defer dev.Close()
	start := time.Now()
	res, err := engine.Run(ctx, "OPT_serial", r.st, dev, engine.Options{
		MemoryFraction: r.sp.memFrac, QueueDepth: r.sp.channels, Latency: r.sp.latency,
	})
	if err != nil {
		return 0, err
	}
	if res.Triangles != r.expected {
		return 0, fmt.Errorf("OPT_serial counted %d triangles, reference %d: %w", res.Triangles, r.expected, errWrong)
	}
	return time.Since(start), nil
}

// virtualSpeedup runs OPT on one real worker, list-scheduling the measured
// tasks onto 1 and onto the workload's thread count of virtual cores, and
// returns the ratio of the modelled elapsed times.
func (r *optRunner) virtualSpeedup(ctx context.Context) (float64, error) {
	dev, err := r.st.DeviceBackend(ssd.BackendPortable)
	if err != nil {
		return 0, err
	}
	defer dev.Close()
	res, err := core.RunContext(ctx, r.st, dev, core.Options{
		Mode:           core.Parallel,
		Threads:        1,
		VirtualCoreSet: []int{1, r.sp.threads},
		MemoryPages:    engine.Options{MemoryFraction: r.sp.memFrac}.Budget(r.st),
		QueueDepth:     r.sp.channels,
		Latency:        r.sp.latency,
	})
	if err != nil {
		return 0, err
	}
	if res.Triangles != r.expected {
		return 0, fmt.Errorf("virtual-core OPT counted %d triangles, reference %d: %w", res.Triangles, r.expected, errWrong)
	}
	return float64(res.VirtualElapsed[1]) / float64(res.VirtualElapsed[r.sp.threads]), nil
}
