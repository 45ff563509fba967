package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/optlab/opt/internal/cluster"
	"github.com/optlab/opt/internal/server"
	"github.com/optlab/opt/internal/ssd"
	"github.com/optlab/opt/internal/storage"
)

// distSpec fixes the dist-serve workload.
type distSpec struct {
	pageSize int
	grid     int // tasks per job: grid·(grid+1)/2
	agents   int
	clients  int
	// budgetSpread is how many distinct memory_pages values fresh jobs
	// draw from, starting at twice the largest block.
	budgetSpread int
}

// storeName is the name every optd of the fleet registers the store as.
const storeName = "g"

// runDistServe: a coordinator optd and two agent optds, in process on
// loopback listeners, serving a closed loop of clients that each submit a
// distributed job and wait for its done frame.
func runDistServe(ctx context.Context, cfg config) (*outcome, error) {
	v, m := 20_000, 5
	sp := distSpec{pageSize: 4096, grid: 4, agents: 2, clients: 2, budgetSpread: 1 << 10}
	if cfg.tiny {
		v, m = 1000, 3
		sp.pageSize = 1024
	}
	g, err := holmeKimGraph(v, m, 0.9, cfg.seed)
	if err != nil {
		return nil, err
	}
	in := newInput(g)
	out := &outcome{metrics: map[string]float64{}}

	// Set-up is the store build and open plus the fleet's start-up.
	storePath := filepath.Join(cfg.workDir(), "g.optstore")
	inst := &distInstr{}
	var f *fleet
	var st *storage.Store
	var builds, setups []float64
	for start := time.Now(); moreSetups(start, len(setups)); {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		if _, err := storage.BuildFileCodec(storePath, in.g, sp.pageSize, storage.CodecDeltaVarint); err != nil {
			return nil, fmt.Errorf("building the store: %w", err)
		}
		builds = append(builds, time.Since(t0).Seconds())
		if st, err = storage.Open(storePath); err != nil {
			return nil, err
		}
		if f, err = startFleet(storePath, sp.agents, inst); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.stop()

	d := &distRunner{
		sp: sp, f: f, inst: inst, expected: in.ref + cfg.expectBias,
		rng:        rand.New(rand.NewSource(cfg.seed)),
		baseBudget: 2 * maxBlockPages(st, sp.grid),
		client:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * sp.clients}},
	}
	defer d.client.CloseIdleConnections()
	d.repeatSlot = d.rng.Intn(4)
	d.budgets = d.rng.Perm(sp.budgetSpread)

	// Two jobs before timing warm the connections and the page cache.
	// Their answers are checked like any other.
	if err := d.phase(ctx, 0, false, 2); err != nil {
		return nil, err
	}
	d.account(out)
	if cfg.trace {
		return out, d.traced(ctx, cfg, st, out, median(builds))
	}

	// Cost_CPU is measured around the phase, five times before it and five
	// after, and the median taken.
	var costs []float64
	inMemoryCount := func() error {
		for i := 0; i < 5; i++ {
			c, err := in.costCPU()
			if err != nil {
				return err
			}
			costs = append(costs, c)
		}
		return nil
	}
	if err := inMemoryCount(); err != nil {
		return nil, err
	}
	d.reset()
	hits0 := f.agentCacheHits()
	heap := startHeapSampler(time.Second)
	start := time.Now()
	err = d.phase(ctx, cfg.seconds, false, 0)
	wall := time.Since(start)
	heapMB := heap.Stop()
	if err != nil {
		return nil, err
	}
	d.account(out)
	d.checkCacheHits(out, f.agentCacheHits()-hits0)
	if err := inMemoryCount(); err != nil {
		return nil, err
	}
	costCPU := median(costs)
	walls := d.walls()
	p50 := median(walls)
	out.metrics["setup_s"] = median(setups)
	out.metrics["run_s_p50"] = p50
	out.metrics["run_s_p90"] = quantile(walls, 0.9)
	out.metrics["edges_per_s"] = float64(st.NumEdges) * float64(len(walls)) / wall.Seconds()
	out.metrics["ideal_ratio"] = p50 / costCPU
	out.metrics["heap_peak_mb"] = heapMB
	return out, nil
}

// maxBlockPages is the most pages one grid block's records span, so a
// budget of twice it loads every block of a task in one read each.
func maxBlockPages(st *storage.Store, dim int) int {
	grid, err := cluster.NewGrid(dim, st.NumVertices)
	if err != nil {
		return 1
	}
	most := 1
	for i := 0; i < dim; i++ {
		lo, hi := grid.Range(i)
		if lo >= hi {
			continue
		}
		first := st.FirstPageOf(lo)
		p := first
		for p < st.NumPages && st.FirstRecordOf(p) < hi {
			p += uint32(st.AlignedRange(p, 1))
		}
		most = max(most, int(p-first))
	}
	return most
}

// fleet is one coordinator optd and its agent optds.
type fleet struct {
	coord     *server.Manager
	coordURL  string
	agentURLs []string
	managers  []*server.Manager
	servers   []*httptest.Server
}

// startFleet starts the agents, each with one worker so at most one task
// per agent computes at a time, then the coordinator.
func startFleet(storePath string, agents int, inst *distInstr) (*fleet, error) {
	f := &fleet{}
	add := func(cfg server.Config, wrap func(http.Handler) http.Handler) (*server.Manager, string, error) {
		m := server.New(cfg)
		f.managers = append(f.managers, m)
		if err := m.RegisterStore(storeName, storePath); err != nil {
			return nil, "", err
		}
		s := httptest.NewServer(wrap(server.NewHandler(m)))
		f.servers = append(f.servers, s)
		return m, s.URL, nil
	}
	for i := 0; i < agents; i++ {
		_, url, err := add(server.Config{Workers: 1, WrapDevice: inst.wrapDevice(i)},
			func(h http.Handler) http.Handler { return inst.middleware(i, h) })
		if err != nil {
			f.stop()
			return nil, err
		}
		f.agentURLs = append(f.agentURLs, url)
	}
	m, url, err := add(server.Config{DefaultAgents: f.agentURLs}, func(h http.Handler) http.Handler { return h })
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord, f.coordURL = m, url
	return f, nil
}

// stop closes the listeners, then drains every manager.
func (f *fleet) stop() {
	for _, s := range f.servers {
		s.Close()
	}
	for _, m := range f.managers {
		m.Drain(5 * time.Second)
	}
}

// agentCacheHits sums the agents' result-cache hits.
func (f *fleet) agentCacheHits() int64 {
	var n int64
	for _, m := range f.managers {
		if m != f.coord {
			n += m.CacheHits()
		}
	}
	return n
}

// distInstr is the fleet's instrumentation: task middleware and device
// wrappers that record only while on is set.
type distInstr struct {
	on       atomic.Bool
	t        *tracer
	io       ioCounters
	rejected atomic.Int64

	mu    sync.Mutex
	taskS []float64
}

func (in *distInstr) wrapDevice(agent int) func(ssd.PageDevice) ssd.PageDevice {
	return func(dev ssd.PageDevice) ssd.PageDevice {
		if !in.on.Load() {
			return dev
		}
		return newTracedDevice(dev, in.t, -1, int32(agent), ssd.Latency{}, &in.io)
	}
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware times an agent's /tasks requests and counts its refusals.
func (in *distInstr) middleware(agent int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/tasks" || !in.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var task cluster.TaskMessage
		_ = json.Unmarshal(body, &task) // the handler reports a malformed frame itself
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := in.t.now()
		next.ServeHTTP(sw, r)
		end := in.t.now()
		in.t.add(span{kind: kindTask, op: -1, lane: int32(agent), key: task.Job, start: start, end: end})
		in.mu.Lock()
		in.taskS = append(in.taskS, float64(end-start)/1e9)
		in.mu.Unlock()
		if sw.code == http.StatusTooManyRequests {
			in.rejected.Add(1)
		}
	})
}

// distRunner drives the closed loop of clients.
type distRunner struct {
	sp       distSpec
	f        *fleet
	inst     *distInstr
	expected int64
	client   *http.Client

	rng        *rand.Rand
	repeatSlot int   // which job of every four repeats an earlier spec
	budgets    []int // seeded order of fresh memory_pages offsets
	baseBudget int

	mu      sync.Mutex
	seq     int   // jobs submitted so far
	fresh   int   // fresh budgets used so far
	done    []int // budgets of completed fresh jobs
	jobs    []jobResult
	repeats int

	ops atomic.Int32 // traced jobs so far, the next one's operation id
}

// jobResult is one distributed job as its client saw it.
type jobResult struct {
	traced    bool
	repeat    bool
	submit    time.Duration
	wall      time.Duration
	frames    int
	progress  int
	rejected  bool
	err       error
	status    server.DistStatus
	startedAt time.Time
}

// reset forgets the jobs recorded so far.
func (d *distRunner) reset() {
	d.mu.Lock()
	d.jobs = nil
	d.repeats = 0
	d.mu.Unlock()
}

// nextSpec picks the next job's memory_pages: every fourth job (the slot
// chosen by the seed) repeats a completed fresh job's budget, so its
// tasks are answered from the agents' result cache; the others take the
// next unused budget, so theirs miss it.
func (d *distRunner) nextSpec() (budget int, repeat bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	k := d.seq
	d.seq++
	if k >= 4 && k%4 == d.repeatSlot && len(d.done) > 0 {
		return d.done[d.rng.Intn(len(d.done))], true
	}
	b := d.baseBudget + d.budgets[d.fresh%len(d.budgets)]
	d.fresh++
	return b, false
}

// phase runs the clients until seconds have passed, or until jobs jobs
// have completed when jobs > 0, and waits for every client to finish.
func (d *distRunner) phase(ctx context.Context, seconds float64, traced bool, jobs int) error {
	d.inst.on.Store(traced)
	defer d.inst.on.Store(false)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var started atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, d.sp.clients)
	for c := 0; c < d.sp.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if jobs > 0 && started.Add(1) > int64(jobs) {
					return
				}
				if jobs == 0 && !time.Now().Before(deadline) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs <- err
					return
				}
				d.job(ctx, traced)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// job submits one distributed job and follows its event stream to the
// done frame.
func (d *distRunner) job(ctx context.Context, traced bool) {
	budget, repeat := d.nextSpec()
	jr := jobResult{traced: traced, repeat: repeat, startedAt: time.Now()}
	d.run(ctx, budget, &jr)
	jr.wall = time.Since(jr.startedAt)
	if jr.err == nil {
		jr.err = d.check(jr.status)
	}
	d.mu.Lock()
	d.jobs = append(d.jobs, jr)
	if jr.err == nil && !repeat {
		d.done = append(d.done, budget)
	}
	if repeat {
		d.repeats++
	}
	d.mu.Unlock()
	if traced && jr.status.ID != "" {
		t := d.inst.t
		start := t.now() - int64(jr.wall)
		t.add(span{kind: kindOp, op: d.ops.Add(1) - 1, key: jr.status.ID, start: start, end: t.now()})
	}
}

func (d *distRunner) run(ctx context.Context, budget int, jr *jobResult) {
	spec, _ := json.Marshal(server.DistSpec{
		Store: storeName, Agents: d.f.agentURLs, Grid: d.sp.grid,
		Codec: storage.CodecDeltaVarint, MemoryPages: budget,
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.f.coordURL+"/dist/jobs", bytes.NewReader(spec))
	if err != nil {
		jr.err = err
		return
	}
	resp, err := d.client.Do(req)
	if err != nil {
		jr.err = err
		return
	}
	var st server.DistStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	jr.submit = time.Since(jr.startedAt)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		jr.rejected = true
		jr.err = fmt.Errorf("job refused: %s", resp.Status)
		return
	case resp.StatusCode != http.StatusAccepted:
		jr.err = fmt.Errorf("submitting a job: %s", resp.Status)
		return
	case err != nil:
		jr.err = err
		return
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, d.f.coordURL+"/dist/jobs/"+st.ID+"/events", nil)
	if err != nil {
		jr.err = err
		return
	}
	resp, err = d.client.Do(req)
	if err != nil {
		jr.err = err
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			jr.frames++
			if event == "progress" {
				jr.progress++
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			jr.err = json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &jr.status)
			return
		}
	}
	jr.err = fmt.Errorf("event stream of job %s ended without a done frame: %v", st.ID, sc.Err())
}

// check compares a done frame with the reference.
func (d *distRunner) check(st server.DistStatus) error {
	switch {
	case st.State != "done":
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Report == nil:
		return fmt.Errorf("job %s has no report", st.ID)
	case st.Report.Triangles != d.expected:
		return fmt.Errorf("job %s merged %d triangles, reference %d", st.ID, st.Report.Triangles, d.expected)
	case st.Report.Duplicates != 0:
		return fmt.Errorf("job %s merged with %d duplicate results", st.ID, st.Report.Duplicates)
	case len(st.Report.Failed) != 0:
		return fmt.Errorf("job %s lost tasks %v", st.ID, st.Report.Failed)
	}
	return nil
}

// walls returns every successful job's wall time in seconds.
func (d *distRunner) walls() []float64 {
	var out []float64
	for _, j := range d.jobs {
		if j.err == nil {
			out = append(out, j.wall.Seconds())
		}
	}
	return out
}

// account books the recorded jobs into the outcome.
func (d *distRunner) account(out *outcome) {
	for i, j := range d.jobs {
		out.attempted++
		if j.err != nil {
			out.fail("job %d: %v", i, j.err)
		}
	}
}

// traced alternates untraced and traced windows of the timed phase, then
// fills the per-layer metrics from the traced jobs.
func (d *distRunner) traced(ctx context.Context, cfg config, st *storage.Store, out *outcome, buildS float64) error {
	d.inst.t = newTracer("cluster")
	d.reset()
	hits0 := d.f.agentCacheHits()
	var tracedWall time.Duration
	var agentJobs []server.Status
	window := cfg.seconds / 4
	for w := 0; w < 4; w++ {
		traced := w%2 == 1
		start := time.Now()
		if err := d.phase(ctx, window, traced, 0); err != nil {
			return err
		}
		if traced {
			tracedWall += time.Since(start)
			agentJobs = append(agentJobs, d.agentJobsSince(start)...)
		}
	}
	d.account(out)
	hits := d.f.agentCacheHits() - hits0
	d.checkCacheHits(out, hits)

	var plain, traced, submit, sse, progress, dispatched, retries, dups, ops, taskS, straggle []float64
	var rejected, tracedJobs int
	var freshOps float64
	for _, j := range d.jobs {
		if j.rejected && j.traced {
			rejected++
		}
		if j.err != nil {
			continue
		}
		if !j.traced {
			plain = append(plain, j.wall.Seconds())
			continue
		}
		tracedJobs++
		traced = append(traced, j.wall.Seconds())
		submit = append(submit, j.submit.Seconds())
		sse = append(sse, float64(j.frames))
		progress = append(progress, float64(j.progress))
		r := j.status.Report
		dispatched = append(dispatched, float64(r.Dispatched))
		retries = append(retries, float64(r.Retries))
		dups = append(dups, float64(r.Duplicates))
		var jobOps float64
		var per []float64
		for _, t := range r.PerTask {
			jobOps += float64(t.Report.IntersectOps)
			per = append(per, float64(t.Report.ElapsedNS)/1e9)
		}
		ops = append(ops, jobOps)
		if !j.repeat {
			freshOps += jobOps
		}
		if !j.repeat && len(per) > 0 {
			taskS = append(taskS, per...)
			straggle = append(straggle, quantile(per, 1)/median(per))
		}
	}
	if tracedJobs == 0 {
		return fmt.Errorf("no traced job succeeded")
	}

	var queueWait []float64
	var busy time.Duration
	executed := 0
	for _, s := range agentJobs {
		if s.Cached || s.Started == nil || s.Finished == nil {
			continue
		}
		executed++
		queueWait = append(queueWait, s.Started.Sub(s.Created).Seconds())
		busy += s.Finished.Sub(*s.Started)
	}

	m := out.metrics
	n := float64(tracedJobs)
	m["storage.build_s"] = buildS
	m["storage.pages"] = float64(st.NumPages)
	m["storage.bytes_per_edge"] = float64(st.NumPages) * float64(st.PageSize) / float64(st.NumEdges)
	m["ssd.reads"] = float64(d.inst.io.reads.Load()) / n
	m["ssd.pages_read"] = float64(d.inst.io.pages.Load()) / n
	m["ssd.pages_per_read"] = float64(d.inst.io.pages.Load()) / float64(max(d.inst.io.reads.Load(), 1))
	m["ssd.read_s"] = float64(d.inst.io.readNS.Load()) / 1e9 / n
	m["ssd.inflight_mean"] = float64(d.inst.io.readNS.Load()) / float64(tracedWall)
	m["intersect.ops"] = median(ops)
	m["intersect.ops_per_busy_s"] = freshOps / busy.Seconds()
	m["events.count"] = median(progress)
	m["server.submit_s_p50"] = median(submit)
	d.inst.mu.Lock()
	m["server.task_s_p50"] = median(d.inst.taskS)
	d.inst.mu.Unlock()
	m["server.queue_wait_s_p50"] = median(queueWait)
	if d.repeats > 0 {
		m["server.cache_hits"] = float64(hits) / float64(d.repeats)
	}
	m["server.rejected"] = float64(int64(rejected)+d.inst.rejected.Load()) / n
	m["server.sse_frames"] = median(sse)
	m["cluster.dispatched"] = median(dispatched)
	m["cluster.retries"] = mean(retries)
	m["cluster.duplicates"] = mean(dups)
	m["cluster.task_s_p50"] = median(taskS)
	m["cluster.task_s_max"] = quantile(taskS, 1)
	m["cluster.straggle_ratio"] = median(straggle)
	m["cluster.agent_busy_frac"] = busy.Seconds() / (float64(d.sp.agents) * tracedWall.Seconds())
	m["cluster.pages_read_per_task"] = float64(d.inst.io.pages.Load()) / float64(max(executed, 1))
	m["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1

	decodeNS, recs, err := decodeReplay(st)
	if err != nil {
		return err
	}
	m["storage.decode_ns_per_page"] = decodeNS
	m["intersect.ns_per_op"] = intersectReplay(recs, st.NumVertices, kernelShard)

	t := d.inst.t
	t.resolve()
	for layer, s := range t.selfByLayer() {
		m["self."+layer+"_s"] = s / n
	}
	return t.writeChrome(cfg.traceFile())
}

// checkCacheHits fails the run unless every task of every repeated job,
// and nothing else, was answered from the agents' result cache.
func (d *distRunner) checkCacheHits(out *outcome, hits int64) {
	if want := int64(d.repeats * d.tasks()); hits != want {
		out.fail("agents served %d tasks from the cache, want %d (%d repeated jobs)", hits, want, d.repeats)
	}
}

// tasks is the number of shard-pair tasks per job.
func (d *distRunner) tasks() int { return d.sp.grid * (d.sp.grid + 1) / 2 }

// agentJobsSince lists the agents' jobs created at or after since.
func (d *distRunner) agentJobsSince(since time.Time) []server.Status {
	var out []server.Status
	for _, m := range d.f.managers {
		if m == d.f.coord {
			continue
		}
		for _, j := range m.Jobs() {
			if s := j.Status(); !s.Created.Before(since) {
				out = append(out, s)
			}
		}
	}
	return out
}
