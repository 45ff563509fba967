package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/optlab/opt/internal/events"
	"github.com/optlab/opt/internal/ssd"
)

// The traced run records spans from outside the program: around calls
// into public functions and at its public seams (a wrapping PageDevice,
// the event sink, the OnTriangles callback, HTTP middleware). Spans stay
// in memory and are written out as Chrome trace-event JSON when the run
// ends.

// spanKind is the boundary a span was recorded at.
type spanKind uint8

const (
	// kindOp is one operation: a triangulation, or a distributed job from
	// POST to done frame.
	kindOp spanKind = iota
	// kindIter is one OPT iteration, from its IterationStart event to its
	// IterationEnd event.
	kindIter
	// kindRead is one read through the wrapped page device.
	kindRead
	// kindEmit aggregates OnTriangles calls: its length is the summed time
	// of the calls, its start the first call's start.
	kindEmit
	// kindTask is one agent /tasks request, from HTTP middleware.
	kindTask
	numKinds
)

var kindNames = [numKinds]string{"op", "core.iteration", "ssd.read", "output.emit", "server.task"}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch.
type span struct {
	kind       spanKind
	op         int32  // operation id; -1 until resolved through the parent
	lane       int32  // agent index of reads and tasks on dist-serve
	key        string // job id of op and task spans on dist-serve
	start, end int64
	n          int64 // pages of a read, index of an iteration
	parent     int32 // index of the parent span; -1 for roots
}

// tracer holds every span of a run.
type tracer struct {
	epoch time.Time
	// opLayer is the layer charged with an operation span's self time.
	opLayer string
	mu      sync.Mutex
	spans   []span
}

func newTracer(opLayer string) *tracer {
	return &tracer{epoch: time.Now(), opLayer: opLayer}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	s.parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerOf names the layer a span's self time is charged to.
func (t *tracer) layerOf(k spanKind) string {
	switch k {
	case kindOp:
		return t.opLayer
	case kindIter:
		return "core"
	case kindRead:
		return "ssd"
	case kindEmit:
		return "output"
	default:
		return "server"
	}
}

// ioCounters accumulates what the wrapped device saw.
type ioCounters struct {
	reads, pages, readNS, simNS atomic.Int64
}

// tracedDevice wraps a page device, timing every read. It hides the
// native backend's completion ring, so it is only attached to the
// portable backend.
type tracedDevice struct {
	ssd.PageDevice
	into ssd.IntoReader
	t    *tracer
	op   int32
	lane int32
	lat  ssd.Latency
	c    *ioCounters
}

func newTracedDevice(dev ssd.PageDevice, t *tracer, op, lane int32, lat ssd.Latency, c *ioCounters) *tracedDevice {
	into, _ := dev.(ssd.IntoReader)
	return &tracedDevice{PageDevice: dev, into: into, t: t, op: op, lane: lane, lat: lat, c: c}
}

func (d *tracedDevice) ReadPages(first uint32, count int) ([]byte, error) {
	start := d.t.now()
	data, err := d.PageDevice.ReadPages(first, count)
	d.record(start, count)
	return data, err
}

func (d *tracedDevice) ReadPagesInto(buf []byte, first uint32, count int) error {
	start := d.t.now()
	var err error
	if d.into != nil {
		err = d.into.ReadPagesInto(buf, first, count)
	} else {
		var data []byte
		data, err = d.PageDevice.ReadPages(first, count)
		copy(buf, data)
	}
	d.record(start, count)
	return err
}

func (d *tracedDevice) record(start int64, count int) {
	end := d.t.now()
	d.c.reads.Add(1)
	d.c.pages.Add(int64(count))
	d.c.readNS.Add(end - start)
	d.c.simNS.Add(int64(d.lat.Cost(count)))
	d.t.add(span{kind: kindRead, op: d.op, lane: d.lane, start: start, end: end, n: int64(count)})
}

// iterSink is the traced run's event sink: it counts events and turns
// IterationStart/IterationEnd pairs into iteration spans.
type iterSink struct {
	t      *tracer
	op     int32
	count  atomic.Int64
	cur    atomic.Int32
	mu     sync.Mutex
	starts map[int]int64
}

func newIterSink(t *tracer, op int32) *iterSink {
	return &iterSink{t: t, op: op, starts: make(map[int]int64)}
}

func (s *iterSink) Event(e events.Event) {
	s.count.Add(1)
	switch e.Kind {
	case events.IterationStart:
		now := s.t.now()
		s.mu.Lock()
		s.starts[e.Iteration] = now
		s.mu.Unlock()
		s.cur.Store(int32(e.Iteration))
	case events.IterationEnd:
		now := s.t.now()
		s.mu.Lock()
		start, ok := s.starts[e.Iteration]
		s.mu.Unlock()
		if ok {
			s.t.add(span{kind: kindIter, op: s.op, start: start, end: now, n: int64(e.Iteration)})
		}
	}
}

// emitLanes bounds the emit spans open at once; more concurrent emitters
// than lanes still count their time, without a span.
const emitLanes = 8

// emitRecorder times OnTriangles calls. Calls are aggregated into one
// span per lane and iteration, since one span per call would outweigh the
// calls themselves.
type emitRecorder struct {
	t     *tracer
	op    int32
	iter  *atomic.Int32
	total atomic.Int64
	lanes [emitLanes]emitLane
}

type emitLane struct {
	mu          sync.Mutex
	open        bool
	iter        int32
	start, busy int64
}

func (r *emitRecorder) wrap(fn func(u, v uint32, ws []uint32)) func(u, v uint32, ws []uint32) {
	return func(u, v uint32, ws []uint32) {
		start := r.t.now()
		fn(u, v, ws)
		d := r.t.now() - start
		r.total.Add(d)
		it := r.iter.Load()
		for i := range r.lanes {
			l := &r.lanes[i]
			if !l.mu.TryLock() {
				continue
			}
			if l.open && l.iter != it {
				r.flush(l)
			}
			if !l.open {
				l.open, l.iter, l.start, l.busy = true, it, start, 0
			}
			l.busy += d
			l.mu.Unlock()
			return
		}
	}
}

func (r *emitRecorder) flush(l *emitLane) {
	r.t.add(span{kind: kindEmit, op: r.op, start: l.start, end: l.start + l.busy})
	l.open = false
}

// close flushes every open lane; emitters must have stopped.
func (r *emitRecorder) close() {
	for i := range r.lanes {
		l := &r.lanes[i]
		l.mu.Lock()
		if l.open {
			r.flush(l)
		}
		l.mu.Unlock()
	}
}

// resolve links every span to its parent:
//   - an iteration to its operation;
//   - a read or emit of a known operation to the iteration of that
//     operation whose interval holds its start, else to the operation;
//   - a task to the operation (distributed job) named by its key;
//   - a read of no known operation (an agent's read) to the earliest
//     started task on the same agent whose interval holds its start. An
//     agent runs one task at a time, in arrival order, so that is the
//     task the read served.
func (t *tracer) resolve() {
	ops := map[int32]int32{}
	byKey := map[string]int32{}
	iters := map[int32][]int32{}
	tasks := map[int32][]int32{}
	for i, s := range t.spans {
		switch s.kind {
		case kindOp:
			ops[s.op] = int32(i)
			if s.key != "" {
				byKey[s.key] = int32(i)
			}
		case kindIter:
			iters[s.op] = append(iters[s.op], int32(i))
		case kindTask:
			tasks[s.lane] = append(tasks[s.lane], int32(i))
		}
	}
	byStart := func(ix []int32) {
		sort.Slice(ix, func(a, b int) bool { return t.spans[ix[a]].start < t.spans[ix[b]].start })
	}
	for _, ix := range iters {
		byStart(ix)
	}
	for _, ix := range tasks {
		byStart(ix)
	}
	// Operations and tasks first: an agent's read takes its operation
	// from its task.
	for i := range t.spans {
		s := &t.spans[i]
		switch s.kind {
		case kindIter:
			if p, ok := ops[s.op]; ok {
				s.parent = p
			}
		case kindTask:
			if p, ok := byKey[s.key]; ok {
				s.parent = p
				s.op = t.spans[p].op
			}
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.kind != kindRead && s.kind != kindEmit {
			continue
		}
		if s.op < 0 {
			for _, ti := range tasks[s.lane] {
				ts := t.spans[ti]
				if ts.start > s.start {
					break
				}
				if ts.end >= s.start {
					s.parent, s.op = ti, ts.op
					break
				}
			}
			continue
		}
		if p, ok := ops[s.op]; ok {
			s.parent = p
		}
		ix := iters[s.op]
		k := sort.Search(len(ix), func(j int) bool { return t.spans[ix[j]].start > s.start }) - 1
		if k >= 0 && t.spans[ix[k]].end >= s.start {
			s.parent = ix[k]
		}
	}
}

// selfByLayer returns each layer's self time in seconds, summed over all
// spans: a span's length minus the part of it its children cover.
// Children of one span may overlap each other; their union is subtracted.
func (t *tracer) selfByLayer() map[string]float64 {
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := map[string]float64{}
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range t.spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			cs := t.spans[c]
			a, b := max(cs.start, s.start), min(cs.end, s.end)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[t.layerOf(s.kind)] += float64(s.end-s.start-covered) / 1e9
	}
	return self
}

// chromeEvent is one record of the Chrome trace-event format, which
// Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span as a complete ("X") event. Each operation
// is one process; within it, each span kind gets as many threads as its
// spans overlap, assigned first-fit in start order.
func (t *tracer) writeChrome(path string) error {
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return t.spans[order[a]].start < t.spans[order[b]].start })
	type track struct {
		op   int32
		kind spanKind
	}
	laneEnds := map[track][]int64{}
	evs := make([]chromeEvent, 0, len(t.spans)+16)
	named := map[[2]int32]bool{}
	for _, i := range order {
		s := t.spans[i]
		tr := track{s.op, s.kind}
		ends := laneEnds[tr]
		lane := len(ends)
		for l, e := range ends {
			if e <= s.start {
				lane = l
				break
			}
		}
		if lane == len(ends) {
			ends = append(ends, 0)
		}
		ends[lane] = s.end
		laneEnds[tr] = ends
		pid, tid := s.op+1, int32(s.kind)*1000+int32(lane)
		if !named[[2]int32{pid, tid}] {
			named[[2]int32{pid, tid}] = true
			evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": kindNames[s.kind]}})
		}
		args := map[string]any{"op": s.op, "parent": s.parent}
		switch s.kind {
		case kindRead:
			args["pages"] = s.n
		case kindIter:
			args["iteration"] = s.n
		}
		if s.key != "" {
			args["job"] = s.key
		}
		evs = append(evs, chromeEvent{
			Name: kindNames[s.kind], Cat: t.layerOf(s.kind), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: pid, Tid: tid, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
