package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/optlab/opt/internal/graph"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// lastLine decodes the result line, the last line of standard output.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return res
}

func runArgs(t *testing.T, root string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), append([]string{"--root", root, "--tiny", "--seconds", "0.2"}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// checkTraceFile checks that a traced run left Chrome trace-event JSON
// with complete events of the given kinds.
func checkTraceFile(t *testing.T, path string, kinds ...string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" {
			seen[e.Name] = true
		}
	}
	for _, k := range kinds {
		if !seen[k] {
			t.Errorf("trace file has no %s span", k)
		}
	}
}

// spanKinds are the spans each workload's trace must hold.
var spanKinds = map[string][]string{
	"io-overlap": {"op", "core.iteration", "ssd.read"},
	"cpu-list":   {"op", "core.iteration", "ssd.read", "output.emit"},
	"dist-serve": {"op", "server.task", "ssd.read"},
}

// TestWorkloadsMatchBenchmarkFile runs every workload of BENCHMARK.json at
// tiny scale, untraced and traced, and checks that each run is correct
// and prints exactly the metric set with the declared units.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				root := t.TempDir()
				code, stdout, stderr := runArgs(t, root, "--workload", w.Name, "--trace", trace)
				if code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, stdout, stderr)
				}
				res := lastLine(t, stdout)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json has %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", d.Name, m.Unit, d.Unit)
					}
					if !strings.Contains(stdout, d.Name) {
						t.Errorf("metric %s missing from the table", d.Name)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if trace == "1" {
					cfg := config{workload: w.Name, root: root}
					checkTraceFile(t, cfg.traceFile(), spanKinds[w.Name]...)
				}
			})
		}
	}
}

// TestWrongCountFails shows that an answer disagreeing with the expected
// count fails the run: it prints "correct": false and exits non-zero.
func TestWrongCountFails(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cfg := config{workload: name, seed: DefaultSeed, seconds: 0.2, root: t.TempDir(), tiny: true, expectBias: 1}
			if code := execute(context.Background(), cfg, &stdout, &stderr); code != 1 {
				t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
			}
			res := lastLine(t, stdout.String())
			if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
				t.Fatalf("correct %v, %d of %d failed; want a failed run", res.Correct, res.Failed, res.Attempted)
			}
			if !strings.Contains(stderr.String(), "wrong answer") {
				t.Errorf("stderr names no wrong answer:\n%s", stderr.String())
			}
		})
	}
}

// TestUsageErrors checks that bad flags exit 2 without a result line.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "io-overlap", "--trace", "2"},
		{"--workload", "io-overlap", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v printed %q", args, stdout.String())
		}
	}
}

// TestInputsRepeat checks that a seed always gives the same graph.
func TestInputsRepeat(t *testing.T) {
	edges := func() []graph.Edge {
		g, err := holmeKimGraph(3000, 5, 0.9, 42)
		if err != nil {
			t.Fatal(err)
		}
		var out []graph.Edge
		g.Edges(func(u, v graph.VertexID) bool {
			out = append(out, graph.Edge{U: u, V: v})
			return true
		})
		return out
	}
	if a, b := edges(), edges(); !slices.Equal(a, b) {
		t.Fatalf("seed 42 gave %d edges, then %d different ones", len(a), len(b))
	}
}

// TestSelfTime checks self-time accounting on a hand-made span tree: a
// span's self time is its length minus the union of its children.
func TestSelfTime(t *testing.T) {
	tr := newTracer("bench")
	tr.add(span{kind: kindOp, op: 0, start: 0, end: 100})
	tr.add(span{kind: kindIter, op: 0, start: 10, end: 60})
	tr.add(span{kind: kindRead, op: 0, start: 20, end: 40})
	tr.add(span{kind: kindRead, op: 0, start: 30, end: 50}) // overlaps the read before
	tr.add(span{kind: kindRead, op: 0, start: 70, end: 80}) // outside every iteration
	tr.resolve()
	want := map[string]float64{
		"bench": 100 - 50 - 10, // minus the iteration and the read outside it
		"core":  50 - 30,       // minus the union [20, 50) of its two reads
		"ssd":   20 + 20 + 10,
	}
	got := tr.selfByLayer()
	for layer, ns := range want {
		if g := got[layer] * 1e9; g < ns-1e-6 || g > ns+1e-6 {
			t.Errorf("self time of %s = %v ns, want %v", layer, g, ns)
		}
	}
}
