package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/optlab/opt/internal/gen"
	"github.com/optlab/opt/internal/graph"
	"github.com/optlab/opt/internal/metrics"
	"github.com/optlab/opt/internal/storage"
)

// TestRunAllocsPerPageDecoded pins the garbage of a whole external-memory
// run, not only of the isolated kernels: with a budget small enough that
// the external pool evicts on nearly every insert, Serial and Parallel
// RunFile must allocate less than a quarter page of bytes per page
// decoded. The pin holds because evicted chunks go back to the free list
// with their Recs and Arena capacity and decode grows each slice at most
// once per call; a decode that starts every chunk from empty slices
// allocates more than a page's worth per page.
func TestRunAllocsPerPageDecoded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and randomises sync.Pool caching")
	}
	if testing.Short() {
		t.Skip("whole-run measurement")
	}
	raw, err := gen.RMAT(gen.DefaultRMAT(1<<15, 400_000, 17))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.DegreeOrder(raw)
	want := graph.CountTrianglesReference(g)
	const pageSize = 4096
	for _, codec := range []string{storage.CodecRaw, storage.CodecDeltaVarint} {
		st, err := storage.BuildFileCodec(filepath.Join(t.TempDir(), codec+".optstore"), g, pageSize, codec)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{Serial, Parallel} {
			name := fmt.Sprintf("%s/%v", codec, mode)
			mx := metrics.NewCollector()
			opts := Options{Mode: mode, Threads: 2, MemoryPages: int(st.NumPages) / 32, Metrics: mx}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := RunFile(st, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Triangles != want {
				t.Fatalf("%s: triangles = %d, want %d", name, res.Triangles, want)
			}
			pages := mx.PagesRead()
			if pages < 4*int64(st.NumPages) {
				t.Fatalf("%s: %d pages decoded for a %d-page store: the budget does not evict", name, pages, st.NumPages)
			}
			perPage := float64(after.TotalAlloc-before.TotalAlloc) / float64(pages)
			t.Logf("%s: %d pages decoded (%d-page store, %d iterations), %.0f B allocated per page",
				name, pages, st.NumPages, res.Iterations, perPage)
			if perPage >= pageSize/4 {
				t.Errorf("%s: %.0f B allocated per page decoded, want < %d (a quarter page)", name, perPage, pageSize/4)
			}
		}
	}
}
