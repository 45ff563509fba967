package buffer

import (
	"sync"
	"testing"

	"github.com/optlab/opt/internal/storage"
)

func chunk(first uint32, pages int) *Chunk {
	return &Chunk{FirstPage: first, NumPages: pages}
}

func TestPoolInsertLookup(t *testing.T) {
	p := NewPool(4)
	p.Insert(chunk(0, 1))
	p.Insert(chunk(1, 2))
	if p.UsedPages() != 3 {
		t.Fatalf("UsedPages = %d, want 3", p.UsedPages())
	}
	c := p.Lookup(1)
	if c == nil || c.NumPages != 2 {
		t.Fatalf("Lookup(1) = %v", c)
	}
	if p.Lookup(9) != nil {
		t.Fatal("Lookup(9) should be nil")
	}
	if !p.Contains(0) || p.Contains(9) {
		t.Fatal("Contains wrong")
	}
}

func TestPoolEvictionFIFO(t *testing.T) {
	p := NewPool(3)
	p.Insert(chunk(0, 1))
	p.Insert(chunk(1, 1))
	p.Insert(chunk(2, 1))
	// All inserted pinned once; unpin 0 and 1 so they are evictable.
	p.Unpin(0)
	p.Unpin(1)
	evicted := p.Insert(chunk(3, 2)) // needs 2 pages -> evicts 0 then 1
	if evicted != 2 {
		t.Fatalf("evicted = %d, want 2", evicted)
	}
	if p.Contains(0) || p.Contains(1) {
		t.Fatal("FIFO eviction order violated")
	}
	if !p.Contains(2) || !p.Contains(3) {
		t.Fatal("wrong survivors")
	}
	if p.UsedPages() != 3 {
		t.Fatalf("UsedPages = %d, want 3", p.UsedPages())
	}
}

func TestPoolPinPreventsEviction(t *testing.T) {
	p := NewPool(2)
	p.Insert(chunk(0, 1)) // pinned
	p.Insert(chunk(1, 1)) // pinned
	// Everything pinned: insert overflows.
	p.Insert(chunk(2, 1))
	if !p.Contains(0) || !p.Contains(1) || !p.Contains(2) {
		t.Fatal("pinned chunk was evicted")
	}
	if p.OverflowPages() != 1 {
		t.Fatalf("OverflowPages = %d, want 1", p.OverflowPages())
	}
}

func TestPoolUnpinThenEvictable(t *testing.T) {
	p := NewPool(1)
	p.Insert(chunk(0, 1))
	c := p.Lookup(0) // second pin
	if c == nil {
		t.Fatal("Lookup failed")
	}
	p.Unpin(0)
	p.Unpin(0) // now unpinned
	p.Insert(chunk(1, 1))
	if p.Contains(0) {
		t.Fatal("chunk 0 should have been evicted")
	}
}

func TestPoolUnpinPanics(t *testing.T) {
	p := NewPool(2)
	p.Insert(chunk(0, 1))
	p.Unpin(0)
	assertPanics(t, func() { p.Unpin(0) }, "double unpin")
	assertPanics(t, func() { p.Unpin(7) }, "unpin absent")
	assertPanics(t, func() { p.Insert(chunk(0, 1)) }, "duplicate insert")
}

func assertPanics(t *testing.T, fn func(), name string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestPoolTake(t *testing.T) {
	p := NewPool(4)
	p.Insert(chunk(0, 2))
	p.Insert(chunk(2, 1))
	c := p.Take(0) // still pinned; Take succeeds regardless
	if c == nil || c.NumPages != 2 {
		t.Fatalf("Take = %v", c)
	}
	if p.Contains(0) {
		t.Fatal("Take left chunk resident")
	}
	if p.UsedPages() != 1 {
		t.Fatalf("UsedPages = %d, want 1", p.UsedPages())
	}
	if p.Take(0) != nil {
		t.Fatal("second Take should be nil")
	}
}

func TestPoolClearAndResident(t *testing.T) {
	p := NewPool(4)
	p.Insert(chunk(0, 1))
	p.Insert(chunk(5, 1))
	res := p.Resident()
	if len(res) != 2 {
		t.Fatalf("Resident = %v", res)
	}
	p.Clear()
	if p.UsedPages() != 0 || len(p.Resident()) != 0 {
		t.Fatal("Clear did not empty pool")
	}
}

func TestPoolOversizedChunkAdmitted(t *testing.T) {
	p := NewPool(2)
	p.Insert(chunk(0, 5)) // bigger than capacity
	if !p.Contains(0) {
		t.Fatal("oversized chunk rejected")
	}
	if p.OverflowPages() != 3 {
		t.Fatalf("OverflowPages = %d, want 3", p.OverflowPages())
	}
}

func TestPoolMinimumCapacity(t *testing.T) {
	p := NewPool(0)
	if p.Capacity() != 1 {
		t.Fatalf("Capacity = %d, want 1", p.Capacity())
	}
}

// TestPoolEvictionPressure hammers a small pool from many goroutines with
// Insert/Lookup/Unpin/Take so evictions race against pinning. Each worker
// owns a disjoint key range, so the pin counts of its own chunks are
// deterministic and can be checked exactly even while the other workers
// force evictions.
func TestPoolEvictionPressure(t *testing.T) {
	const (
		workers  = 8
		rounds   = 200
		capacity = 16 // far below workers*rounds pages: constant pressure
	)
	p := NewPool(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				first := uint32(w*rounds + i)
				p.Insert(chunk(first, 1))
				if got := p.PinCount(first); got != 1 {
					t.Errorf("after Insert(%d): pins = %d, want 1", first, got)
					return
				}
				if c := p.Lookup(first); c == nil {
					t.Errorf("Lookup(%d) = nil while pinned", first)
					return
				}
				if got := p.PinCount(first); got != 2 {
					t.Errorf("after Lookup(%d): pins = %d, want 2", first, got)
					return
				}
				p.Unpin(first)
				if got := p.PinCount(first); got != 1 {
					t.Errorf("after Unpin(%d): pins = %d, want 1", first, got)
					return
				}
				// A pinned chunk can never be evicted, however hard the
				// other workers push.
				if !p.Contains(first) {
					t.Errorf("pinned chunk %d evicted", first)
					return
				}
				switch i % 3 {
				case 0:
					// Release: the chunk becomes eviction fodder.
					p.Unpin(first)
				case 1:
					// Donate: Take removes it regardless of the pin.
					if c := p.Take(first); c == nil || c.FirstPage != first {
						t.Errorf("Take(%d) while pinned = %v", first, c)
						return
					}
				case 2:
					// Release, then reclaim it if it survived the others.
					p.Unpin(first)
					if c := p.Take(first); c != nil && c.FirstPage != first {
						t.Errorf("Take(%d) returned chunk %d", first, c.FirstPage)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Every surviving chunk was left unpinned, so the budget must hold and
	// no pins may leak.
	if p.UsedPages() > capacity {
		t.Fatalf("UsedPages = %d exceeds capacity %d with all pins released", p.UsedPages(), capacity)
	}
	for _, first := range p.Resident() {
		if got := p.PinCount(first); got != 0 {
			t.Fatalf("chunk %d left with %d pins", first, got)
		}
	}
	if p.PinCount(uint32(workers*rounds)) != -1 {
		t.Fatal("PinCount of absent chunk should be -1")
	}
}

// TestChunkRecycle checks the GetChunk/PutChunk free list: recycled chunks
// come back zeroed and must not retain adjacency arrays from their previous
// life.
func TestChunkRecycle(t *testing.T) {
	c := GetChunk()
	if c.FirstPage != 0 || c.NumPages != 0 || len(c.Recs) != 0 {
		t.Fatalf("fresh chunk not zeroed: %+v", c)
	}
	c.FirstPage = 7
	c.NumPages = 2
	c.Recs = append(c.Recs, storage.VertexRec{ID: 1, Adj: []uint32{2, 3}})
	PutChunk(c)
	PutChunk(nil) // must be a no-op

	d := GetChunk()
	if d.FirstPage != 0 || d.NumPages != 0 || len(d.Recs) != 0 {
		t.Fatalf("recycled chunk not reset: %+v", d)
	}
	if cap(d.Recs) > 0 {
		if r := d.Recs[:1][0]; r.Adj != nil || r.ID != 0 {
			t.Fatalf("recycled record retains data: %+v", r)
		}
	}
}

// TestPoolRecyclesEvictedChunks checks the chunk lifecycle: a chunk that
// Insert evicts goes back through PutChunk (its Recs come back cleared,
// length zero and every slot of the old length zeroed, so the free list
// pins no adjacency), while a pinned chunk is never evicted and so never
// recycled. The test keeps references it would not hold under the pin
// contract, only to observe what PutChunk did to them.
func TestPoolRecyclesEvictedChunks(t *testing.T) {
	adj := []uint32{2, 3, 5}
	withRecs := func(first uint32) *Chunk {
		c := chunk(first, 1)
		c.Recs = []storage.VertexRec{{ID: first, Adj: adj}, {ID: first + 1, Adj: adj}}
		c.Arena = []uint32{7, 8}
		return c
	}
	p := NewPool(2)
	old, pinned := withRecs(0), withRecs(1)
	p.Insert(old)
	p.Insert(pinned)
	p.Unpin(0) // old is evictable; pinned keeps its insert pin

	if evicted := p.Insert(withRecs(2)); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if p.Contains(0) || !p.Contains(1) || !p.Contains(2) {
		t.Fatalf("resident = %v, want pages 1 and 2", p.Resident())
	}
	if len(old.Recs) != 0 || len(old.Arena) != 0 {
		t.Fatalf("evicted chunk not recycled: %d recs, %d arena values", len(old.Recs), len(old.Arena))
	}
	for i, r := range old.Recs[:2] {
		if r.ID != 0 || r.Adj != nil {
			t.Fatalf("recycled record %d retains data: %+v", i, r)
		}
	}
	if len(pinned.Recs) != 2 || pinned.Recs[1].ID != 2 || len(pinned.Arena) != 2 {
		t.Fatalf("pinned chunk was recycled: %+v", pinned)
	}

	// Everything pinned: the insert overflows and recycles nothing.
	p.Insert(withRecs(3))
	if len(pinned.Recs) != 2 || p.PinCount(1) != 1 {
		t.Fatalf("pinned chunk touched under overflow: %+v, pins %d", pinned, p.PinCount(1))
	}

	// Take hands ownership back to the caller: no recycling.
	p.Unpin(1)
	if c := p.Take(1); c != pinned || len(c.Recs) != 2 {
		t.Fatalf("Take returned %+v", c)
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := uint32(w * 100)
			for i := uint32(0); i < 50; i++ {
				p.Insert(chunk(base+i, 1))
				if c := p.Lookup(base + i); c != nil {
					p.Unpin(base + i)
				}
				p.Unpin(base + i) // release insert pin
			}
		}()
	}
	wg.Wait()
	if p.UsedPages() > 64 {
		t.Fatalf("UsedPages = %d exceeds capacity with everything unpinned", p.UsedPages())
	}
}
