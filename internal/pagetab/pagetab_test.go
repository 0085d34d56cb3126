package pagetab

import (
	"slices"
	"testing"
)

func TestTableLazyChunks(t *testing.T) {
	const pages = 2*ChunkPages + 3 // last chunk partial
	tab := New[*int](pages)
	if len(tab.chunks) != 3 {
		t.Fatalf("chunk directory has %d entries, want 3", len(tab.chunks))
	}
	for _, i := range []uint64{0, ChunkPages - 1, ChunkPages, pages - 1} {
		if tab.Get(i) != nil {
			t.Fatalf("Get(%d) on an empty table is not empty", i)
		}
	}
	if tab.chunks[0] != nil || tab.chunks[1] != nil || tab.chunks[2] != nil {
		t.Fatal("Get allocated a chunk")
	}
	a, b := new(int), new(int)
	tab.Set(pages-1, a)
	tab.Set(0, b)
	if tab.chunks[1] != nil {
		t.Fatal("Set allocated a chunk it does not touch")
	}
	if tab.Get(pages-1) != a || tab.Get(0) != b || tab.Get(1) != nil || tab.Get(ChunkPages*2) != nil {
		t.Fatal("Get after Set returns the wrong slots")
	}
	tab.Set(ChunkPages, a)
	if got, want := tab.AppendFull([]uint64{99}), []uint64{99, 0, ChunkPages, pages - 1}; !slices.Equal(got, want) {
		t.Fatalf("AppendFull = %v, want %v", got, want)
	}
	tab.Set(0, nil)
	if tab.Get(0) != nil || tab.chunks[0] == nil {
		t.Fatal("clearing a slot must empty it and keep its chunk")
	}
	if got, want := tab.AppendFull(nil), []uint64{ChunkPages, pages - 1}; !slices.Equal(got, want) {
		t.Fatalf("AppendFull after clear = %v, want %v", got, want)
	}
}

func TestTableSteadyStateAllocFree(t *testing.T) {
	tab := New[*int](4 * ChunkPages)
	v := new(int)
	for i := uint64(0); i < 4*ChunkPages; i += ChunkPages {
		tab.Set(i, v) // allocate every chunk
	}
	i := uint64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		tab.Set(i%(4*ChunkPages), v)
		tab.Set(i%(4*ChunkPages), nil)
		i += 7
	}); avg != 0 {
		t.Fatalf("Set into allocated chunks allocates %.2f/op", avg)
	}
}
