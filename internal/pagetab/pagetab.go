// Package pagetab is the per-page slot table that the simulated kernel
// (uffd) and the monitor (core) index their page state with.
//
// A Table covers a fixed number of pages and maps page index i to one
// slot. Slots are grouped in chunks of ChunkPages, allocated on the first
// Set into them and kept afterwards. A lookup is two indexed loads with no
// hashing; memory follows the pages a range has touched (one chunk per
// touched 512-page stretch, 4 KiB for pointer slots) rather than its
// length; and once every chunk a workload touches exists, setting and
// clearing slots allocates nothing.
package pagetab

// ChunkPages is the number of slots allocated together.
const ChunkPages = 512

// Table is a lazily allocated array of per-page slots; the zero value of E
// is an empty slot.
type Table[E comparable] struct {
	chunks [][]E
}

// New returns an empty table of the given number of pages. Only the chunk
// directory is allocated: one word per ChunkPages pages.
func New[E comparable](pages uint64) Table[E] {
	return Table[E]{chunks: make([][]E, (pages+ChunkPages-1)/ChunkPages)}
}

// Get returns slot i, which must be below the table's page count.
func (t *Table[E]) Get(i uint64) E {
	if c := t.chunks[i/ChunkPages]; c != nil {
		return c[i%ChunkPages]
	}
	var empty E
	return empty
}

// Set stores e in slot i, which must be below the table's page count,
// allocating its chunk on first use.
func (t *Table[E]) Set(i uint64, e E) {
	c := t.chunks[i/ChunkPages]
	if c == nil {
		c = make([]E, ChunkPages)
		t.chunks[i/ChunkPages] = c
	}
	c[i%ChunkPages] = e
}

// AppendFull appends the index of every non-empty slot to dst, in
// ascending order.
func (t *Table[E]) AppendFull(dst []uint64) []uint64 {
	var empty E
	for k, c := range t.chunks {
		for j, e := range c {
			if e != empty {
				dst = append(dst, uint64(k)*ChunkPages+uint64(j))
			}
		}
	}
	return dst
}
