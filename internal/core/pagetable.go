package core

import (
	"slices"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/pagetab"
)

// pageTable is the monitor's per-page bookkeeping, held per registered
// region: one seen bit per page (the PageTracker state machine's "not a
// first touch any more" bit) and one slot per page for the page's LRU node
// while it is resident. Page addresses are dense within the registered
// regions, so indexing by (addr-start)/PageSize is exact and O(1) with no
// hashing on the fault path. The seen bits cost 1 bit per guest page; the
// node slots are allocated a 512-page chunk at a time on the first insert
// into the chunk (8 B per page of each touched chunk), after which the
// fault path allocates nothing.
//
// Regions are added/removed by the control plane (RegisterRange /
// UnregisterVM / migration) and kept in address order; the handful of
// regions per monitor makes the linear region lookup cheaper than a map
// probe.
type pageTable struct {
	regions []ptRegion
	// overSeen catches seen marks outside every registered region. The
	// data plane never produces them — faults are validated against
	// regions first — but control-plane callers are not forced to register
	// before marking.
	overSeen map[uint64]bool
}

type ptRegion struct {
	start, end uint64 // [start, end) byte addresses, page aligned
	// part is the owning VM's store partition, so the data plane keys a
	// page without a PID lookup.
	part  kvstore.PartitionID
	seen  []uint64
	nodes pagetab.Table[*lruNode]
}

func newPageTable() *pageTable { return &pageTable{} }

// addRegion allocates tracking for [start, start+length), owned by
// partition part, keeping regions in address order. Overlapping ranges are
// the caller's bug (uffd.Register rejects them first).
func (t *pageTable) addRegion(start, length uint64, part kvstore.PartitionID) {
	pages := (length + PageSize - 1) / PageSize
	r := ptRegion{
		start: start,
		end:   start + pages*PageSize,
		part:  part,
		seen:  make([]uint64, (pages+63)/64),
		nodes: pagetab.New[*lruNode](pages),
	}
	i := 0
	for i < len(t.regions) && t.regions[i].start < start {
		i++
	}
	t.regions = slices.Insert(t.regions, i, r)
}

// dropRegion forgets the region starting at start (teardown/migration
// export). Its pages must already have left the LRU list.
func (t *pageTable) dropRegion(start uint64) {
	for i := range t.regions {
		if t.regions[i].start == start {
			t.regions = slices.Delete(t.regions, i, i+1)
			return
		}
	}
}

func (t *pageTable) find(addr uint64) *ptRegion {
	for i := range t.regions {
		if r := &t.regions[i]; addr >= r.start && addr < r.end {
			return r
		}
	}
	return nil
}

// has reports whether addr's page has been seen.
func (t *pageTable) has(addr uint64) bool {
	if r := t.find(addr); r != nil {
		page := (addr - r.start) >> pageShift
		return r.seen[page>>6]&(1<<(page&63)) != 0
	}
	return t.overSeen[addr]
}

// add marks addr's page seen.
func (t *pageTable) add(addr uint64) {
	if r := t.find(addr); r != nil {
		page := (addr - r.start) >> pageShift
		r.seen[page>>6] |= 1 << (page & 63)
		return
	}
	if t.overSeen == nil {
		t.overSeen = make(map[uint64]bool)
	}
	t.overSeen[addr] = true
}

// del clears addr's seen mark.
func (t *pageTable) del(addr uint64) {
	if r := t.find(addr); r != nil {
		page := (addr - r.start) >> pageShift
		r.seen[page>>6] &^= 1 << (page & 63)
		return
	}
	delete(t.overSeen, addr)
}

// node returns the LRU node of addr's page, or nil if the page is not in
// the list or lies outside every region.
func (t *pageTable) node(addr uint64) *lruNode {
	if r := t.find(addr); r != nil {
		return r.nodes.Get((addr - r.start) >> pageShift)
	}
	return nil
}

// setNode records the LRU node of addr's page; nil clears it. Only pages
// of registered regions can be in the LRU list.
func (t *pageTable) setNode(addr uint64, n *lruNode) {
	r := t.find(addr)
	if r == nil {
		panic("core: LRU page outside every registered region")
	}
	r.nodes.Set((addr-r.start)>>pageShift, n)
}

// appendNodes appends the addresses of every page holding an LRU node to
// dst in ascending order (the regions are kept in address order).
func (t *pageTable) appendNodes(dst []uint64) []uint64 {
	for i := range t.regions {
		r := &t.regions[i]
		n := len(dst)
		dst = r.nodes.AppendFull(dst)
		for j := n; j < len(dst); j++ {
			dst[j] = r.start + dst[j]*PageSize
		}
	}
	return dst
}
