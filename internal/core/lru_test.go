package core

import (
	"testing"
	"testing/quick"
	"time"
)

// testLRUPages is the number of pages, from address 0, that the test
// lists' page table covers: every page number a uint16 can name.
const testLRUPages = 1 << 16

// newShardedLRU returns an empty list of the given width over a page table
// with one region covering the test address space.
func newShardedLRU(shards int) *lruList {
	pt := newPageTable()
	pt.addRegion(0, testLRUPages*PageSize, 1)
	return newLRU(shards, pt)
}

// newLRUList returns the single-segment (serial monitor) list.
func newLRUList() *lruList { return newShardedLRU(1) }

// pg is the address of page n.
func pg(n uint64) uint64 { return n * PageSize }

func TestLRUInsertOldest(t *testing.T) {
	l := newLRUList()
	if _, ok := l.Oldest(); ok {
		t.Fatal("empty list has an oldest entry")
	}
	l.Insert(pg(10))
	l.Insert(pg(20))
	l.Insert(pg(30))
	if got, _ := l.Oldest(); got != pg(10) {
		t.Fatalf("Oldest = %d", got)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestLRURemove(t *testing.T) {
	l := newLRUList()
	l.Insert(pg(1))
	l.Insert(pg(2))
	if !l.Remove(pg(1)) {
		t.Fatal("Remove(pg(1)) = false")
	}
	if l.Remove(pg(1)) {
		t.Fatal("double remove succeeded")
	}
	if got, _ := l.Oldest(); got != pg(2) {
		t.Fatalf("Oldest = %d", got)
	}
}

func TestLRUDoubleInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	l := newLRUList()
	l.Insert(pg(1))
	l.Insert(pg(1))
}

func TestLRUContains(t *testing.T) {
	l := newLRUList()
	l.Insert(pg(7))
	if !l.Contains(pg(7)) || l.Contains(pg(8)) {
		t.Fatal("Contains wrong")
	}
}

// lruModel is the reference implementation the sharded list must match: a
// plain FIFO slice plus a membership map.
type lruModel struct {
	order []uint64
	in    map[uint64]bool
}

func newLRUModel() *lruModel { return &lruModel{in: make(map[uint64]bool)} }

func (m *lruModel) Insert(a uint64) {
	m.order = append(m.order, a)
	m.in[a] = true
}

func (m *lruModel) Remove(a uint64) bool {
	if !m.in[a] {
		return false
	}
	delete(m.in, a)
	for i, v := range m.order {
		if v == a {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return true
}

func (m *lruModel) Oldest() (uint64, bool) {
	if len(m.order) == 0 {
		return 0, false
	}
	return m.order[0], true
}

// TestLRUShardCountEquivalenceProperty drives random insert/remove/evict
// sequences through sharded lists of every width and a map-based model:
// Oldest, Len, and Contains must agree at every step — the structural half
// of the multi-worker pipeline's timing-only guarantee.
func TestLRUShardCountEquivalenceProperty(t *testing.T) {
	shardCounts := []int{1, 2, 3, 4, 8}
	f := func(raw []uint16) bool {
		model := newLRUModel()
		lists := make([]*lruList, len(shardCounts))
		for i, n := range shardCounts {
			lists[i] = newShardedLRU(n)
		}
		for _, r := range raw {
			// Addresses are page-aligned so sharding (addr/PageSize % n)
			// actually spreads entries; op chosen by the low bits.
			a := uint64(r>>2) * PageSize
			switch r & 3 {
			case 0, 1: // insert (if absent)
				if !model.in[a] {
					model.Insert(a)
					for _, l := range lists {
						l.Insert(a)
					}
				}
			case 2: // remove
				want := model.Remove(a)
				for _, l := range lists {
					if l.Remove(a) != want {
						return false
					}
				}
			case 3: // evict oldest
				want, wantOK := model.Oldest()
				if wantOK {
					model.Remove(want)
				}
				for _, l := range lists {
					got, ok := l.Oldest()
					if ok != wantOK || (ok && got != want) {
						return false
					}
					if ok {
						l.Remove(got)
					}
				}
			}
			for _, l := range lists {
				if l.Len() != len(model.order) || l.Contains(a) != model.in[a] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorFootprintInvariantProperty drives random Touch/Discard/Resize
// mixes through monitors of every worker count: the capacity budget is
// global, so ResidentPages() must never exceed FootprintLimit() no matter
// how the per-worker LRU segments fill.
func TestMonitorFootprintInvariantProperty(t *testing.T) {
	f := func(raw []uint16, workerPick uint8) bool {
		cfg := dramCfg(8)
		cfg.Workers = []int{1, 2, 3, 4, 8}[int(workerPick)%5]
		m := newMonitor(t, cfg, 64)
		now := time.Duration(0)
		for i, r := range raw {
			a := addr(int(r>>3) % 64)
			switch {
			case r&7 == 6:
				m.Discard(a)
			case r&7 == 7:
				capacity := int(r>>3)%12 + 1
				var err error
				if now, err = m.Resize(now, capacity); err != nil {
					return false
				}
			default:
				_, done, err := m.Touch(now, a, i%2 == 0)
				if err != nil {
					return false
				}
				now = done
			}
			if m.ResidentPages() > m.FootprintLimit() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUFIFOOrderProperty(t *testing.T) {
	// Eviction order must equal insertion order regardless of interleaved
	// membership checks — the paper's "ordering does not change" semantics.
	f := func(raw []uint16) bool {
		l := newLRUList()
		var inserted []uint64
		seen := make(map[uint64]bool)
		for _, r := range raw {
			a := pg(uint64(r))
			if seen[a] {
				continue
			}
			seen[a] = true
			l.Insert(a)
			inserted = append(inserted, a)
		}
		for _, want := range inserted {
			got, ok := l.Oldest()
			if !ok || got != want {
				return false
			}
			l.Remove(got)
		}
		return l.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLRUInsertOutsideRegionPanics(t *testing.T) {
	l := newLRUList()
	if l.Contains(pg(testLRUPages)) || l.Remove(pg(testLRUPages)) {
		t.Fatal("a page outside every region reported as in the list")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("insert outside every region did not panic")
		}
	}()
	l.Insert(pg(testLRUPages))
}
