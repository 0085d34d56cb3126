package core

// lruList is the monitor's resident-page list (§V-A), partitioned into
// per-shard segments for the multi-worker fault pipeline. Its semantics
// follow the paper exactly: a page enters the list when the monitor sees it
// (first access, or re-fault after an eviction) and the internal ordering
// never changes afterwards — the list is *not* reordered on guest accesses,
// because resident accesses never reach the monitor. Evictions come from
// the top (globally oldest entry). The paper calls out this insertion-order
// behaviour as a limitation versus the kernel's active/inactive lists
// (§VI-D1).
//
// Sharding is a lock-striping structure, not a policy change: each worker's
// pages live in their own segment (one lock domain in a real monitor), but
// every insert is stamped with a global sequence number and Oldest selects
// the minimum across segment heads. Segment heads are each their segment's
// oldest entry, so the global minimum over heads IS the globally oldest
// page — eviction order is bit-for-bit identical to the single-segment list
// for ANY shard count, and the capacity budget the monitor enforces with
// Len stays global. The property tests in lru_test.go assert both.
//
// The list is intrusive and pooled: nodes removed by eviction go on a
// freelist and are reused by the next insert, so the steady-state fault
// path (evict one, insert one) allocates nothing. A page's node is found
// through the monitor's page table (pagetable.go), one slot per page of a
// registered region, so membership tests are an index rather than a hash
// probe.
type lruList struct {
	shards  []lruShard
	idx     shardIndexer
	pages   *pageTable
	n       int      // tracked pages across all segments
	free    *lruNode // freelist threaded through next
	nextSeq uint64
}

// lruNode is one resident page plus its global insertion stamp.
type lruNode struct {
	addr       uint64
	seq        uint64
	prev, next *lruNode
}

// lruShard is one segment: head is the segment's oldest entry.
type lruShard struct {
	head, tail *lruNode
}

// newLRU returns an empty list split into the given number of segments
// (minimum one), sharded by page number, whose nodes are indexed by the
// given page table (the monitor's, shared with its seen bits). Only pages
// of the table's regions can be inserted.
func newLRU(shards int, pages *pageTable) *lruList {
	if shards < 1 {
		shards = 1
	}
	return &lruList{
		shards: make([]lruShard, shards),
		idx:    newShardIndexer(shards),
		pages:  pages,
	}
}

// shardOf maps a page address to its segment.
func (l *lruList) shardOf(addr uint64) *lruShard {
	return &l.shards[l.idx.index(addr)]
}

// Len reports tracked pages across all segments.
func (l *lruList) Len() int { return l.n }

// getNode pops a recycled node or allocates one.
func (l *lruList) getNode() *lruNode {
	if n := l.free; n != nil {
		l.free = n.next
		*n = lruNode{}
		return n
	}
	return &lruNode{}
}

// Insert appends addr at the bottom (newest) position of its segment.
// Inserting an address already present is a bug in the monitor and panics
// loudly.
func (l *lruList) Insert(addr uint64) {
	if l.pages.node(addr) != nil {
		panic("core: page already in LRU list")
	}
	l.nextSeq++
	n := l.getNode()
	n.addr = addr
	n.seq = l.nextSeq
	s := l.shardOf(addr)
	n.prev = s.tail
	if s.tail != nil {
		s.tail.next = n
	} else {
		s.head = n
	}
	s.tail = n
	l.pages.setNode(addr, n)
	l.n++
}

// Contains reports membership.
func (l *lruList) Contains(addr uint64) bool {
	return l.pages.node(addr) != nil
}

// Oldest returns the eviction candidate: the entry with the globally
// minimum insertion stamp, found among the segment heads.
func (l *lruList) Oldest() (uint64, bool) {
	var bestAddr, bestSeq uint64
	found := false
	for i := range l.shards {
		front := l.shards[i].head
		if front == nil {
			continue
		}
		if !found || front.seq < bestSeq {
			bestAddr, bestSeq = front.addr, front.seq
			found = true
		}
	}
	return bestAddr, found
}

// Remove deletes addr, reporting whether it was present. The node goes on
// the freelist for reuse.
func (l *lruList) Remove(addr uint64) bool {
	n := l.pages.node(addr)
	if n == nil {
		return false
	}
	s := l.shardOf(addr)
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	l.pages.setNode(addr, nil)
	l.n--
	*n = lruNode{next: l.free}
	l.free = n
	return true
}
