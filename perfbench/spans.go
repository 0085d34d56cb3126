package main

import (
	"fmt"
	"time"

	"fluidmem/internal/kvstore"
)

// Store call kinds the timing decorator tells apart.
const (
	kGet = iota
	kMultiGet
	kStartGet
	kPut
	kMultiPut
	kDelete
	nKinds
)

var kindNames = [nKinds]string{"get", "multiget", "startget", "put", "multiput", "delete"}

// callStat aggregates the spans of one kind of call: how many, their summed
// wall time, and the keys or pages they carried.
type callStat struct {
	Calls, Ns, Items uint64
}

func (c *callStat) add(d time.Duration, items int) {
	c.Calls++
	c.Ns += uint64(d)
	c.Items += uint64(items)
}

// spans is the traced run's span sink. Spans are aggregated in memory as
// they close: one root span per guest operation, child spans for every store
// call inside it, and spans around the arrival generator, the epoch-closing
// Touch and the pool's membership calls. A nil *spans means tracing is off;
// the workloads then take no timestamps beyond their batch boundaries.
type spans struct {
	store     [nKinds]callStat
	storeErrs uint64
	// storeNs is the running sum of store span time, read at the start and
	// end of each op span to subtract its children.
	storeNs uint64

	op       callStat
	coreSelf uint64
	next     callStat
	epochNs  []time.Duration
	member   callStat
}

// opStart opens a root span.
func (s *spans) opStart() (time.Time, uint64) { return time.Now(), s.storeNs }

// opEnd closes a root span. An op that closes an epoch window is a host
// epoch span as a whole (capture, planning, resize); every other op's self
// time, its span minus its store children, is the data plane's (core).
func (s *spans) opEnd(t0 time.Time, store0 uint64, epoch bool) {
	d := time.Since(t0)
	s.op.add(d, 1)
	if epoch {
		s.epochNs = append(s.epochNs, d)
		return
	}
	s.coreSelf += uint64(d) - (s.storeNs - store0)
}

// timedStore is a kvstore.Store decorator that records one span per call.
// It is pure observation: every argument and result passes through
// untouched and it charges no virtual time.
type timedStore struct {
	inner kvstore.Store
	sp    *spans
}

var (
	_ kvstore.Store = (*timedStore)(nil)
	_ kvstore.Local = (*timedStore)(nil)
)

func (t *timedStore) done(kind int, t0 time.Time, items int, err error) {
	d := time.Since(t0)
	t.sp.store[kind].add(d, items)
	t.sp.storeNs += uint64(d)
	if err != nil {
		t.sp.storeErrs++
	}
}

func (t *timedStore) Name() string { return t.inner.Name() }

func (t *timedStore) Put(now time.Duration, key kvstore.Key, page []byte) (time.Duration, error) {
	t0 := time.Now()
	done, err := t.inner.Put(now, key, page)
	t.done(kPut, t0, 1, err)
	return done, err
}

func (t *timedStore) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	t0 := time.Now()
	done, err := t.inner.MultiPut(now, keys, pages)
	t.done(kMultiPut, t0, len(keys), err)
	return done, err
}

func (t *timedStore) Get(now time.Duration, key kvstore.Key) ([]byte, time.Duration, error) {
	t0 := time.Now()
	data, done, err := t.inner.Get(now, key)
	t.done(kGet, t0, 1, err)
	return data, done, err
}

func (t *timedStore) MultiGet(now time.Duration, keys []kvstore.Key) ([][]byte, time.Duration, error) {
	t0 := time.Now()
	pages, done, err := t.inner.MultiGet(now, keys)
	t.done(kMultiGet, t0, len(keys), err)
	return pages, done, err
}

func (t *timedStore) StartGet(now time.Duration, key kvstore.Key) kvstore.PendingGet {
	t0 := time.Now()
	p := t.inner.StartGet(now, key)
	t.done(kStartGet, t0, 1, p.Err)
	return p
}

func (t *timedStore) Delete(now time.Duration, key kvstore.Key) (time.Duration, error) {
	t0 := time.Now()
	done, err := t.inner.Delete(now, key)
	t.done(kDelete, t0, 1, err)
	return done, err
}

func (t *timedStore) Stats() kvstore.Stats { return t.inner.Stats() }

// Local passes the inner store's locality through: the monitor skips RPC
// costs for local stores, so hiding it would change virtual time.
func (t *timedStore) Local() bool {
	l, ok := t.inner.(kvstore.Local)
	return ok && l.Local()
}

// reconcile checks the decorator's call counts against the store's own
// traffic counters. Both count from the store's creation, so the check
// covers set-up and the measured phase alike.
func (s *spans) reconcile(st kvstore.Stats) []string {
	var bad []string
	check := func(what string, spanCount, storeCount uint64) {
		if spanCount != storeCount {
			bad = append(bad, fmt.Sprintf("%s: spans %d != store %d", what, spanCount, storeCount))
		}
	}
	c := &s.store
	check("gets", c[kGet].Calls+c[kStartGet].Calls+c[kMultiGet].Items, st.Gets)
	check("multigets", c[kMultiGet].Calls, st.MultiGets)
	check("puts", c[kPut].Calls+c[kMultiPut].Items, st.Puts)
	check("multiputs", c[kMultiPut].Calls, st.MultiPuts)
	check("deletes", c[kDelete].Calls, st.Deletes)
	return bad
}
