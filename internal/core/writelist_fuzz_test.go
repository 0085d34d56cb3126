package core

import (
	"errors"
	"maps"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
)

// delayStore wraps a store so each MultiPut completes delay after it is
// issued, whatever the inner store reports: the fuzzer sets delay from its
// input, so flushes land out of order and with equal completion times, as
// they do behind cluster and resilience stores. Every key a MultiPut carries
// is recorded in ref at its completion time.
type delayStore struct {
	kvstore.Store
	delay time.Duration
	ref   map[kvstore.Key]time.Duration
}

func (s *delayStore) MultiPut(now time.Duration, keys []kvstore.Key, pages [][]byte) (time.Duration, error) {
	if _, err := s.Store.MultiPut(now, keys, pages); err != nil {
		return now, err
	}
	done := now + s.delay
	for _, k := range keys {
		s.ref[k] = done
	}
	return done, nil
}

// refGC is the engine's original in-flight retirement, kept as the
// reference: a scan of the whole table that drops every write completed by
// now.
func refGC(inflight map[kvstore.Key]time.Duration, now time.Duration) {
	for k, done := range inflight {
		if done <= now {
			delete(inflight, k)
		}
	}
}

// FuzzWriteCoalesce model-checks the coalescing write-back engine against a
// flat model: an arbitrary interleaving of enqueue / coalesce / zero-mark /
// steal / discard / flush / drain / wait ops over a small key space must
// leave the engine's queue, zero bitmap, and the backing store in exactly
// the state the flat model predicts. The first input byte picks the shard
// count, so the fuzzer also re-proves that sharding never changes what the
// store observes. Each op's argument byte picks the key (low 3 bits) and
// the completion delay of any flush the op triggers (high 5 bits, in µs);
// the in-flight table must equal a reference kept with the full-scan
// retirement after every op, and WaitFor must answer from it.
func FuzzWriteCoalesce(f *testing.F) {
	f.Add([]byte{0})
	// enqueue k0, coalesce k0, flush, steal-miss k0.
	f.Add([]byte{1, 0x00, 0, 0x00, 0, 0x04, 0, 0x03, 0})
	// zero-mark a queued key, take it, re-enqueue, drain.
	f.Add([]byte{2, 0x00, 1, 0x01, 1, 0x02, 1, 0x00, 1, 0x07, 0})
	// fill past the batch threshold to force an auto-flush, then discard.
	f.Add([]byte{3, 0x00, 0, 0x00, 1, 0x00, 2, 0x00, 3, 0x00, 4, 0x05, 4})
	// re-flush an in-flight key with an earlier completion (22 µs, then
	// 6 µs): the later landing must not retire the newer record early, and
	// the stale one must not resurrect it; wait before and after each lands.
	f.Add([]byte{1, 0x00, 0, 0x04, 20 << 3, 0x00, 0, 0x04, 2 << 3,
		0x08, 0, 0x03, 1, 0x03, 1, 0x08, 0, 0x03, 1, 0x08, 0})
	// re-flush an in-flight key with a later completion (12 µs, then
	// 24 µs): the first landing must leave the newer record in place.
	f.Add([]byte{2, 0x00, 0, 0x04, 10 << 3, 0x00, 0, 0x04, 20 << 3,
		0x03, 1, 0x08, 0, 0x03, 1, 0x03, 1, 0x03, 1, 0x03, 1, 0x03, 1,
		0x03, 1, 0x03, 1, 0x03, 1, 0x08, 0, 0x08, 0, 0x03, 1, 0x03, 1,
		0x03, 1, 0x03, 1, 0x03, 1, 0x03, 1, 0x03, 1, 0x03, 1, 0x08, 0})
	// two flushes landing at the same time (7 µs), then a wait on each.
	f.Add([]byte{4, 0x00, 0, 0x04, 5 << 3, 0x00, 1, 0x04, 3 << 3,
		0x08, 0, 0x08, 1, 0x03, 2, 0x03, 2, 0x03, 2, 0x08, 0, 0x08, 1})
	// drain while writes are in flight, then reuse the key afterwards.
	f.Add([]byte{3, 0x00, 0, 0x00, 1, 0x04, 30 << 3, 0x00, 2,
		0x07, 5 << 3, 0x08, 0, 0x08, 2, 0x00, 0, 0x04, 9 << 3, 0x08, 0,
		0x03, 3, 0x08, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		const batchSize = 4
		const keySpace = 8
		shards := int(raw[0]%4) + 1
		store := dram.New(dram.DefaultParams(), 1)
		ref := make(map[kvstore.Key]time.Duration)
		w := newShardedWriteback(&delayStore{Store: store, ref: ref}, batchSize, shards, nil)
		delayed := w.store.(*delayStore)

		// Flat model: pending data (tag per key), zero marks, and the tag
		// the store must durably hold for each flushed key.
		pending := make(map[kvstore.Key]byte)
		zero := make(map[kvstore.Key]bool)
		durable := make(map[kvstore.Key]byte)
		modelFlush := func() {
			for k, tag := range pending {
				durable[k] = tag
			}
			for k := range pending {
				delete(pending, k)
			}
		}

		keyOf := func(arg byte) kvstore.Key {
			return kvstore.MakeKey(uint64(arg%keySpace)*kvstore.PageSize, 1)
		}
		pageOf := func(tag byte) []byte {
			p := make([]byte, kvstore.PageSize)
			p[0] = tag
			return p
		}

		now := time.Duration(0)
		ops := raw[1:]
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step], ops[step+1]
			key := keyOf(arg)
			now += time.Microsecond
			delayed.delay = time.Duration(arg>>3) * time.Microsecond
			switch op % 9 {
			case 0: // enqueue (fresh or coalescing)
				tag := byte(step%250) + 1
				refGC(ref, now)
				if _, err := w.Enqueue(now, key, key.Page(), pageOf(tag)); err != nil {
					t.Fatalf("step %d: enqueue: %v", step, err)
				}
				delete(zero, key)
				if _, queued := pending[key]; queued {
					pending[key] = tag // coalesced in place
				} else {
					pending[key] = tag
					if len(pending) >= batchSize {
						modelFlush()
					}
				}
			case 1: // zero-mark (cancels any queued write)
				w.NoteZero(key)
				delete(pending, key)
				zero[key] = true
			case 2: // take the zero mark
				if got, want := w.TakeZero(key), zero[key]; got != want {
					t.Fatalf("step %d: TakeZero = %v, model %v", step, got, want)
				}
				delete(zero, key)
			case 3: // steal
				refGC(ref, now)
				data, ok := w.Steal(now, key)
				tag, want := pending[key]
				if ok != want {
					t.Fatalf("step %d: Steal ok = %v, model %v", step, ok, want)
				}
				if ok && data[0] != tag {
					t.Fatalf("step %d: stolen tag %d, model %d", step, data[0], tag)
				}
				delete(pending, key)
			case 4: // explicit flush
				if err := w.Flush(now); err != nil {
					t.Fatalf("step %d: flush: %v", step, err)
				}
				modelFlush()
			case 5: // discard a queued write
				_, want := pending[key]
				if got := w.DiscardQueued(key); got != want {
					t.Fatalf("step %d: DiscardQueued = %v, model %v", step, got, want)
				}
				delete(pending, key)
			case 6: // pure queries
				if got, want := w.HasZero(key), zero[key]; got != want {
					t.Fatalf("step %d: HasZero = %v, model %v", step, got, want)
				}
				if _, want := pending[key]; w.Queued(key) != want {
					t.Fatalf("step %d: Queued = %v, model %v", step, w.Queued(key), want)
				}
			case 7: // drain
				done, err := w.Drain(now)
				if err != nil {
					t.Fatalf("step %d: drain: %v", step, err)
				}
				if done < now {
					t.Fatalf("step %d: drain completed at %v before %v", step, done, now)
				}
				latest := now
				for _, d := range ref {
					latest = max(latest, d)
				}
				if done != latest {
					t.Fatalf("step %d: drain completed at %v, reference %v", step, done, latest)
				}
				clear(ref)
				modelFlush()
			case 8: // wait for an in-flight write
				got, ok := w.WaitFor(now, key)
				want, wantOK := ref[key]
				if ok != wantOK || (ok && got != max(want, now)) {
					t.Fatalf("step %d: WaitFor = (%v, %v), reference (%v, %v)", step, got, ok, want, wantOK)
				}
			}
			if got, want := w.QueuedLen(), len(pending); got != want {
				t.Fatalf("step %d (op %d): QueuedLen = %d, model %d", step, op%9, got, want)
			}
			if !maps.Equal(w.inflight, ref) {
				t.Fatalf("step %d (op %d): in-flight table %v, reference %v", step, op%9, w.inflight, ref)
			}
			for i := w.lhead + 1; i < len(w.landings); i++ {
				if w.landings[i-1].done > w.landings[i].done {
					t.Fatalf("step %d: landings out of completion order at %d", step, i)
				}
			}
		}

		// Quiesce and compare end states: queue empty, zero bitmap exact,
		// store holding exactly the model's durable tags.
		if _, err := w.Drain(now + time.Second); err != nil {
			t.Fatalf("final drain: %v", err)
		}
		modelFlush()
		if w.QueuedLen() != 0 {
			t.Fatalf("final QueuedLen = %d", w.QueuedLen())
		}
		if got, want := w.Snapshot().ZeroBitmap, len(zero); got != want {
			t.Fatalf("final zero bitmap %d entries, model %d", got, want)
		}
		late := now + time.Minute
		for k := 0; k < keySpace; k++ {
			key := keyOf(byte(k))
			data, _, err := store.Get(late, key)
			tag, stored := durable[key]
			if !stored {
				if !errors.Is(err, kvstore.ErrNotFound) {
					t.Fatalf("key %d: store holds a page the model never flushed (err=%v)", k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("key %d: %v", k, err)
			}
			if data[0] != tag {
				t.Fatalf("key %d: store tag %d, model %d", k, data[0], tag)
			}
		}
	})
}
