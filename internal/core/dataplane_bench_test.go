package core

// Microbenchmarks for the data-plane fault hot path. Run with the default
// -benchmem-style allocation reporting enabled: the allocs/op column is the
// headline — a warmed monitor must report 0 on every backend — and ns/op is
// the wall-clock cost of one simulated miss + dirty eviction + write-back.

import (
	"fmt"
	"testing"
	"time"

	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/ramcloud"
)

func BenchmarkSteadyStateFault(b *testing.B) {
	backends := allocBenchBackends(b)
	backends["ramcloud"] = func() kvstore.Store {
		return ramcloud.New(ramcloud.DefaultParams(), 10)
	}
	for name, mk := range backends {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				b.ReportAllocs()
				const pages = 128
				cfg := DefaultConfig(mk(), pages/2)
				cfg.Workers = workers
				m, err := NewMonitor(cfg, nil, "bench-hotpath")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.RegisterRange(testBase, uint64(pages)*PageSize, 4242); err != nil {
					b.Fatal(err)
				}
				var now time.Duration
				i := 0
				touch := func() {
					_, done, err := m.Touch(now, addr(i%pages), true)
					if err != nil {
						b.Fatal(err)
					}
					now = done
					i++
				}
				for k := 0; k < 3*pages; k++ {
					touch()
				}
				b.ResetTimer()
				for k := 0; k < b.N; k++ {
					touch()
				}
			})
		}
	}
}

// BenchmarkWritebackEnqueueSteal times the write list's fault-path round
// trip, one Enqueue and one Steal of the same page, with a fixed number of
// earlier writes still in flight. Both calls first retire the writes that
// have landed, so this is where that retirement's cost shows: ns/op must
// stay flat as the in-flight count grows, and allocs/op must be 0.
func BenchmarkWritebackEnqueueSteal(b *testing.B) {
	for _, inflight := range []int{0, 32, 256} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			b.ReportAllocs()
			// The batch threshold sits above everything queued here, so
			// only the explicit Flush below submits writes.
			w := newWriteback(dram.New(dram.DefaultParams(), 1), inflight+2)
			const landing = time.Hour // far past every timed call's now
			for i := 0; i < inflight; i++ {
				key := kvstore.MakeKey(uint64(i)*PageSize, 1)
				if _, err := w.Enqueue(landing, key, key.Page(), make([]byte, PageSize)); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Flush(landing); err != nil {
				b.Fatal(err)
			}
			key := kvstore.MakeKey(uint64(inflight)*PageSize, 1)
			buf := make([]byte, PageSize)
			var now time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				if _, err := w.Enqueue(now, key, key.Page(), buf); err != nil {
					b.Fatal(err)
				}
				var ok bool
				if buf, ok = w.Steal(now, key); !ok {
					b.Fatal("queued page not stealable")
				}
			}
		})
	}
}
