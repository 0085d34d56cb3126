package main

import (
	"sort"
	"time"

	"fluidmem/internal/clock"
	"fluidmem/internal/hotset"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/uffd"
)

// probeReps is how many times each probe repeats; the median is reported.
const probeReps = 5

// sinkDuration keeps probe results live so the compiler cannot drop the
// timed calls.
var sinkDuration time.Duration

// medianNs runs f probeReps times and returns the median of its per-call
// nanoseconds.
func medianNs(f func() float64) float64 {
	v := make([]float64, probeReps)
	for i := range v {
		v[i] = f()
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

// probeSample times clock.LatencyModel.Sample on RAMCloud's read model,
// the draw every remote read makes.
func probeSample() float64 {
	const n = 1 << 18
	model := ramcloud.DefaultParams().ReadLatency
	r := clock.NewRand(1)
	return medianNs(func() float64 {
		var sum time.Duration
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sum += model.Sample(r)
		}
		d := time.Since(t0)
		sinkDuration += sum
		return float64(d) / n
	})
}

// probeUffd times uffd.FD.Copy and FD.Remap over a region of pages: a Copy
// installs each page, a Remap moves it out again, and the frames Remap
// returns are recycled as the monitor does.
func probeUffd() (copyNs, remapNs float64, err error) {
	const pages = 1024
	const base = 0x7f00_0000_0000
	fd := uffd.New(uffd.DefaultParams(), 1)
	if _, err := fd.Register(base, pages*uffd.PageSize, 1000); err != nil {
		return 0, 0, err
	}
	src := make([]byte, uffd.PageSize)
	for i := range src {
		src[i] = byte(i)
	}
	var copies, remaps []float64
	for rep := 0; rep < probeReps; rep++ {
		now := time.Duration(0)
		t0 := time.Now()
		for p := uint64(0); p < pages; p++ {
			if now, err = fd.Copy(now, base+p*uffd.PageSize, src); err != nil {
				return 0, 0, err
			}
		}
		copies = append(copies, float64(time.Since(t0))/pages)
		t0 = time.Now()
		for p := uint64(0); p < pages; p++ {
			var buf []byte
			if buf, now, err = fd.Remap(now, base+p*uffd.PageSize, false); err != nil {
				return 0, 0, err
			}
			fd.Recycle(buf)
		}
		remaps = append(remaps, float64(time.Since(t0))/pages)
		sinkDuration += now
	}
	sort.Float64s(copies)
	sort.Float64s(remaps)
	return copies[probeReps/2], remaps[probeReps/2], nil
}

// probeHotset times hotset.Tracker.Fault on ghost hits, at the ghost
// capacity the host gives each tenant in openloop-diurnal-market (the
// host's whole 128-page budget, 2-page buckets).
func probeHotset() (float64, error) {
	const ghost = 128
	tr, err := hotset.New(hotset.Params{GhostCapacity: ghost, BucketPages: 2})
	if err != nil {
		return 0, err
	}
	const rounds = 256
	return medianNs(func() float64 {
		var d time.Duration
		for r := 0; r < rounds; r++ {
			for p := uint64(0); p < ghost; p++ {
				tr.Evict(p * uffd.PageSize)
			}
			t0 := time.Now()
			// Fault in eviction order: each hit sits at the list's far end,
			// the depth walk's worst case as the ghost list fills.
			for p := uint64(0); p < ghost; p++ {
				tr.Fault(p * uffd.PageSize)
			}
			d += time.Since(t0)
		}
		return float64(d) / (rounds * ghost)
	}), nil
}
