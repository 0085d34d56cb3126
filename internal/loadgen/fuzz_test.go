package loadgen

import (
	"math"
	"slices"
	"testing"
	"time"

	"fluidmem/internal/clock"
)

// FuzzArrivalSchedule pins the arrival-schedule invariants over fuzzed
// (process, curve, seed, split) tuples:
//
//  1. every arrival lies in [0, horizon) and timestamps are monotone
//     non-decreasing;
//  2. the schedule is bitwise repeatable — generating it twice yields the
//     same timestamps;
//  3. schedule splitting/merging is invariant: [0, split) ++ [split, horizon)
//     equals [0, horizon) element-for-element, for an arbitrary fuzzed split;
//  4. for every target a slice generates, the bracketed inverse invCum
//     returns exactly what the plain bisection invCumBisect does — checked
//     on every slice of [0, horizon) and of a window at ≥15 s, where a
//     multi-second run's slices live and the curves' float error is largest.
//
// These are the properties the open-loop engine builds its cross-worker
// determinism on, so they are fuzzed rather than merely example-tested.
// A periodNs ≤ 0 selects a 3 ms diurnal period.
func FuzzArrivalSchedule(f *testing.F) {
	const ms = int64(time.Millisecond)
	f.Add(uint8(0), uint8(0), 40_000.0, 0.9, uint64(1), int64(5_000_000), int64(0), 0.0, uint16(0))
	f.Add(uint8(0), uint8(1), 30_000.0, 0.5, uint64(7), int64(4_111_333), int64(0), 0.0, uint16(0))
	f.Add(uint8(1), uint8(2), 20_000.0, 8.0, uint64(42), int64(1), int64(0), 0.0, uint16(3))
	f.Add(uint8(1), uint8(0), 100_000.0, 0.0, uint64(3), int64(7_999_999), int64(0), 0.0, uint16(0))
	f.Add(uint8(0), uint8(2), 0.0, 2.0, uint64(9), int64(2_000_000), int64(0), 0.0, uint16(0))
	// The benchmark's shape: a 100 ms day at t ≈ 15 s, in and out of phase.
	f.Add(uint8(0), uint8(1), 30_000.0, 0.9, uint64(2), int64(3_000_000), 100*ms, 0.0, uint16(17))
	f.Add(uint8(0), uint8(1), 30_000.0, 0.9, uint64(5), int64(6_500_000), 100*ms, math.Pi, uint16(0))
	f.Add(uint8(1), uint8(3), 30_000.0, 2.5, uint64(11), int64(2_500_000), 100*ms, 1.3, uint16(250))
	// A short 3 ms day: the curvature inside one slice is at its largest.
	f.Add(uint8(0), uint8(1), 150_000.0, 0.999, uint64(13), int64(4_000_000), 3*ms, 2.0, uint16(1))
	f.Add(uint8(0), uint8(3), 60_000.0, 1.75, uint64(17), int64(1_000_000), 3*ms, 5.0, uint16(9))
	f.Fuzz(func(t *testing.T, proc, curveKind uint8, rate, shape float64, seed uint64, splitNs, periodNs int64, phase float64, farMs uint16) {
		const horizon = 8 * time.Millisecond
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
			rate = 1000
		}
		if rate > 200_000 {
			rate = math.Mod(rate, 200_000)
		}
		if math.IsNaN(shape) || math.IsInf(shape, 0) || shape < 0 {
			shape = 0.5
		}
		period := time.Duration(periodNs) % time.Second
		if period <= 0 {
			period = 3 * time.Millisecond
		}
		if math.IsNaN(phase) || math.IsInf(phase, 0) {
			phase = 0
		}
		phase = math.Mod(phase, 1000)
		diurnal := DiurnalRate{Base: rate, Swing: math.Mod(shape, 1), Period: period, Phase: phase}
		var curve RateCurve
		switch curveKind % 4 {
		case 0:
			curve = ConstantRate{PerSec: rate}
		case 1:
			curve = diurnal
		case 2:
			curve = FlashCrowdRate{Base: rate, Spike: 1 + math.Mod(shape, 8),
				Start: horizon / 4, Width: horizon / 4}
		default:
			curve = ScaledRate{Curve: diurnal, Factor: math.Mod(shape, 4)}
		}
		cfg := ArrivalConfig{Process: Process(proc % 2), Curve: curve, Seed: seed}

		split := time.Duration(splitNs)
		if split < 0 {
			split = -split
		}
		split %= horizon

		whole := cfg.Schedule(0, horizon)
		prev := time.Duration(0)
		for i, at := range whole {
			if at < 0 || at >= horizon {
				t.Fatalf("arrival %d at %v outside [0, %v)", i, at, horizon)
			}
			if at < prev {
				t.Fatalf("arrival %d at %v before predecessor %v", i, at, prev)
			}
			prev = at
		}

		again := cfg.Schedule(0, horizon)
		if len(again) != len(whole) {
			t.Fatalf("repeat generated %d arrivals, first run %d", len(again), len(whole))
		}
		for i := range whole {
			if whole[i] != again[i] {
				t.Fatalf("repeat arrival %d is %v, first run %v", i, again[i], whole[i])
			}
		}

		merged := append(cfg.Schedule(0, split), cfg.Schedule(split, horizon)...)
		if len(merged) != len(whole) {
			t.Fatalf("split at %v: merged %d arrivals, whole %d", split, len(merged), len(whole))
		}
		for i := range whole {
			if merged[i] != whole[i] {
				t.Fatalf("split at %v: merged arrival %d is %v, whole %v", split, i, merged[i], whole[i])
			}
		}

		far := int64((15*time.Second + time.Duration(farMs)*time.Millisecond) / ArrivalSlice)
		for k := int64(0); k < int64(horizon/ArrivalSlice); k++ {
			checkInverse(t, cfg, k)
			checkInverse(t, cfg, far+k)
		}
	})
}

// invCumBisect is the reference inverse: the plain bisection invCum
// shortcuts, calling CumOps on every probe.
func invCumBisect(c RateCurve, target float64, lo, hi time.Duration) time.Duration {
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if c.CumOps(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// checkInverse re-draws slice k's targets the way sliceArrivals does and
// checks that invCum equals invCumBisect on every one, and that the slice
// sliceArrivals emits is exactly the reference inverse's.
func checkInverse(t *testing.T, cfg ArrivalConfig, k int64) {
	t.Helper()
	start := time.Duration(k) * ArrivalSlice
	end := start + ArrivalSlice
	sc := newSliceCurve(cfg.Curve, start, end)
	cumStart, cumEnd := cfg.Curve.CumOps(start), cfg.Curve.CumOps(end)
	if sc.cumLo != cumStart || sc.cumHi != cumEnd {
		t.Fatalf("slice %d: hoisted measures (%v, %v), CumOps (%v, %v)", k, sc.cumLo, sc.cumHi, cumStart, cumEnd)
	}
	var targets []float64
	switch cfg.Process {
	case Deterministic:
		for n := math.Floor(cumStart) + 1; n <= cumEnd; n++ {
			targets = append(targets, n)
		}
	default:
		r := clock.NewRand(sliceSeed(cfg.Seed, k))
		lambda := cumEnd - cumStart
		for i := poissonCount(r, lambda); i > 0; i-- {
			targets = append(targets, cumStart+r.Float64()*lambda)
		}
	}
	var want []time.Duration
	for _, target := range targets {
		got, ref := invCum(&sc, target), invCumBisect(cfg.Curve, target, start, end)
		if got != ref {
			t.Fatalf("slice %d target %v: invCum %v, bisection %v", k, target, got, ref)
		}
		want = append(want, min(ref, end-1))
	}
	slices.Sort(want)
	if got := cfg.sliceArrivals(k, nil); !slices.Equal(got, want) {
		t.Fatalf("slice %d: sliceArrivals %v, reference %v", k, got, want)
	}
}
