package loadgen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

func arrivalCases() map[string]ArrivalConfig {
	return map[string]ArrivalConfig{
		"poisson-constant": {Process: Poisson, Curve: ConstantRate{PerSec: 40_000}, Seed: 7},
		"poisson-diurnal": {Process: Poisson, Seed: 11,
			Curve: DiurnalRate{Base: 30_000, Swing: 0.9, Period: 20 * time.Millisecond}},
		"poisson-flash": {Process: Poisson, Seed: 13,
			Curve: FlashCrowdRate{Base: 10_000, Spike: 8, Start: 10 * time.Millisecond, Width: 5 * time.Millisecond}},
		"det-constant": {Process: Deterministic, Curve: ConstantRate{PerSec: 25_000}, Seed: 1},
		"det-diurnal": {Process: Deterministic, Seed: 1,
			Curve: DiurnalRate{Base: 20_000, Swing: 1, Period: 8 * time.Millisecond}},
	}
}

func TestScheduleMonotoneAndInWindow(t *testing.T) {
	const from, to = 3*time.Millisecond + 137*time.Microsecond, 41 * time.Millisecond
	for name, cfg := range arrivalCases() {
		s := cfg.Schedule(from, to)
		if len(s) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		prev := time.Duration(-1)
		for i, at := range s {
			if at < from || at >= to {
				t.Fatalf("%s: arrival %d at %v outside [%v, %v)", name, i, at, from, to)
			}
			if at < prev {
				t.Fatalf("%s: arrival %d at %v before predecessor %v", name, i, at, prev)
			}
			prev = at
		}
	}
}

func TestScheduleBitwiseRepeatable(t *testing.T) {
	for name, cfg := range arrivalCases() {
		a := cfg.Schedule(0, 30*time.Millisecond)
		b := cfg.Schedule(0, 30*time.Millisecond)
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ: %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: arrival %d differs: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}

// TestScheduleSplitInvariance is the load-bearing slice-seeding property:
// generating [0, T) in one call equals generating [0, b) then [b, T) for ANY
// split point — including splits in the middle of a slice.
func TestScheduleSplitInvariance(t *testing.T) {
	const horizon = 20 * time.Millisecond
	splits := []time.Duration{
		time.Millisecond, // slice boundary
		5*time.Millisecond + 411*time.Microsecond, // mid-slice
		7*time.Millisecond + 1,                    // one ns past a boundary
		horizon - 1,
	}
	for name, cfg := range arrivalCases() {
		whole := cfg.Schedule(0, horizon)
		for _, b := range splits {
			left := cfg.Schedule(0, b)
			right := cfg.Schedule(b, horizon)
			if len(left)+len(right) != len(whole) {
				t.Fatalf("%s split %v: %d + %d arrivals != %d",
					name, b, len(left), len(right), len(whole))
			}
			for i, at := range append(left, right...) {
				if at != whole[i] {
					t.Fatalf("%s split %v: arrival %d is %v, whole-run %v", name, b, i, at, whole[i])
				}
			}
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	base := ArrivalConfig{Process: Poisson, Curve: ConstantRate{PerSec: 50_000}, Seed: 1}
	other := base
	other.Seed = 2
	a := base.Schedule(0, 20*time.Millisecond)
	b := other.Schedule(0, 20*time.Millisecond)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
}

func TestDeterministicCountTracksCumOps(t *testing.T) {
	c := DiurnalRate{Base: 30_000, Swing: 0.8, Period: 10 * time.Millisecond}
	cfg := ArrivalConfig{Process: Deterministic, Curve: c, Seed: 9}
	const horizon = 25 * time.Millisecond
	got := len(cfg.Schedule(0, horizon))
	want := int(math.Floor(c.CumOps(horizon)))
	if got != want && got != want+1 {
		t.Fatalf("deterministic schedule has %d arrivals, CumOps says %d", got, want)
	}
}

func TestPoissonMeanTracksCumOps(t *testing.T) {
	c := ConstantRate{PerSec: 60_000}
	const horizon = 50 * time.Millisecond
	want := c.CumOps(horizon) // 3000
	total := 0
	const seeds = 20
	for seed := uint64(1); seed <= seeds; seed++ {
		total += len(ArrivalConfig{Process: Poisson, Curve: c, Seed: seed}.Schedule(0, horizon))
	}
	mean := float64(total) / seeds
	// ±5 std-devs of the per-run Poisson spread, comfortably non-flaky.
	if tol := 5 * math.Sqrt(want/seeds); math.Abs(mean-want) > tol {
		t.Fatalf("mean arrivals %v over %d seeds; expected %v ± %v", mean, seeds, want, tol)
	}
}

func TestArrivalsIteratorMatchesSchedule(t *testing.T) {
	const from, to = 2500 * time.Microsecond, 33 * time.Millisecond
	for name, cfg := range arrivalCases() {
		want := cfg.Schedule(from, to)
		it := NewArrivals(cfg, from, to)
		var got []time.Duration
		for {
			at, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, at)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: iterator yielded %d arrivals, Schedule %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: iterator arrival %d = %v, Schedule %v", name, i, got[i], want[i])
			}
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("%s: iterator yielded past exhaustion", name)
		}
	}
}

func TestEmptyWindow(t *testing.T) {
	cfg := ArrivalConfig{Process: Poisson, Curve: ConstantRate{PerSec: 1000}, Seed: 3}
	if s := cfg.Schedule(5*time.Millisecond, 5*time.Millisecond); len(s) != 0 {
		t.Fatalf("empty window produced %d arrivals", len(s))
	}
	if s := cfg.Schedule(5*time.Millisecond, 4*time.Millisecond); len(s) != 0 {
		t.Fatalf("inverted window produced %d arrivals", len(s))
	}
	if s := (ArrivalConfig{Process: Poisson, Curve: ConstantRate{}, Seed: 3}).Schedule(0, 10*time.Millisecond); len(s) != 0 {
		t.Fatalf("zero-rate curve produced %d arrivals", len(s))
	}
}

// TestArrivalsPinned pins every built-in scenario's arrival streams exactly:
// each tenant's Schedule(0, Horizon) at rate scales 1 and 3.5, seeded as Run
// seeds it at seed 1, hashed as FNV-64a over the little-endian timestamps.
// Any change to slicing, seeding, Poisson sampling or the inverse that moves
// a single nanosecond fails here.
func TestArrivalsPinned(t *testing.T) {
	pins := []struct {
		scenario string
		scale    float64
		count    int
		digest   uint64
	}{
		{"diurnal", 1, 14011, 0xffa23844523bd081},
		{"diurnal", 3.5, 49035, 0x201aeb9775f7651c},
		{"flashcrowd", 1, 16071, 0x260f177a99f2e148},
		{"flashcrowd", 3.5, 56214, 0x117a734523e58ae7},
		{"churn", 1, 15738, 0x4ecddb27530b5cff},
		{"churn", 3.5, 54772, 0x5e12e182f1d5d757},
	}
	for _, p := range pins {
		scen, err := NamedScenario(p.scenario)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		count := 0
		for i, ts := range scen.Tenants {
			cfg := ArrivalConfig{Process: ts.Process, Curve: Scale(ts.Curve, p.scale), Seed: sliceSeed(1, int64(2*i+2))}
			for _, at := range cfg.Schedule(0, scen.Horizon) {
				binary.LittleEndian.PutUint64(buf[:], uint64(at))
				h.Write(buf[:])
				count++
			}
		}
		if count != p.count || h.Sum64() != p.digest {
			t.Errorf("%s ×%g: %d arrivals, digest %016x; pinned %d, %016x",
				p.scenario, p.scale, count, h.Sum64(), p.count, p.digest)
		}
	}
}

// TestArrivalsNextAllocFree pins the steady-state generator at zero heap
// allocations: the slice buffer is reused, the slice's curve is prepared on
// the stack, and the in-slice sort allocates no closure or swapper.
func TestArrivalsNextAllocFree(t *testing.T) {
	scen, err := NamedScenario("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	curve := Scale(scen.Tenants[0].Curve, 3.5)
	it := NewArrivals(ArrivalConfig{Process: Poisson, Curve: curve, Seed: 5}, 0, time.Hour)
	pull := func() {
		for i := 0; i < 1000; i++ {
			if _, ok := it.Next(); !ok {
				t.Fatal("stream ended early")
			}
		}
	}
	for i := 0; i < 50; i++ {
		pull() // grow the slice buffer to its steady-state capacity
	}
	if allocs := testing.AllocsPerRun(20, pull); allocs != 0 {
		t.Fatalf("%v allocations per 1000 arrivals, want 0", allocs)
	}
}
