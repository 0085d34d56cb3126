package loadgen

import (
	"math"
	"reflect"
	"testing"
	"time"

	"fluidmem/internal/clock"
)

func mustScenario(t *testing.T, name string) Scenario {
	t.Helper()
	s, err := NamedScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunSameSeedBitIdentical(t *testing.T) {
	scen := mustScenario(t, "diurnal")
	cfg := Config{Scenario: scen, Planner: PlannerArbiter, Seed: 99}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("digests differ: %016x vs %016x", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("reports differ beyond digest")
	}
}

func TestRunSeedsDiverge(t *testing.T) {
	scen := mustScenario(t, "diurnal")
	a, err := Run(Config{Scenario: scen, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Scenario: scen, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Fatal("different seeds produced equal digests")
	}
}

func TestRunChurnLifecycle(t *testing.T) {
	scen := mustScenario(t, "churn")
	rep, err := Run(Config{Scenario: scen, Planner: PlannerArbiter, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]TenantReport{}
	for _, tr := range rep.Tenants {
		byID[tr.ID] = tr
	}
	// The late-booting and dying tenants each see roughly half the horizon;
	// their offered counts must reflect their live windows, not the full run.
	full := byID["steady"]
	if full.Offered == 0 {
		t.Fatal("steady tenant offered nothing")
	}
	for _, id := range []string{"dies", "lateboot"} {
		tr := byID[id]
		if tr.Offered == 0 {
			t.Fatalf("%s tenant offered nothing", id)
		}
	}
	// The planner must keep closing epochs after the death and around the
	// boot — the inactive-tenant barrier skip in Host.noteOp.
	if rep.Epochs < 2 {
		t.Fatalf("churn run closed only %d epochs; barrier stalled on the dead tenant?", rep.Epochs)
	}
}

func TestRunGoodputCollapsesPastKnee(t *testing.T) {
	scen := mustScenario(t, "flashcrowd")
	low, err := Run(Config{Scenario: scen, Seed: 5, RateScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(Config{Scenario: scen, Seed: 5, RateScale: 8})
	if err != nil {
		t.Fatal(err)
	}
	if low.Good > low.Offered || high.Good > high.Offered {
		t.Fatal("goodput exceeded offered load")
	}
	// Below the knee nearly everything is good; far past it most is not.
	if frac := float64(low.Good) / float64(low.Offered); frac < 0.9 {
		t.Fatalf("below-knee good fraction %v, want > 0.9", frac)
	}
	if frac := float64(high.Good) / float64(high.Offered); frac > 0.5 {
		t.Fatalf("past-knee good fraction %v, want < 0.5", frac)
	}
	if high.SojournP99 <= low.SojournP99 {
		t.Fatalf("p99 did not grow with load: %v vs %v", low.SojournP99, high.SojournP99)
	}
	if high.Backlog == 0 {
		t.Fatal("past-knee run reports zero backlog")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty scenario accepted")
	}
	scen := mustScenario(t, "diurnal")
	if _, err := Run(Config{Scenario: scen, Planner: "chaos"}); err == nil {
		t.Fatal("unknown planner accepted")
	}
	if _, err := Run(Config{Scenario: scen, RateScale: -1}); err == nil {
		t.Fatal("negative rate scale accepted")
	}
	bad := scen
	bad.Horizon = 0
	if _, err := Run(Config{Scenario: bad}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := NamedScenario("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}

// TestRunRejectsBadCurves covers every input the curve validator refuses.
// Each used to be accepted: a zero period or a NaN scale hung the generator
// (a NaN Poisson mean never terminates Knuth's product loop), and a swing
// above 1 gave a negative rate, breaking the non-decreasing CumOps contract
// the inverse's bracket relies on.
func TestRunRejectsBadCurves(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	day := DiurnalRate{Base: 100, Swing: 0.5, Period: 10 * time.Millisecond}
	withPeriod := func(p time.Duration) DiurnalRate { d := day; d.Period = p; return d }
	withSwing := func(s float64) DiurnalRate { d := day; d.Swing = s; return d }
	cases := []struct {
		name  string
		curve RateCurve
		scale float64
	}{
		{"nil curve", nil, 1},
		{"nan scale", day, nan},
		{"inf scale", day, inf},
		{"constant nan", ConstantRate{PerSec: nan}, 1},
		{"constant inf", ConstantRate{PerSec: inf}, 1},
		{"constant negative", ConstantRate{PerSec: -1}, 1},
		{"diurnal zero period", withPeriod(0), 1},
		{"diurnal negative period", withPeriod(-time.Millisecond), 1},
		{"diurnal swing above 1", withSwing(3), 1},
		{"diurnal negative swing", withSwing(-0.1), 1},
		{"diurnal nan swing", withSwing(nan), 1},
		{"diurnal negative base", DiurnalRate{Base: -5, Swing: 0.5, Period: time.Millisecond}, 1},
		{"diurnal inf base", DiurnalRate{Base: inf, Swing: 0.5, Period: time.Millisecond}, 1},
		{"diurnal nan phase", DiurnalRate{Base: 5, Swing: 0.5, Period: time.Millisecond, Phase: nan}, 1},
		{"diurnal inf phase", DiurnalRate{Base: 5, Swing: 0.5, Period: time.Millisecond, Phase: -inf}, 1},
		{"flash negative base", FlashCrowdRate{Base: -1, Spike: 2, Width: time.Millisecond}, 1},
		{"flash negative spike", FlashCrowdRate{Base: 10, Spike: -2, Width: time.Millisecond}, 1},
		{"flash nan spike", FlashCrowdRate{Base: 10, Spike: nan, Width: time.Millisecond}, 1},
		{"flash negative width", FlashCrowdRate{Base: 10, Spike: 2, Width: -time.Millisecond}, 1},
		{"flash negative start", FlashCrowdRate{Base: 10, Spike: 2, Start: -time.Millisecond, Width: time.Millisecond}, 1},
		{"scaled negative factor", ScaledRate{Curve: day, Factor: -2}, 1},
		{"scaled nan factor", ScaledRate{Curve: day, Factor: nan}, 1},
		{"scaled bad inner", ScaledRate{Curve: withSwing(3), Factor: 2}, 1},
		{"scaled nil inner", ScaledRate{Factor: 2}, 1},
	}
	run := func(curve RateCurve, scale float64) error {
		scen := mustScenario(t, "diurnal")
		scen.Horizon = 10 * time.Millisecond
		scen.Tenants[0].Curve = curve
		_, err := Run(Config{Scenario: scen, RateScale: scale})
		return err
	}
	for _, tc := range cases {
		if run(tc.curve, tc.scale) == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The edges of the contract stay accepted.
	for _, ok := range []RateCurve{withSwing(0), withSwing(1), ConstantRate{}, ScaledRate{Curve: day},
		FlashCrowdRate{Base: 10, Spike: 0, Width: time.Millisecond}} {
		if err := run(ok, 1); err != nil {
			t.Errorf("%#v rejected: %v", ok, err)
		}
	}
}

// TestArrivalsBadCurveTerminates feeds a contract-breaking curve straight to
// the generator, past Run's validation: its NaN measure must yield no
// arrivals rather than hang the Poisson sampler.
func TestArrivalsBadCurveTerminates(t *testing.T) {
	it := NewArrivals(ArrivalConfig{Curve: DiurnalRate{Base: 100, Swing: 0.5}}, 0, 10*time.Millisecond)
	if at, ok := it.Next(); ok {
		t.Fatalf("zero-period curve yielded an arrival at %v", at)
	}
	r := clock.NewRand(1)
	for _, lambda := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 0} {
		if n := poissonCount(r, lambda); n != 0 {
			t.Fatalf("poissonCount(%v) = %d, want 0", lambda, n)
		}
	}
}

func TestRunReportRenders(t *testing.T) {
	scen := mustScenario(t, "diurnal")
	scen.Horizon = 40 * time.Millisecond
	rep, err := Run(Config{Scenario: scen, Planner: PlannerMarket, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{"diurnal", "market", "offered", "goodput", "digest"} {
		if !contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
