package loadgen

import (
	"fmt"
	"math"
	"time"
)

// RateCurve is an offered-load shape: the instantaneous arrival rate of an
// open-loop traffic source as a function of virtual time. Curves are pure:
// no state, no randomness, so the same curve evaluated twice is bit-equal —
// the property the arrival schedules (and their determinism oracle) build
// on.
//
// CumOps is the load-bearing method: the expected number of arrivals in
// [0, t), i.e. the integral of Rate. Both the deterministic-rate process
// (arrivals where CumOps crosses successive integers) and the
// non-homogeneous Poisson process (inversion sampling of the conditional
// cumulative measure) are generated purely from CumOps, so a curve only
// needs a closed-form integral, never a closed-form inverse.
type RateCurve interface {
	// Rate reports the instantaneous arrival rate at virtual time t, in
	// operations per second of virtual time. Must be non-negative.
	Rate(t time.Duration) float64
	// CumOps reports the expected number of arrivals in [0, t): the
	// integral of Rate over [0, t). Must be continuous, non-decreasing,
	// and zero at t = 0.
	CumOps(t time.Duration) float64
}

// secs converts virtual time to float seconds for curve arithmetic.
func secs(t time.Duration) float64 { return float64(t) / float64(time.Second) }

// ConstantRate offers a fixed load.
type ConstantRate struct {
	// PerSec is the arrival rate in ops per second of virtual time.
	PerSec float64
}

func (c ConstantRate) Rate(time.Duration) float64     { return c.PerSec }
func (c ConstantRate) CumOps(t time.Duration) float64 { return c.PerSec * secs(t) }

// DiurnalRate is the datacenter day/night sinusoid:
//
//	rate(t) = Base * (1 + Swing*sin(2πt/Period + Phase))
//
// with Swing in [0, 1] (Swing = 1 swings between 0 and 2×Base). Two tenants
// with Phase π apart model anti-correlated day/night populations — the load
// shape the planners are supposed to arbitrage.
type DiurnalRate struct {
	// Base is the mean rate in ops/sec; Swing the relative amplitude.
	Base, Swing float64
	// Period is the full day length in virtual time.
	Period time.Duration
	// Phase offsets the sinusoid in radians.
	Phase float64
}

func (c DiurnalRate) omega() float64 { return 2 * math.Pi / secs(c.Period) }

func (c DiurnalRate) Rate(t time.Duration) float64 {
	return c.Base * (1 + c.Swing*math.Sin(c.omega()*secs(t)+c.Phase))
}

func (c DiurnalRate) CumOps(t time.Duration) float64 {
	w := c.omega()
	return diurnalCum(c.Base, c.Swing/w, math.Cos(c.Phase), w, c.Phase, secs(t))
}

// diurnalCum is ∫ Base*(1+Swing*sin(ws+φ)) ds = Base*(s + Swing/w*(cos φ −
// cos(ws+φ))) with q = Swing/w and cos φ passed in, so invCum can hoist them
// and still compute CumOps bit for bit.
func diurnalCum(base, q, cosPhase, w, phase, s float64) float64 {
	return base * (s + q*(cosPhase-math.Cos(w*s+phase)))
}

// FlashCrowdRate is a step spike: Base load everywhere, multiplied by Spike
// during [Start, Start+Width) — the front-page / breaking-news shape whose
// queueing transient closed-loop benches cannot exhibit.
type FlashCrowdRate struct {
	// Base is the quiescent rate in ops/sec; Spike the multiplier applied
	// during the crowd (Spike = 8 means 8× Base).
	Base, Spike float64
	// Start and Width place the crowd in virtual time.
	Start, Width time.Duration
}

func (c FlashCrowdRate) Rate(t time.Duration) float64 {
	if t >= c.Start && t < c.Start+c.Width {
		return c.Base * c.Spike
	}
	return c.Base
}

func (c FlashCrowdRate) CumOps(t time.Duration) float64 {
	cum := c.Base * secs(t)
	// Add the extra (Spike−1)×Base measure accumulated inside the burst.
	if t > c.Start {
		in := t - c.Start
		if in > c.Width {
			in = c.Width
		}
		cum += c.Base * (c.Spike - 1) * secs(in)
	}
	return cum
}

// ScaledRate multiplies an inner curve by a constant factor — the
// offered-load sweep knob the knee-of-curve experiment turns.
type ScaledRate struct {
	Curve  RateCurve
	Factor float64
}

func (c ScaledRate) Rate(t time.Duration) float64   { return c.Factor * c.Curve.Rate(t) }
func (c ScaledRate) CumOps(t time.Duration) float64 { return c.Factor * c.Curve.CumOps(t) }

// Scale wraps curve so its rate (and cumulative measure) is multiplied by
// factor; factor 1 returns the curve unchanged.
func Scale(curve RateCurve, factor float64) RateCurve {
	if factor == 1 {
		return curve
	}
	return ScaledRate{Curve: curve, Factor: factor}
}

// curveErr checks c against the RateCurve contract (finite, non-negative
// rates, so the exact integral Λ is non-decreasing) and bounds |CumOps − Λ|
// over |t| ≤ s seconds by 64 ulps of 1 times the magnitudes a first-order
// rounding analysis of CumOps sums; 8 suffice even with math.Cos 8 ulps
// off (DESIGN.md §17). Each bound exceeds 2⁻⁴⁶·|Λ|, so ScaledRate's
// doubling covers its rounding. Foreign and invalid curves get +Inf.
func curveErr(c RateCurve, s float64) (float64, error) {
	const k = 64 * 0x1p-52
	m, ok := math.Inf(1), c != nil
	switch c := c.(type) {
	case ConstantRate:
		m, ok = k*c.PerSec*s, finiteNonNeg(c.PerSec)
	case DiurnalRate:
		w := c.omega()
		q := c.Swing / w
		m = k * c.Base * (s + 2*q + q*(w*s+math.Abs(c.Phase)+1))
		ok = finiteNonNeg(c.Base) && c.Swing >= 0 && c.Swing <= 1 && c.Period > 0 && !math.IsInf(c.Phase, 0) && !math.IsNaN(c.Phase)
	case FlashCrowdRate:
		m = k * c.Base * (s + math.Abs(c.Spike-1)*secs(c.Width))
		ok = finiteNonNeg(c.Base) && finiteNonNeg(c.Spike) && c.Width >= 0 && c.Start >= 0
	case ScaledRate:
		inner, err := curveErr(c.Curve, s)
		m, ok = 2*c.Factor*inner, err == nil && finiteNonNeg(c.Factor)
	}
	if !ok {
		return math.Inf(1), fmt.Errorf("rate curve %#v needs finite, non-negative parameters and times, a positive period and a swing in [0, 1]", c)
	}
	return m, nil
}

func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// sliceCurve prepares a curve to invert its CumOps over one slice (lo, hi]:
// end measures, curveErr's bound m, and, when hoisted, a DiurnalRate's
// invariants under an optional ScaledRate factor (1·x == x exactly).
type sliceCurve struct {
	c                                   RateCurve
	lo, hi                              time.Duration
	cumLo, cumHi, m                     float64
	hoisted                             bool
	factor, base, q, cosPhase, w, phase float64
}

func newSliceCurve(c RateCurve, lo, hi time.Duration) sliceCurve {
	sc := sliceCurve{c: c, lo: lo, hi: hi, factor: 1}
	inner := c
	if s, ok := c.(ScaledRate); ok {
		sc.factor, inner = s.Factor, s.Curve
	}
	if d, ok := inner.(DiurnalRate); ok {
		sc.hoisted, sc.w = true, d.omega()
		sc.base, sc.q, sc.cosPhase, sc.phase = d.Base, d.Swing/sc.w, math.Cos(d.Phase), d.Phase
	}
	sc.cumLo, sc.cumHi = sc.cum(lo), sc.cum(hi)
	sc.m, _ = curveErr(c, max(math.Abs(secs(lo)), math.Abs(secs(hi)))) // +Inf on error: plain bisection
	return sc
}

// cum is c.CumOps(t), bit for bit.
func (sc *sliceCurve) cum(t time.Duration) float64 {
	if !sc.hoisted {
		return sc.c.CumOps(t)
	}
	return sc.factor * diurnalCum(sc.base, sc.q, sc.cosPhase, sc.w, sc.phase, secs(t))
}

// invCum finds the earliest nanosecond t in (lo, hi] with CumOps(t) >=
// target by bisection over integer nanoseconds. Only probes strictly inside
// the certified bracket (a, b) evaluate CumOps; the rest decide as it would.
// When the bracket has closed to adjacent nanoseconds (the common case) no
// probe is left to evaluate: every mid ≤ a goes low and every mid ≥ b goes
// high, so the bisection would end at hi = b, which is returned directly.
func invCum(sc *sliceCurve, target float64) time.Duration {
	a, b := sc.bracket(target)
	if b == a+1 {
		return b
	}
	lo, hi := sc.lo, sc.hi
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if mid <= a || (mid < b && sc.cum(mid) < target) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// bracket returns a < b with CumOps(t) < target for every slice t ≤ a and
// CumOps(t) ≥ target for every t ≥ b: Λ is non-decreasing and |CumOps − Λ|
// ≤ m, so CumOps(t) ≤ Λ(t) + m ≤ Λ(a) + m ≤ CumOps(a) + 2m < target for
// t ≤ a; symmetrically for b. Three secant steps predict the answer c, and
// c−1 and c are certified, stepping outward ×4. With m = +Inf it is (lo, hi).
func (sc *sliceCurve) bracket(target float64) (a, b time.Duration) {
	a, b = sc.lo, sc.hi
	m2 := 2 * sc.m
	if !(m2 < math.Inf(1)) || b-a <= 1 {
		return a, b
	}
	eval := func(t time.Duration) float64 { // t must lie in (a, b)
		y := sc.cum(t)
		if y+m2 < target {
			a = t
		} else if y-m2 >= target {
			b = t
		}
		return y
	}
	// step: where the line through (x0, y0), (x1, y1) reaches target, in (a, b).
	step := func(x0 time.Duration, y0 float64, x1 time.Duration, y1 float64) time.Duration {
		off := math.Ceil((target - y0) / (y1 - y0) * float64(x1-x0))
		switch {
		case !(off > float64(a-x0)): // NaN lands here too
			return a + 1
		case !(off < float64(b-x0)):
			return b - 1
		}
		return x0 + time.Duration(off)
	}
	x1 := step(sc.lo, sc.cumLo, sc.hi, sc.cumHi)
	y1 := eval(x1)
	if b-a <= 1 {
		return a, b
	}
	xe, ye := sc.hi, sc.cumHi // regula falsi: the end point across target from x1
	if y1 >= target {
		xe, ye = sc.lo, sc.cumLo
	}
	x2 := step(x1, y1, xe, ye)
	if y2 := eval(x2); b-a > 1 {
		c := step(x1, y1, x2, y2)
		for d := time.Duration(1); c-d > a; d *= 4 {
			eval(c - d)
		}
		for d := time.Duration(1); c+d-1 < b; d *= 4 {
			eval(c + d - 1)
		}
	}
	return a, b
}
