package fluidmem

import (
	"errors"
	"fmt"
	"time"

	"fluidmem/internal/arbiter"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/market"
	"fluidmem/internal/trace"
)

// ArbiterPolicy re-exports the greedy reallocation policy knobs
// (floor/ceiling, slab size, moves per epoch, hysteresis).
type ArbiterPolicy = arbiter.Policy

// ArbiterConfig enables adaptive local-memory balancing on a Host with the
// PR-5 greedy reallocator — the single-policy baseline the marketplace is
// benchmarked against.
type ArbiterConfig struct {
	// Policy tunes the greedy reallocator; the zero value selects
	// arbiter.DefaultPolicy for the host's budget and VM count.
	Policy ArbiterPolicy
	// EpochOps is the per-VM guest-operation count that closes an epoch
	// window: each VM's miss-ratio curve is snapshotted as it crosses the
	// boundary, and the arbiter runs once every VM has crossed. Counting
	// operations instead of virtual time keeps epoch decisions identical
	// across worker counts and VM interleavings — operation sequences are
	// invariant, timings are not. 0 selects the default, 512; negative is
	// an error.
	EpochOps int
}

// MarketConfig enables the Memtrade-style memory marketplace on a Host:
// tenants bid for slabs priced from their ghost-LRU miss-ratio curves,
// grants are tracked as leases, and tenants violating their p99
// fault-latency SLO get their donated leases clawed back (internal/market).
type MarketConfig struct {
	// Policy tunes the marketplace; the zero value selects
	// market.DefaultConfig for the host's budget and tenant count.
	Policy MarketPolicy
	// EpochOps is the per-tenant operation count closing an epoch window,
	// exactly as in ArbiterConfig: 0 selects 512, negative is an error.
	EpochOps int
}

// HostConfig assembles a multi-tenant host: N guests on one hypervisor
// sharing one key-value store and one local DRAM page budget.
type HostConfig struct {
	// Tenants declares the guests by name with per-tenant policies, in the
	// order Host.Tenants and HostStats report them. Each tenant's machine
	// gets LocalMemory from the host's equal split of TotalLocalPages, and
	// SharedStore, Registry, HypervisorID, and (unless set) Hotset and Seed
	// filled in by the host.
	Tenants []TenantSpec
	// TotalLocalPages is the host DRAM page budget shared across all
	// tenants. Must admit at least one page per tenant.
	TotalLocalPages int
	// Arbiter, when non-nil, rebalances the budget every epoch with the
	// greedy reallocator. Mutually exclusive with Market; nil keeps the
	// static equal split (the baseline the planners must beat).
	Arbiter *ArbiterConfig
	// Market, when non-nil, runs the marketplace planner every epoch.
	Market *MarketConfig
	// EpochOps makes a planner-less host still run epoch windows (curve
	// capture + SLO evaluation, no rebalancing) — the static-split variant
	// of the bench needs SLO accounting to report a miss rate. Ignored when
	// Arbiter or Market is set (their EpochOps governs). Must not be
	// negative.
	EpochOps int
	// Tracer optionally instruments the SHARED store and receives the
	// host's ARBITER epoch events. Per-tenant pipelines are traced via each
	// MachineConfig's own Tracer. Pure observation, as everywhere.
	Tracer *Tracer
	// Seed derives per-tenant seeds for machines that leave Seed zero.
	Seed uint64
}

// Host runs N Machines against one shared store under one global DRAM page
// budget — the multi-tenant deployment of §IV. Every per-tenant operation
// goes through a *Tenant handle (Host.Tenant, Host.Tenants), which owns the
// tenant's machine, policy, lifecycle state, and epoch-window bookkeeping;
// the pluggable planner (greedy arbiter or Memtrade-style marketplace)
// resizes their shares each epoch using FluidMem's resize primitive.
type Host struct {
	tenants []*Tenant
	byID    map[string]*Tenant
	cfg     HostConfig

	// planner decides each epoch's share plan; nil means no rebalancing.
	// mkt aliases the planner when it is the marketplace (lease book and
	// market counters surface in HostStats).
	planner  arbiter.Planner
	mkt      *market.Market
	epochOps int
	// windows is true when epoch windows run at all (planner present, or
	// HostConfig.EpochOps set for SLO-only accounting).
	windows bool

	stats arbiter.Stats
}

// NewHost builds the machines and wires the shared plumbing. Every tenant
// runs ModeFluidMem (the swap baseline cannot resize, so it cannot
// participate in a shared budget).
func NewHost(cfg HostConfig) (*Host, error) {
	specs := cfg.Tenants
	n := len(specs)
	if n == 0 {
		return nil, errors.New("fluidmem: host needs at least one tenant")
	}
	if cfg.TotalLocalPages < n {
		return nil, fmt.Errorf("fluidmem: budget %d pages cannot give %d tenants a page each", cfg.TotalLocalPages, n)
	}
	if cfg.Arbiter != nil && cfg.Market != nil {
		return nil, errors.New("fluidmem: Arbiter and Market are mutually exclusive planners")
	}
	if cfg.EpochOps < 0 {
		return nil, fmt.Errorf("fluidmem: negative HostConfig.EpochOps %d", cfg.EpochOps)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	h := &Host{
		cfg:      cfg,
		byID:     make(map[string]*Tenant, n),
		epochOps: 512,
	}
	switch {
	case cfg.Arbiter != nil:
		if cfg.Arbiter.EpochOps < 0 {
			return nil, fmt.Errorf("fluidmem: negative ArbiterConfig.EpochOps %d", cfg.Arbiter.EpochOps)
		}
		policy := cfg.Arbiter.Policy
		if policy == (arbiter.Policy{}) {
			policy = arbiter.DefaultPolicy(cfg.TotalLocalPages, n)
		}
		if err := policy.Validate(); err != nil {
			return nil, fmt.Errorf("fluidmem: %w", err)
		}
		h.planner = policy
		if cfg.Arbiter.EpochOps > 0 {
			h.epochOps = cfg.Arbiter.EpochOps
		}
	case cfg.Market != nil:
		if cfg.Market.EpochOps < 0 {
			return nil, fmt.Errorf("fluidmem: negative MarketConfig.EpochOps %d", cfg.Market.EpochOps)
		}
		mc := cfg.Market.Policy
		if mc == (market.Config{}) {
			mc = market.DefaultConfig(cfg.TotalLocalPages, n)
		}
		mkt, err := market.New(mc)
		if err != nil {
			return nil, fmt.Errorf("fluidmem: %w", err)
		}
		h.planner = mkt
		h.mkt = mkt
		if cfg.Market.EpochOps > 0 {
			h.epochOps = cfg.Market.EpochOps
		}
	case cfg.EpochOps > 0:
		h.epochOps = cfg.EpochOps
	}
	h.windows = h.planner != nil || cfg.EpochOps > 0

	// One shared backend + one shared partition registry: the registry's
	// collision handling guarantees each tenant a distinct store partition
	// even if two seeds produce the same guest pid.
	template := specs[0].VM
	applyMachineDefaults(&template)
	shared := template.SharedStore
	if shared == nil {
		backend, _, err := newStore(MachineConfig{Backend: template.Backend, StoreCapacity: template.StoreCapacity, Seed: cfg.Seed + 7})
		if err != nil {
			return nil, err
		}
		shared = backend
	}
	shared = kvstore.Instrumented(shared, cfg.Tracer)
	registry := template.Registry
	if registry == nil {
		registry = kvstore.NewLocalRegistry()
	}

	share := cfg.TotalLocalPages / n
	for i, spec := range specs {
		if spec.ID == "" {
			return nil, fmt.Errorf("fluidmem: tenant %d has an empty ID", i)
		}
		if _, dup := h.byID[spec.ID]; dup {
			return nil, fmt.Errorf("fluidmem: duplicate tenant ID %q", spec.ID)
		}
		pol := spec.Policy
		if pol.FloorPages < 0 || pol.CeilPages < 0 || pol.SLO < 0 {
			return nil, fmt.Errorf("fluidmem: tenant %q: negative policy field", spec.ID)
		}
		if pol.CeilPages != 0 && pol.FloorPages > pol.CeilPages {
			return nil, fmt.Errorf("fluidmem: tenant %q: floor %d above ceiling %d", spec.ID, pol.FloorPages, pol.CeilPages)
		}
		mc := spec.VM
		if mc.Mode != 0 && mc.Mode != ModeFluidMem {
			return nil, fmt.Errorf("fluidmem: tenant %q: only ModeFluidMem machines can share a resizable budget", spec.ID)
		}
		mc.Mode = ModeFluidMem
		mc.SharedStore = shared
		mc.Registry = registry
		mc.HypervisorID = fmt.Sprintf("host-vm-%d", i)
		mc.LocalMemory = uint64(share) * PageSize
		if mc.Seed == 0 {
			mc.Seed = cfg.Seed + uint64(i)*0x9e37_79b9 + 1
		}
		if mc.Hotset == nil {
			// The ghost list must see past the equal split for the planners
			// to price grants: shadow up to the FULL host budget.
			p := DefaultHotsetParams(share)
			p.GhostCapacity = cfg.TotalLocalPages
			mc.Hotset = &p
		}
		if pol.SLO > 0 && mc.Tracer == nil && h.windows {
			// SLO windows need the FAULT histogram. A histogram-only tracer
			// is pure observation: simulated results are bit-identical with
			// or without it.
			mc.Tracer = NewTracer(false)
		}
		m, err := NewMachine(mc)
		if err != nil {
			return nil, fmt.Errorf("fluidmem: tenant %q: %w", spec.ID, err)
		}
		t := &Tenant{host: h, id: spec.ID, machine: m, policy: pol, active: true}
		t.slo.Target = pol.SLO
		h.tenants = append(h.tenants, t)
		h.byID[spec.ID] = t
	}
	return h, nil
}

// Tenant returns the handle for the named tenant.
func (h *Host) Tenant(id string) (*Tenant, bool) {
	t, ok := h.byID[id]
	return t, ok
}

// Tenants returns every tenant handle in configuration order.
func (h *Host) Tenants() []*Tenant {
	return append([]*Tenant(nil), h.tenants...)
}

// Now reports the host's virtual clock: the frontier (max) of the tenant
// clocks. Tenants run concurrently on one host, so the host has existed for
// as long as its longest-running tenant.
func (h *Host) Now() time.Duration {
	var now time.Duration
	for _, t := range h.tenants {
		if t.machine.Now() > now {
			now = t.machine.Now()
		}
	}
	return now
}

// noteOp counts one guest operation for tenant t and plans an epoch when
// every tenant has crossed the current window boundary. Decisions are
// interleaving-invariant: each tenant's snapshots (hotset counters and
// FAULT histogram) are captured at its own EpochOps-th operation of the
// window — a function of the tenant's private operation sequence only —
// and the planner sees exactly those N snapshots no matter the order in
// which tenants reached the boundary.
func (h *Host) noteOp(t *Tenant) error {
	if !h.windows {
		return nil
	}
	t.opCount++
	if t.opCount == h.epochOps && !t.crossed {
		t.capture()
	}
	for _, u := range h.tenants {
		if !u.crossed && u.active {
			return nil
		}
	}
	// Every active tenant has crossed; inactive tenants are frozen, so
	// capturing them now observes exactly the state they died (or have not
	// yet booted) with, independent of when in the window this op landed.
	for _, u := range h.tenants {
		if !u.crossed {
			u.capture()
		}
	}
	return h.rebalance()
}

// rebalance runs one epoch: price each tenant's window curve, evaluate its
// SLO window, ask the planner for a plan, apply donations before grants
// (the budget is never transiently exceeded), and fold predicted/realized
// savings into the host stats.
func (h *Host) rebalance() error {
	views := make([]arbiter.VMView, len(h.tenants))
	for i, t := range h.tenants {
		windowHits := t.captured.GhostHits - t.windowBase.GhostHits
		// Realized-savings feedback: a tenant granted pages last epoch
		// should re-reference less this window. The drop in window ghost
		// hits is the observable fraction of what the grant actually bought.
		if t.granted && t.lastWindowHits > windowHits {
			h.stats.RealizedSavings += t.lastWindowHits - windowHits
		}
		t.lastWindowHits = windowHits

		verdict := market.EvaluateSLO(t.policy.SLO, t.capturedHist, t.windowBaseHist)
		if verdict.Evaluated {
			t.slo.Windows++
			if verdict.Violated {
				t.slo.Violations++
			}
		}
		t.slo.LastP99 = verdict.P99
		t.slo.LastFaults = verdict.Faults
		views[i] = arbiter.VMView{
			ID:           t.id,
			SharePages:   t.machine.monitor.FootprintLimit(),
			Curve:        t.captured.Curve.Sub(t.windowBase.Curve),
			WindowFaults: t.captured.Faults - t.windowBase.Faults,
			FloorPages:   t.policy.FloorPages,
			CeilPages:    t.policy.CeilPages,
			SLOTarget:    t.policy.SLO,
			WindowP99:    verdict.P99,
		}
	}

	if h.planner != nil {
		plan, err := h.planner.Plan(views)
		if err != nil {
			return fmt.Errorf("fluidmem: planner: %w", err)
		}
		h.stats.Observe(plan)

		// Shrink donors first: every grant is then funded by pages already
		// returned, so the sum of shares never exceeds the budget mid-apply.
		for pass := 0; pass < 2; pass++ {
			for _, t := range h.tenants {
				target, cur := plan.Shares[t.id], t.machine.monitor.FootprintLimit()
				shrink := target < cur
				if target == cur || (pass == 0) != shrink {
					continue
				}
				if err := t.machine.ResizeFootprint(target); err != nil {
					return fmt.Errorf("fluidmem: planner resize %s: %w", t.id, err)
				}
			}
		}

		for _, t := range h.tenants {
			t.granted = false
		}
		pages := 0
		for _, mv := range plan.Moves {
			if t, ok := h.byID[mv.To]; ok {
				t.granted = true
			}
			pages += mv.Pages
		}
		if len(plan.Moves) > 0 {
			h.cfg.Tracer.Emit(trace.EvArbiter, 0, uint64(h.stats.Epochs), h.Now(), 0,
				fmt.Sprintf("moves=%d pages=%d", len(plan.Moves), pages))
		}
	}

	// Open the next window from the captured boundary snapshots.
	for _, t := range h.tenants {
		t.windowBase, t.windowBaseHist = t.captured, t.capturedHist
		t.crossed, t.opCount = false, 0
	}
	return nil
}

// HostStats is the host-level telemetry snapshot.
type HostStats struct {
	// Now is the host clock (frontier of tenant clocks).
	Now time.Duration
	// TotalLocalPages is the shared budget; Shares the current per-VM
	// split (always summing to at most the budget).
	TotalLocalPages int
	Shares          []int
	// WSSPages is each tenant's current working-set estimate.
	WSSPages []int
	// Tenants is the per-tenant view: ID, policy, share, and SLO
	// accounting, in configuration order.
	Tenants []TenantStats
	// Arbiter accumulates epoch activity for whichever planner runs
	// (zero-valued without one).
	Arbiter ArbiterCounters
	// Market holds the marketplace counters and Leases its live lease book,
	// nil/empty unless the market planner is configured.
	Market *MarketCounters
	Leases []MarketLease
	// VMs holds each tenant's full machine snapshot.
	VMs []Stats
}

// Stats snapshots the host and every tenant.
func (h *Host) Stats() HostStats {
	st := HostStats{
		Now:             h.Now(),
		TotalLocalPages: h.cfg.TotalLocalPages,
		Arbiter:         h.stats,
	}
	if h.mkt != nil {
		ms := h.mkt.Stats()
		st.Market = &ms
		st.Leases = h.mkt.Leases()
	}
	for _, t := range h.tenants {
		ms := t.machine.Stats()
		st.VMs = append(st.VMs, ms)
		st.Shares = append(st.Shares, ms.FootprintLimit)
		st.WSSPages = append(st.WSSPages, ms.WSSPages)
		st.Tenants = append(st.Tenants, TenantStats{
			ID:         t.id,
			Policy:     t.policy,
			Active:     t.active,
			SharePages: ms.FootprintLimit,
			WSSPages:   ms.WSSPages,
			SLO:        t.slo,
		})
	}
	return st
}

// Drain quiesces every tenant's writeback engine.
func (h *Host) Drain() error {
	for _, t := range h.tenants {
		if err := t.machine.Drain(); err != nil {
			return fmt.Errorf("fluidmem: drain %s: %w", t.id, err)
		}
	}
	return nil
}
