package fluidmem

import (
	"time"

	"fluidmem/internal/market"
	"fluidmem/internal/stats"
	"fluidmem/internal/trace"
)

// This file is the tenant face of the Host API, and its only per-tenant
// surface: each guest is a named Tenant carrying its own TenantPolicy
// (floor, ceiling, p99 fault-latency SLO), and every per-tenant operation —
// guest accesses, operation counting, lifecycle, telemetry — goes through
// its *Tenant handle, found by ID (Host.Tenant) or in configuration order
// (Host.Tenants). The handle also owns the tenant's epoch-window state, so
// the Host itself holds no per-tenant slices.

// MarketPolicy re-exports the memory-marketplace knobs (default floor and
// ceiling, slab size, leases per epoch, bid-ask hysteresis).
type MarketPolicy = market.Config

// MarketCounters are the marketplace's cumulative counters (epochs, leases,
// claw-backs, SLO violations).
type MarketCounters = market.Stats

// MarketLease is one live grant on the marketplace's lease book.
type MarketLease = market.Lease

// TenantPolicy is one tenant's resource contract with the host.
type TenantPolicy struct {
	// FloorPages is the share the planner may never shrink this tenant
	// below; 0 uses the planner's default floor.
	FloorPages int
	// CeilPages caps this tenant's share; 0 means no per-tenant ceiling.
	CeilPages int
	// SLO is the tenant's p99 fault-latency target in virtual time; 0 means
	// no SLO. Enforcement needs epoch windows (a Market, an Arbiter, or
	// HostConfig.EpochOps): each window's p99 is computed from the tenant's
	// merged per-worker FAULT histograms and compared against this target.
	// Under the market planner, a violating tenant stops supplying pages,
	// bids with priority, and has every lease it donated clawed back.
	SLO time.Duration
}

// TenantSpec declares one tenant at host construction.
type TenantSpec struct {
	// ID names the tenant; must be unique and non-empty. IDs are the
	// planner's sort and tie-break key, so they are part of the
	// deterministic contract: same IDs, same curves, same plans.
	ID string
	// VM configures the tenant's machine. The host overrides LocalMemory (equal split of the budget), SharedStore,
	// Registry, HypervisorID, and — unless set — Hotset and Seed. A tenant
	// with an SLO and no Tracer gets a histogram-only tracer attached
	// automatically (pure observation; simulated results are unchanged).
	VM MachineConfig
	// Policy is the tenant's resource contract.
	Policy TenantPolicy
}

// Tenant is the runtime handle for one named tenant: the surface for guest
// operations, lifecycle, and telemetry, and the owner of the tenant's
// epoch-window bookkeeping.
type Tenant struct {
	host    *Host
	id      string
	machine *Machine
	policy  TenantPolicy

	// active marks a tenant participating in epoch windows. An inactive
	// tenant (a VM that has died, or one not yet booted in an open-loop
	// scenario) issues no guest operations, so waiting for it to cross the
	// window boundary would stall every other tenant's planner epoch
	// forever. Instead the barrier skips inactive tenants and captures
	// their snapshots lazily at window close: an inactive tenant's hotset
	// counters and FAULT histogram are frozen (no ops mutate them), so the
	// lazy capture is a pure function of its own operation history and the
	// interleaving-invariance argument in Host.noteOp still holds.
	active bool

	// opCount counts guest operations inside the current window. crossed
	// is set when the tenant crosses the window boundary, and captured /
	// capturedHist then hold its cumulative hotset snapshot and merged
	// FAULT histogram taken at that crossing (capture-on-cross: they depend
	// only on the tenant's own operation sequence, never on how the driver
	// interleaved the tenants, so planner inputs — and therefore decisions
	// — are interleaving-invariant).
	opCount      int
	crossed      bool
	captured     HotsetCounters
	capturedHist stats.Histogram
	// windowBase / windowBaseHist are the snapshots at the previous epoch
	// boundary; window curves and window histograms are cumulative
	// differences against them.
	windowBase     HotsetCounters
	windowBaseHist stats.Histogram
	// granted / lastWindowHits feed the realized-savings feedback: a tenant
	// granted pages last epoch should show fewer ghost hits this window.
	granted        bool
	lastWindowHits uint64

	// slo is the tenant's SLO accounting, updated as each window closes.
	slo SLOStatus
}

// ID returns the tenant's stable identifier.
func (t *Tenant) ID() string { return t.id }

// Policy returns the tenant's resource contract.
func (t *Tenant) Policy() TenantPolicy { return t.policy }

// Machine exposes the tenant's machine for direct drive (allocation, probes,
// teardown). Operations that should count toward epoch windows must go
// through Touch / NoteOp.
func (t *Tenant) Machine() *Machine { return t.machine }

// Touch performs one guest access and counts it toward the tenant's epoch
// window.
func (t *Tenant) Touch(addr uint64, write bool) ([]byte, error) {
	data, err := t.machine.Touch(addr, write)
	if err != nil {
		return data, err
	}
	return data, t.host.noteOp(t)
}

// NoteOp counts one guest operation (use after driving the Machine
// directly); the host plans an epoch once every tenant has crossed the
// window boundary.
func (t *Tenant) NoteOp() error { return t.host.noteOp(t) }

// Stats snapshots the tenant's machine telemetry.
func (t *Tenant) Stats() Stats { return t.machine.Stats() }

// SetActive marks the tenant as participating in (true) or excluded from
// (false) the host's epoch-window barrier — the lifecycle hook open-loop
// scenarios use for VMs that boot late or die mid-run. An inactive tenant
// keeps its machine, its share, and its cumulative telemetry; it simply
// stops gating other tenants' planner epochs, and the planner sees its
// frozen window (zero new activity) until it is reactivated. Deactivating
// a tenant that already crossed the current window boundary keeps the
// snapshot it captured at the crossing.
func (t *Tenant) SetActive(active bool) { t.active = active }

// Active reports whether the tenant currently participates in epoch windows.
func (t *Tenant) Active() bool { return t.active }

// capture snapshots the tenant's cumulative hotset counters and FAULT
// histogram as its window-boundary state.
func (t *Tenant) capture() {
	t.captured = t.machine.monitor.HotsetSnapshot()
	t.capturedHist = t.machine.monitor.Tracer().PhaseHistogram(trace.EvFault)
	t.crossed = true
}

// SLOStatus is one tenant's cumulative SLO accounting.
type SLOStatus struct {
	// Target echoes the tenant's p99 target (0 = no SLO).
	Target time.Duration
	// Windows counts evaluated epoch windows; Violations the windows whose
	// p99 exceeded the target.
	Windows    uint64
	Violations uint64
	// LastP99 / LastFaults describe the most recently closed window.
	LastP99    time.Duration
	LastFaults uint64
}

// TenantStats is one tenant's row in HostStats.
type TenantStats struct {
	ID     string
	Policy TenantPolicy
	// Active reports lifecycle state: false for a tenant that has died (or
	// not yet booted) and no longer gates epoch windows.
	Active     bool
	SharePages int
	WSSPages   int
	SLO        SLOStatus
}
