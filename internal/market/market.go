// Package market is the Memtrade-style producer/consumer memory marketplace
// that replaces the single greedy reallocator for multi-tenant hosts
// (Maruf et al., "Memtrade"; Maruf & Chowdhury disaggregation survey). Each
// epoch, tenants whose ghost-LRU miss-ratio curve prices extra DRAM above
// zero *bid* for slabs; tenants whose curve says a slab costs them little
// *ask* to supply one. A trade clears when the bid/ask spread covers the
// hysteresis, and every cleared trade is recorded as a Lease — donor, taker,
// pages, grant epoch — so the transfer stays attributable and reversible.
//
// SLOs make the market safe where the greedy arbiter is not: a tenant with a
// p99 fault-latency target (TenantPolicy.SLO at the host layer) is compared
// against the window p99 observed from its merged per-worker trace
// histograms. A violating tenant is (a) excluded from the supply side, (b)
// given bidding priority, and (c) made whole — every lease it *donated* is
// clawed back next epoch, pages flowing from the lease holder back to the
// donor. This is Memtrade's harvester-protection loop: harvested memory is
// only ever a loan, and the loan is recalled the moment the harvester's own
// tail latency shows it was over-harvested.
//
// Like the arbiter, Plan is a deterministic pure function of the view set
// plus the market's own lease book — no clocks, no randomness, iteration in
// ID order throughout — so market plans inherit the worker-count and
// interleaving invariance the oracles prove for the inputs (the shardtest
// MarketPlanDigest asserts exactly this).
package market

import (
	"fmt"
	"hash/fnv"
	"sort"

	"fluidmem/internal/arbiter"
)

// Config parametrises the marketplace.
type Config struct {
	// FloorPages is the default minimum share for tenants whose view carries
	// no per-tenant floor. Must be >= 1.
	FloorPages int
	// CeilPages is the default share ceiling for tenants whose view carries
	// no per-tenant ceiling; 0 means no ceiling.
	CeilPages int
	// Step is the slab size in pages per cleared trade (and per claw-back
	// transfer). Must be >= 1.
	Step int
	// MaxLeases bounds the trades cleared per epoch (0 = one). Claw-backs
	// are NOT capped: recalling a violating tenant's loans is an SLO action,
	// not a trade.
	MaxLeases int
	// Hysteresis is the minimum bid-ask spread (ghost hits over the window)
	// before a trade clears for a non-violating bidder. Bidders in SLO
	// violation clear on any positive spread — the market leans toward the
	// tenant that is provably hurting.
	Hysteresis uint64
}

// DefaultConfig mirrors arbiter.DefaultPolicy's shape for a host with
// totalPages split across vms tenants, with a lease cap matching the
// arbiter's move cap so the two planners are comparable per epoch.
func DefaultConfig(totalPages, vms int) Config {
	p := arbiter.DefaultPolicy(totalPages, vms)
	return Config{
		FloorPages: p.FloorPages,
		Step:       p.Step,
		MaxLeases:  p.MaxMoves,
		Hysteresis: p.Hysteresis,
	}
}

// Validate rejects unusable configs loudly.
func (c Config) Validate() error {
	if c.FloorPages < 1 {
		return fmt.Errorf("market: floor %d < 1 page", c.FloorPages)
	}
	if c.Step < 1 {
		return fmt.Errorf("market: step %d < 1 page", c.Step)
	}
	if c.CeilPages != 0 && c.CeilPages < c.FloorPages {
		return fmt.Errorf("market: ceiling %d below floor %d", c.CeilPages, c.FloorPages)
	}
	return nil
}

// Lease is one live grant: Pages currently on loan from From to To. Grants
// cleared in the same epoch between the same pair aggregate into one lease.
type Lease struct {
	ID       uint64 // allocation order; stable sort key for determinism
	From, To string
	Pages    int
	// Epoch is the market epoch (1-based Plan count) the lease was granted
	// in; Price the bid-ask spread it cleared at.
	Epoch uint64
	Price uint64
}

// Stats accumulates market activity across epochs for the host's Stats
// surface and the bench reports.
type Stats struct {
	// Epochs counts Plan invocations. SLOEnforcedEpochs counts epochs in
	// which at least one view carried an SLO target — the quantity bench-json
	// refuses to commit at zero (a market run that never evaluated an SLO is
	// a silent no-op, not a baseline).
	Epochs            uint64
	SLOEnforcedEpochs uint64
	// SLOViolations counts tenant-epochs observed above target.
	SLOViolations uint64
	// Leases / LeasedPages count cleared trades and their page flow;
	// Clawbacks / ClawedPages the recall transfers reversing them.
	Leases      uint64
	LeasedPages uint64
	Clawbacks   uint64
	ClawedPages uint64
	// PredictedSavings sums the bid-ask spread of every cleared trade.
	PredictedSavings uint64
}

// Market is a stateful arbiter.Planner: the lease book survives across
// epochs so claw-back can reverse past grants. Not safe for concurrent use,
// matching the single-threaded control plane.
type Market struct {
	cfg    Config
	leases []Lease // always sorted by ID
	nextID uint64
	stats  Stats
}

// New returns a market with an empty lease book.
func New(cfg Config) (*Market, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Market{cfg: cfg}, nil
}

// Stats returns the running totals.
func (m *Market) Stats() Stats { return m.stats }

// Leases returns a copy of the live lease book in ID order.
func (m *Market) Leases() []Lease {
	return append([]Lease(nil), m.leases...)
}

// floorFor / ceilFor resolve the per-tenant bound, falling back to the
// config default.
func (m *Market) floorFor(v arbiter.VMView) int {
	if v.FloorPages > 0 {
		return v.FloorPages
	}
	return m.cfg.FloorPages
}

func (m *Market) ceilFor(v arbiter.VMView) int {
	if v.CeilPages > 0 {
		return v.CeilPages
	}
	return m.cfg.CeilPages
}

// violating reports whether the view's window p99 exceeds its SLO target.
func violating(v arbiter.VMView) bool {
	return v.SLOTarget > 0 && v.WindowP99 > v.SLOTarget
}

// Plan implements arbiter.Planner: one epoch's market clearing. Views are
// canonicalised by ID, every pass iterates in deterministic order, and the
// total share is conserved exactly — each grant and each claw-back moves
// pages between exactly two tenants.
func (m *Market) Plan(views []arbiter.VMView) (arbiter.Plan, error) {
	if err := m.cfg.Validate(); err != nil {
		return arbiter.Plan{}, err
	}
	vs := append([]arbiter.VMView(nil), views...)
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	shares := make(map[string]int, len(vs))
	byID := make(map[string]arbiter.VMView, len(vs))
	for _, v := range vs {
		if _, dup := shares[v.ID]; dup {
			return arbiter.Plan{}, fmt.Errorf("market: duplicate tenant ID %q", v.ID)
		}
		if v.SharePages < 1 {
			return arbiter.Plan{}, fmt.Errorf("market: tenant %q share %d < 1", v.ID, v.SharePages)
		}
		shares[v.ID] = v.SharePages
		byID[v.ID] = v
	}
	m.stats.Epochs++
	plan := arbiter.Plan{Shares: shares}

	bad := map[string]bool{}
	enforced := false
	for _, v := range vs {
		if v.SLOTarget > 0 {
			enforced = true
		}
		if violating(v) {
			bad[v.ID] = true
			m.stats.SLOViolations++
		}
	}
	if enforced {
		m.stats.SLOEnforcedEpochs++
	}

	// Claw-back pass: every lease whose DONOR is violating is recalled —
	// pages flow from the lease holder back to the donor, bounded only by
	// the holder's floor (a partial recall shrinks the lease and leaves the
	// remainder on the book). Leases whose endpoints left the view set are
	// dropped: the departed tenant's pages were already redistributed by the
	// host, so there is nothing left to recall.
	kept := m.leases[:0]
	for _, l := range m.leases {
		if _, okF := shares[l.From]; !okF {
			continue
		}
		if _, okT := shares[l.To]; !okT {
			continue
		}
		if !bad[l.From] {
			kept = append(kept, l)
			continue
		}
		back := l.Pages
		if room := shares[l.To] - m.floorFor(byID[l.To]); back > room {
			back = room
		}
		if back <= 0 {
			kept = append(kept, l)
			continue
		}
		shares[l.To] -= back
		shares[l.From] += back
		plan.Moves = append(plan.Moves, arbiter.Move{From: l.To, To: l.From, Pages: back})
		m.stats.Clawbacks++
		m.stats.ClawedPages += uint64(back)
		if l.Pages > back {
			l.Pages -= back
			kept = append(kept, l)
		}
	}
	m.leases = kept

	if len(vs) >= 2 {
		m.trade(vs, shares, bad, &plan)
	}
	return plan, nil
}

// trade runs the bid/ask clearing loop, mutating shares and appending moves
// and leases.
func (m *Market) trade(vs []arbiter.VMView, shares map[string]int, bad map[string]bool, plan *arbiter.Plan) {
	// Leases granted this epoch, keyed donor\x00taker, for aggregation
	// (indices into m.leases — appends may reallocate the backing array).
	granted := map[string]int{}
	maxLeases := m.cfg.MaxLeases
	if maxLeases < 1 {
		maxLeases = 1
	}
	for n := 0; n < maxLeases; n++ {
		// Re-price every tenant at its CURRENT tentative share each round,
		// exactly like the greedy arbiter: a bidder already granted slabs
		// this epoch prices its next slab at the deeper curve offset.
		taker, donor := -1, -1
		var bid, ask uint64
		for i, v := range vs {
			extra := shares[v.ID] - v.SharePages
			if extra < 0 {
				extra = 0
			}
			b := arbiter.SlabRate(v.Curve, extra, m.cfg.Step)
			ceil := m.ceilFor(v)
			canBid := b > 0 && (ceil == 0 || shares[v.ID]+m.cfg.Step <= ceil)
			// Violating tenants never supply — harvesting from a tenant
			// already missing its tail target is exactly the failure mode
			// the SLO exists to prevent.
			canAsk := !bad[v.ID] && shares[v.ID]-m.cfg.Step >= m.floorFor(v)
			a := arbiter.SlabRate(v.Curve, 0, m.cfg.Step)
			// Bidders rank: violating first, then highest bid, ties to the
			// lowest ID (strict > over the ID-sorted slice).
			if canBid && (taker == -1 ||
				(bad[v.ID] && !bad[vs[taker].ID]) ||
				(bad[v.ID] == bad[vs[taker].ID] && b > bid)) {
				taker, bid = i, b
			}
			if canAsk && (donor == -1 || a < ask) {
				donor, ask = i, a
			}
		}
		if taker == -1 || donor == -1 || taker == donor {
			break
		}
		if bid <= ask {
			break
		}
		spread := bid - ask
		if !bad[vs[taker].ID] && spread < m.cfg.Hysteresis {
			break
		}
		from, to := vs[donor].ID, vs[taker].ID
		shares[to] += m.cfg.Step
		shares[from] -= m.cfg.Step
		plan.Moves = append(plan.Moves, arbiter.Move{
			From: from, To: to, Pages: m.cfg.Step, PredictedSavings: spread,
		})
		m.stats.LeasedPages += uint64(m.cfg.Step)
		m.stats.PredictedSavings += spread
		key := from + "\x00" + to
		if i, ok := granted[key]; ok {
			m.leases[i].Pages += m.cfg.Step
			continue
		}
		m.nextID++
		m.stats.Leases++
		m.leases = append(m.leases, Lease{
			ID: m.nextID, From: from, To: to,
			Pages: m.cfg.Step, Epoch: m.stats.Epochs, Price: spread,
		})
		granted[key] = len(m.leases) - 1
	}
}

// Digest folds the live lease book and cumulative counters into one FNV-1a
// hash — the quantity the shardtest oracle asserts identical across worker
// counts and interleavings.
func (m *Market) Digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(x uint64) {
		for b := 0; b < 8; b++ {
			buf[b] = byte(x >> (8 * b))
		}
		h.Write(buf[:])
	}
	for _, l := range m.leases {
		w64(l.ID)
		h.Write([]byte(l.From))
		h.Write([]byte{0})
		h.Write([]byte(l.To))
		h.Write([]byte{0})
		w64(uint64(l.Pages))
		w64(l.Epoch)
		w64(l.Price)
	}
	s := m.stats
	for _, x := range []uint64{s.Epochs, s.SLOEnforcedEpochs, s.SLOViolations,
		s.Leases, s.LeasedPages, s.Clawbacks, s.ClawedPages, s.PredictedSavings} {
		w64(x)
	}
	return h.Sum64()
}
