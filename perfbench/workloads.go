package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"fluidmem"
	"fluidmem/internal/clock"
	"fluidmem/internal/core"
	"fluidmem/internal/core/resilience"
	"fluidmem/internal/kvstore"
	"fluidmem/internal/kvstore/cluster"
	"fluidmem/internal/kvstore/dram"
	"fluidmem/internal/kvstore/ramcloud"
	"fluidmem/internal/loadgen"
	"fluidmem/internal/workload/ycsb"
)

// workload is one set of inputs the benchmark runs. A run repeats trials of
// it; every trial with the same seed performs the same guest operations.
type workload struct {
	name string
	why  string
	run  func(seed uint64, sp *spans) (*trial, error)
}

var workloads = []workload{
	{
		name: "pmbench-ramcloud",
		why:  "closed loop, 1 client, RAMCloud, working set 4x local at 50% writes: ~75% of ops fault, so core, uffd, write list, store reads and latency sampling do the work",
		run: func(seed uint64, sp *spans) (*trial, error) {
			return closedLoop{writeFrac: 0.5, store: newRAMCloud}.run(seed, sp)
		},
	},
	{
		name: "openloop-diurnal-market",
		why:  "open loop over the diurnal scenario's 3 tenants at scale 1 on a DRAM host with the market: mostly resident hits, so arrivals, epochs, hotset and market dominate",
		run:  runOpenLoop,
	},
	{
		name: "pool-writeheavy-churn",
		why:  "closed loop, 1 client, 4-node R=2 cluster pool, 4x local at 90% writes with a crash/recover/add cycle: replicated MultiPut, membership and retries do the work",
		run: func(seed uint64, sp *spans) (*trial, error) {
			return closedLoop{writeFrac: 0.9, store: newPool, churnEvery: 1 << 16}.run(seed, sp)
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mix is a SplitMix64 finalizer: the benchmark derives every input (values
// written, per-component seeds) from the run seed through it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// wordsPerPage is the number of 8-byte guest words in a page.
const wordsPerPage = fluidmem.PageSize / 8

// Closed-loop sizing: the paper's pmbench recipe (§VI-B) with the working
// set at 4x the local LRU budget, scaled down so a trial takes seconds.
const (
	closedLocalPages = 256
	closedWSSPages   = 4 * closedLocalPages
	closedOps        = 1 << 20
)

// closedLoop is one client issuing uniform random 8-byte Read64/Write64 over
// a working set after a warm fill, each op waiting for the previous one.
type closedLoop struct {
	writeFrac float64
	store     func(seed uint64) (kvstore.Store, *cluster.Pool, *core.Config, error)
	// churnEvery > 0 crashes the lowest-slot store node at the start of
	// every churnEvery ops, recovers a third of the way in and adds a node
	// two thirds of the way in.
	churnEvery int
}

func newRAMCloud(seed uint64) (kvstore.Store, *cluster.Pool, *core.Config, error) {
	return ramcloud.New(ramcloud.DefaultParams(), mix(seed+102)), nil, nil, nil
}

// newPool builds the 4-node R=2 cluster pool. The monitor runs the default
// resilience policy, as fluidmemd -backend cluster does: the pool surfaces
// ErrStaleEpoch after each membership change for that layer to retry.
func newPool(seed uint64) (kvstore.Store, *cluster.Pool, *core.Config, error) {
	pool, err := cluster.New(cluster.Config{Nodes: 4, Replicas: 2, Seed: mix(seed + 104)})
	if err != nil {
		return nil, nil, nil, err
	}
	mcfg := core.DefaultConfig(nil, closedLocalPages)
	policy := resilience.DefaultPolicy()
	mcfg.Resilience = &policy
	return pool, pool, &mcfg, nil
}

func (c closedLoop) run(seed uint64, sp *spans) (*trial, error) {
	t := newTrial(sp, closedOps)
	model := make([]uint64, closedWSSPages*wordsPerPage)

	setupStart := cpuNow()
	raw, pool, mcfg, err := c.store(seed)
	if err != nil {
		return nil, err
	}
	store := raw
	if sp != nil {
		store = &timedStore{inner: raw, sp: sp}
	}
	m, err := fluidmem.NewMachine(fluidmem.MachineConfig{
		LocalMemory: closedLocalPages * fluidmem.PageSize,
		GuestMemory: 2 * closedWSSPages * fluidmem.PageSize,
		SharedStore: store,
		Monitor:     mcfg,
		Seed:        mix(seed),
	})
	if err != nil {
		return nil, err
	}
	seg, err := m.Alloc("wss", closedWSSPages*fluidmem.PageSize)
	if err != nil {
		return nil, err
	}
	for p := 0; p < closedWSSPages; p++ {
		v := mix(seed^uint64(p)) | 1
		if err := m.Write64(seg.Addr(uint64(p)*fluidmem.PageSize), v); err != nil {
			return nil, fmt.Errorf("warm fill: %w", err)
		}
		model[p*wordsPerPage] = v
	}
	snap := func() counts {
		var c counts
		c.addMachine(m.Stats())
		if pool != nil {
			c.addPool(pool.ClusterStats())
		}
		return c
	}
	t.begin(setupStart, snap())

	rng := clock.NewRand(mix(seed + 1))
	for i := 0; i < closedOps; i++ {
		if c.churnEvery > 0 {
			if err := churn(pool, m.Now(), i%c.churnEvery, c.churnEvery, sp); err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
		}
		w := rng.Intn(len(model))
		addr := seg.Addr(uint64(w) * 8)
		write := rng.Float64() < c.writeFrac
		v0 := m.Now()
		var t0 time.Time
		var store0 uint64
		if sp != nil {
			t0, store0 = sp.opStart()
		}
		var opErr error
		mismatch := false
		if write {
			v := mix(seed^uint64(i)<<20) | 1
			if opErr = m.Write64(addr, v); opErr == nil {
				model[w] = v
			}
		} else {
			var got uint64
			got, opErr = m.Read64(addr)
			mismatch = opErr == nil && got != model[w]
		}
		if sp != nil {
			sp.opEnd(t0, store0, false)
		}
		t.done(m.Now()-v0, opErr, mismatch)
	}
	st := m.Stats()
	digest := machineModel(st)
	if pool != nil {
		digest = append(digest, pool.ClusterStats())
	}
	t.end(snap(), digest...)
	if sp != nil {
		t.problems = sp.reconcile(*st.Store)
	}
	return t, nil
}

// churn runs the pool's membership cycle at fixed points of each period.
// The calls are the control plane's, outside any guest op; their wall time
// is a membership span.
func churn(pool *cluster.Pool, now time.Duration, at, period int, sp *spans) error {
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	var err error
	switch at {
	case 0:
		err = pool.Crash(now, pool.NodeNames()[0])
	case period / 3:
		_, _, err = pool.Recover(now)
	case 2 * period / 3:
		_, _, err = pool.AddNode(now)
	default:
		return nil
	}
	if sp != nil {
		sp.member.add(time.Since(t0), 1)
	}
	if err != nil {
		return fmt.Errorf("membership: %w", err)
	}
	return nil
}

// openHorizon is the open loop's virtual-time horizon. At scale 1 the
// diurnal scenario offers ~70k ops/s, so a trial serves ~1M operations, and
// its sojourn distribution is steady: scale 1 sits below the market's knee.
const openHorizon = 15 * time.Second

// openTenant is one tenant's arrival stream and key stream.
type openTenant struct {
	t     *fluidmem.Tenant
	m     *fluidmem.Machine
	base  uint64
	spec  loadgen.KeySpec
	arr   *loadgen.Arrivals
	rng   *clock.Rand
	zipf  *ycsb.Zipfian
	next  time.Duration
	live  bool
	model []uint64
	// ops counts this tenant's operations in the current epoch window.
	ops int
}

// pull draws the tenant's next arrival, inside a loadgen span when traced.
func (o *openTenant) pull(sp *spans) {
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	o.next, o.live = o.arr.Next()
	if sp != nil {
		sp.next.add(time.Since(t0), 1)
	}
}

// runOpenLoop drives loadgen's diurnal scenario open-loop in virtual time:
// every tenant's arrivals are fixed by the seed, each tenant's machine
// serves them in order, and an op's latency is its sojourn from arrival to
// completion. The host starts cold: its caches fill during the first
// arrivals, a few hundred of a trial's million operations.
func runOpenLoop(seed uint64, sp *spans) (*trial, error) {
	scen, err := loadgen.NamedScenario("diurnal")
	if err != nil {
		return nil, err
	}
	t := newTrial(sp, int(openHorizon/time.Second)*80_000) // ~70k ops/s offered

	setupStart := cpuNow()
	var store kvstore.Store = dram.New(dram.DefaultParams(), mix(seed+101))
	if sp != nil {
		store = &timedStore{inner: store, sp: sp}
	}
	specs := make([]fluidmem.TenantSpec, len(scen.Tenants))
	for i, ts := range scen.Tenants {
		if ts.Boot != 0 || ts.Death != 0 || ts.Keys.Dist == loadgen.Sequential || ts.Keys.ScanFrac != 0 || ts.Keys.Theta != 0 {
			return nil, fmt.Errorf("tenant %s: lifecycle events, scans and custom skew are not modelled by this workload", ts.ID)
		}
		specs[i] = fluidmem.TenantSpec{
			ID:     ts.ID,
			VM:     fluidmem.MachineConfig{Backend: fluidmem.BackendDRAM, GuestMemory: 16 << 20, SharedStore: store},
			Policy: fluidmem.TenantPolicy{SLO: ts.Keys.SLO},
		}
	}
	h, err := fluidmem.NewHost(fluidmem.HostConfig{
		Tenants:         specs,
		TotalLocalPages: scen.TotalLocalPages,
		Market:          &fluidmem.MarketConfig{EpochOps: scen.EpochOps},
		Seed:            mix(seed),
	})
	if err != nil {
		return nil, err
	}
	tenants := make([]*openTenant, len(scen.Tenants))
	for i, ts := range scen.Tenants {
		tn := h.Tenants()[i]
		seg, err := tn.Machine().Alloc("openloop", uint64(ts.Keys.SpanPages)*fluidmem.PageSize)
		if err != nil {
			return nil, err
		}
		o := &openTenant{
			t:    tn,
			m:    tn.Machine(),
			base: seg.Addr(0),
			spec: ts.Keys,
			arr: loadgen.NewArrivals(loadgen.ArrivalConfig{
				Process: ts.Process,
				Curve:   ts.Curve,
				Seed:    mix(seed + uint64(2*i+2)),
			}, 0, openHorizon),
			rng:   clock.NewRand(mix(seed + uint64(2*i+1))),
			model: make([]uint64, ts.Keys.SpanPages*wordsPerPage),
		}
		if ts.Keys.Dist == loadgen.Zipfian {
			if o.zipf, err = ycsb.NewZipfian(ts.Keys.SpanPages, 0.99, mix(seed+uint64(2*i+1))^0x5ca1ab1e); err != nil {
				return nil, err
			}
		}
		tenants[i] = o
	}
	snap := func() counts {
		var c counts
		hs := h.Stats()
		for _, st := range hs.VMs {
			c.addMachine(st)
		}
		c.epochs = hs.Market.Epochs
		c.leases = hs.Market.Leases
		c.clawbacks = hs.Market.Clawbacks
		c.sloViolations = hs.Market.SLOViolations
		return c
	}
	t.begin(setupStart, snap())

	for _, o := range tenants {
		o.pull(sp)
	}
	for {
		// Serve the earliest pending arrival; ties go to the tenant listed
		// first.
		var o *openTenant
		for _, c := range tenants {
			if c.live && (o == nil || c.next < o.next) {
				o = c
			}
		}
		if o == nil {
			break
		}
		at := o.next
		if idle := at - o.m.Now(); idle > 0 {
			o.m.AdvanceCPU(idle)
		}
		page, word, write := o.draw()
		addr := o.base + uint64(page)*fluidmem.PageSize + uint64(word)*8
		w := page*wordsPerPage + word
		// The op that brings the last tenant to EpochOps closes the host's
		// epoch window and runs the planner inside its Touch.
		o.ops++
		epoch := true
		for _, c := range tenants {
			epoch = epoch && c.ops >= scen.EpochOps
		}
		var t0 time.Time
		var store0 uint64
		if sp != nil {
			t0, store0 = sp.opStart()
		}
		data, opErr := o.t.Touch(addr, write)
		mismatch := false
		if opErr == nil {
			off := addr % fluidmem.PageSize
			if write {
				v := mix(seed^uint64(t.ops)<<20) | 1
				binary.LittleEndian.PutUint64(data[off:], v)
				o.model[w] = v
			} else {
				mismatch = binary.LittleEndian.Uint64(data[off:]) != o.model[w]
			}
		}
		if sp != nil {
			sp.opEnd(t0, store0, epoch)
		}
		if epoch {
			for _, c := range tenants {
				c.ops = 0
			}
		}
		t.done(o.m.Now()-at, opErr, mismatch)
		o.pull(sp)
	}
	hs := h.Stats()
	digest := []any{*hs.Market, hs.Arbiter, hs.Shares}
	for _, st := range hs.VMs {
		digest = append(digest, machineModel(st)...)
	}
	t.end(snap(), digest...)
	if sp != nil {
		// The tenants share one store: any VM's Store stats count it all.
		t.problems = sp.reconcile(*hs.VMs[0].Store)
		if got, want := uint64(len(sp.epochNs)), t.after.epochs-t.before.epochs; got != want {
			t.problems = append(t.problems, fmt.Sprintf("host.epochs: detected %d != market epochs %d", got, want))
		}
		if got, want := sp.next.Calls-t.spBase.next.Calls, uint64(t.ops+len(tenants)); got != want {
			t.problems = append(t.problems, fmt.Sprintf("loadgen.next_calls: %d != ops + tenants %d", got, want))
		}
	}
	return t, nil
}

// draw returns the page, word and write flag of the tenant's next op, from
// the tenant's KeySpec.
func (o *openTenant) draw() (page, word int, write bool) {
	write = o.spec.WriteFrac > 0 && o.rng.Float64() < o.spec.WriteFrac
	if o.zipf != nil {
		page = o.zipf.Next()
	} else {
		page = o.rng.Intn(o.spec.SpanPages)
	}
	return page, o.rng.Intn(wordsPerPage), write
}
