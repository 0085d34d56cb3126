package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"fluidmem"
	"fluidmem/internal/kvstore/cluster"
)

// batchOps is the number of consecutive guest operations one batch-wall
// sample covers.
const batchOps = 1024

// counts are the system's own counters that the per-layer report reads,
// taken from the stats surfaces at the start and end of the measured phase.
type counts struct {
	faults, remoteReads, steals, evictions, firstTouch uint64
	wbFlushes, wbPages, coalesced                      uint64
	retries, failovers                                 uint64
	staleRejects, rereplicated                         uint64
	epochs, leases, clawbacks, sloViolations           uint64
}

func (c counts) minus(b counts) counts {
	return counts{
		c.faults - b.faults, c.remoteReads - b.remoteReads, c.steals - b.steals,
		c.evictions - b.evictions, c.firstTouch - b.firstTouch,
		c.wbFlushes - b.wbFlushes, c.wbPages - b.wbPages, c.coalesced - b.coalesced,
		c.retries - b.retries, c.failovers - b.failovers,
		c.staleRejects - b.staleRejects, c.rereplicated - b.rereplicated,
		c.epochs - b.epochs, c.leases - b.leases, c.clawbacks - b.clawbacks, c.sloViolations - b.sloViolations,
	}
}

// addMachine folds one machine's counters in.
func (c *counts) addMachine(st fluidmem.Stats) {
	c.faults += st.Monitor.Faults
	c.remoteReads += st.Monitor.RemoteReads
	c.steals += st.Monitor.Steals
	c.evictions += st.Monitor.Evictions
	c.firstTouch += st.Monitor.FirstTouch
	c.wbFlushes += st.Writeback.Flushes
	c.wbPages += st.Writeback.FlushedPages
	c.coalesced += st.Writeback.Coalesced
	if st.Resilience != nil {
		c.retries += st.Resilience.Retries
		c.failovers += st.Resilience.Failovers
	}
}

func (c *counts) addPool(pc cluster.Counters) {
	c.staleRejects += pc.StaleRejects
	c.rereplicated += pc.Rereplicated
}

// trial is one repetition of a workload: a timed set-up, then a measured
// phase of a fixed, seed-determined sequence of guest operations.
type trial struct {
	// setup and cpu are process CPU time (see cpuNow); wall is the
	// measured phase's wall time, which the per-layer shares divide by.
	setup  time.Duration
	cpu    time.Duration
	wall   time.Duration
	rssMiB float64 // peak resident set while the trial ran

	ops        int
	failed     int // errors returned to the guest plus reads the flat model refutes
	mismatches int
	// lat is each operation's latency in virtual time; batches the process
	// CPU time of each run of batchOps operations.
	lat     []time.Duration
	batches []time.Duration

	before, after counts
	// Go runtime deltas over the measured phase.
	mallocs, allocBytes uint64
	gcs                 uint32

	// digest covers lat, the failure counts and the final counters.
	digest uint64

	sp        *spans
	spBase    spans // span aggregates at the start of the measured phase
	problems  []string
	batchCPU  time.Duration
	cpuStart  time.Duration
	start     time.Time
	memBefore runtime.MemStats
}

func newTrial(sp *spans, expectOps int) *trial {
	return &trial{
		sp:      sp,
		lat:     make([]time.Duration, 0, expectOps),
		batches: make([]time.Duration, 0, expectOps/batchOps+1),
	}
}

// begin ends set-up and starts the measured phase. Set-up garbage is
// collected first so it is not charged to the measured phase.
func (t *trial) begin(setupStart time.Duration, before counts) {
	t.setup = cpuNow() - setupStart
	t.before = before
	if t.sp != nil {
		t.spBase = *t.sp
		t.spBase.epochNs = nil
	}
	runtime.GC()
	runtime.ReadMemStats(&t.memBefore)
	t.start = time.Now()
	t.cpuStart = cpuNow()
	t.batchCPU = t.cpuStart
}

// done records one guest operation.
func (t *trial) done(lat time.Duration, err error, mismatch bool) {
	t.lat = append(t.lat, lat)
	t.ops++
	if mismatch {
		t.mismatches++
	}
	if err != nil || mismatch {
		t.failed++
	}
	if t.ops%batchOps == 0 {
		now := cpuNow()
		t.batches = append(t.batches, now-t.batchCPU)
		t.batchCPU = now
	}
}

// end closes the measured phase and computes the model digest over the
// virtual per-op latencies and the given final counters.
func (t *trial) end(after counts, model ...any) {
	t.cpu = cpuNow() - t.cpuStart
	t.wall = time.Since(t.start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.mallocs = m.Mallocs - t.memBefore.Mallocs
	t.allocBytes = m.TotalAlloc - t.memBefore.TotalAlloc
	t.gcs = m.NumGC - t.memBefore.NumGC
	t.after = after

	h := fnv.New64a()
	var b [8]byte
	for _, d := range t.lat {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	fmt.Fprintf(h, "failed=%d mismatches=%d", t.failed, t.mismatches)
	for _, v := range model {
		fmt.Fprintf(h, "|%+v", v)
	}
	t.digest = h.Sum64()
}

// machineModel lists a machine's counters for the digest, dereferenced so
// the digest sees values, never addresses.
func machineModel(st fluidmem.Stats) []any {
	out := []any{st.Now, st.ResidentPages, st.FootprintLimit, *st.Monitor, *st.Writeback, *st.Store}
	if st.Resilience != nil {
		out = append(out, *st.Resilience)
	}
	return out
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuClock reads the process CPU clock: host time spent running the
// simulator and its garbage collector. Unlike wall time it leaves out time
// the hypervisor gives the vCPU to other guests, which on shared hosts comes
// in bursts of milliseconds and would otherwise swamp the batch tail.
func cpuClock() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// cpuNow is cpuClock for the measuring loops; run checks the clock works
// before any trial starts.
func cpuNow() time.Duration {
	d, _ := cpuClock()
	return d
}
