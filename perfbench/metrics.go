package main

// metric names one reported number. Moves records, before any speed work,
// which end-to-end metric a change to this layer should move and on which
// workload; later changes cite these predictions by metric name.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Moves  string
}

// endToEnd is what a user of the simulator sees, reported by an untraced
// run. Host time is CPU time of the benchmark process on the machine
// running it; virtual time is the modelled FluidMem's clock.
var endToEnd = []metric{
	{"sim_ops_per_cpu_s", "ops/s", "higher", "host time: guest operations per second of process CPU time in the measured phase (median over trials)"},
	{"batch_cpu_us_p50", "us", "lower", "host time: process CPU time of one batch of 1024 consecutive guest operations, median (median over trials)"},
	{"batch_cpu_us_p99", "us", "lower", "host time: batch CPU time, 99th percentile (median over trials); catches GC, epoch, membership and flush stalls"},
	{"setup_s", "s", "lower", "host time: process CPU time to build the Machine or Host, allocate segments, warm fill (median over trials)"},
	{"rss_peak_mib", "MiB", "lower", "host memory: peak resident set while one trial runs (median over trials)"},
	{"model_op_us_mean", "us", "lower", "virtual time: per-operation latency (open loop: sojourn), exact mean; deterministic per seed"},
	{"model_op_us_p99", "us", "lower", "virtual time: per-operation latency (open loop: sojourn), exact 99th percentile; deterministic per seed"},
}

// perLayer comes from a traced run: spans the benchmark records around its
// own calls into each layer, counters from the system's stats, and probes
// that time one public function in isolation.
var perLayer = []metric{
	{"fluidmem.op_calls", "count", "higher", "guest operations per trial (root spans); fixed by the workload"},
	{"fluidmem.op_ns_mean", "ns", "lower", "sim_ops_per_cpu_s on all workloads"},
	{"loadgen.next_calls", "count", "lower", "equals ops + one terminating call per tenant; 0 outside openloop-diurnal-market"},
	{"loadgen.next_ns_mean", "ns", "lower", "sim_ops_per_cpu_s on openloop-diurnal-market only; no change elsewhere"},
	{"loadgen.self_share", "frac", "lower", "sim_ops_per_cpu_s on openloop-diurnal-market only; no change elsewhere"},
	{"host.epochs", "count", "lower", "semantic: must not move under a speed-only change; equals HostStats.Market.Epochs"},
	{"host.epoch_ns_p50", "ns", "lower", "batch_cpu_us_p99 on openloop-diurnal-market"},
	{"host.epoch_ns_max", "ns", "lower", "batch_cpu_us_p99 on openloop-diurnal-market"},
	{"host.epoch_share", "frac", "lower", "batch_cpu_us_p99 and sim_ops_per_cpu_s on openloop-diurnal-market"},
	{"market.leases", "count", "higher", "semantic: must not move under a speed-only change"},
	{"market.clawbacks", "count", "lower", "semantic: must not move under a speed-only change"},
	{"market.slo_violations", "count", "lower", "semantic: must not move under a speed-only change"},
	{"core.self_ns_per_op", "ns", "lower", "sim_ops_per_cpu_s and batch_cpu_us_p50 on pmbench-ramcloud and pool-writeheavy-churn"},
	{"core.self_share", "frac", "lower", "sim_ops_per_cpu_s and batch_cpu_us_p50 on pmbench-ramcloud and pool-writeheavy-churn"},
	{"core.faults_per_op", "count/op", "lower", "semantic: monitor faults per guest operation"},
	{"core.remote_reads", "count", "lower", "semantic: faults resolved by a store read"},
	{"core.steals", "count", "higher", "semantic: faults resolved from the pending write list"},
	{"core.evictions", "count", "lower", "semantic: pages pushed out of the LRU"},
	{"core.first_touch", "count", "lower", "semantic: faults resolved with the zero page"},
	{"writeback.flushes", "count", "lower", "sim_ops_per_cpu_s on pool-writeheavy-churn more than on pmbench-ramcloud"},
	{"writeback.pages_per_flush", "pages", "higher", "sim_ops_per_cpu_s on pool-writeheavy-churn more than on pmbench-ramcloud"},
	{"writeback.coalesced", "count", "higher", "sim_ops_per_cpu_s on pool-writeheavy-churn more than on pmbench-ramcloud"},
	{"kvstore.get.calls", "count", "lower", "sim_ops_per_cpu_s on pmbench-ramcloud (read path)"},
	{"kvstore.get.ns_mean", "ns", "lower", "sim_ops_per_cpu_s on pmbench-ramcloud (read path)"},
	{"kvstore.multiget.calls", "count", "lower", "sim_ops_per_cpu_s on pmbench-ramcloud (read path)"},
	{"kvstore.multiget.ns_mean", "ns", "lower", "sim_ops_per_cpu_s on pmbench-ramcloud (read path)"},
	{"kvstore.multiget.keys_per_call", "keys", "higher", "sim_ops_per_cpu_s on pmbench-ramcloud (read path)"},
	{"kvstore.startget.calls", "count", "lower", "sim_ops_per_cpu_s on pmbench-ramcloud (read path)"},
	{"kvstore.startget.ns_mean", "ns", "lower", "sim_ops_per_cpu_s on pmbench-ramcloud (read path)"},
	{"kvstore.put.calls", "count", "lower", "sim_ops_per_cpu_s on pool-writeheavy-churn (write path)"},
	{"kvstore.put.ns_mean", "ns", "lower", "sim_ops_per_cpu_s on pool-writeheavy-churn (write path)"},
	{"kvstore.multiput.calls", "count", "lower", "sim_ops_per_cpu_s on pool-writeheavy-churn (replicated MultiPut)"},
	{"kvstore.multiput.ns_mean", "ns", "lower", "sim_ops_per_cpu_s on pool-writeheavy-churn (replicated MultiPut)"},
	{"kvstore.multiput.pages_per_call", "pages", "higher", "sim_ops_per_cpu_s on pool-writeheavy-churn (replicated MultiPut)"},
	{"kvstore.errors", "count", "lower", "failed_op_frac and batch_cpu_us_p99 on pool-writeheavy-churn"},
	{"kvstore.self_share", "frac", "lower", "sim_ops_per_cpu_s on pmbench-ramcloud and pool-writeheavy-churn; flat on openloop-diurnal-market"},
	{"resilience.retries", "count", "lower", "batch_cpu_us_p99 and failed_op_frac on pool-writeheavy-churn"},
	{"resilience.failovers", "count", "lower", "batch_cpu_us_p99 and failed_op_frac on pool-writeheavy-churn"},
	{"cluster.stale_rejects", "count", "lower", "batch_cpu_us_p99 and failed_op_frac on pool-writeheavy-churn"},
	{"cluster.rereplicated", "count", "lower", "batch_cpu_us_p99 on pool-writeheavy-churn"},
	{"cluster.membership_ns", "ns", "lower", "batch_cpu_us_p99 on pool-writeheavy-churn (mean wall time of one Crash/Recover/AddNode)"},
	{"runtime.allocs_per_op", "allocs/op", "lower", "batch_cpu_us_p99 and rss_peak_mib on all workloads"},
	{"runtime.alloc_bytes_per_op", "B/op", "lower", "batch_cpu_us_p99 and rss_peak_mib on all workloads"},
	{"runtime.gc_cycles", "count", "lower", "batch_cpu_us_p99 and rss_peak_mib on all workloads (per trial)"},
	{"clock.sample_ns", "ns", "lower", "kvstore and core self time: LatencyModel.Sample in isolation"},
	{"uffd.copy_ns", "ns", "lower", "core self time: FD.Copy in isolation"},
	{"uffd.remap_ns", "ns", "lower", "core self time: FD.Remap in isolation"},
	{"hotset.fault_ns", "ns", "lower", "core self time on openloop-diurnal-market: Tracker.Fault on a ghost hit"},
	{"trace.overhead_frac", "frac", "lower", "none: traced over untraced CPU time per op, minus 1"},
}
