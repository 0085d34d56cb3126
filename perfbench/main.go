// Command perfbench is the repository's benchmark: it drives the FluidMem
// simulator through its public API on one named workload, measures the
// simulator's host-time speed and the modelled system's virtual-time
// latency, and checks every read against a flat model of the writes.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload pmbench-ramcloud --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --list
//
// With --trace 0 it reports the end-to-end metrics from untraced trials.
// With --trace 1 it alternates untraced and traced trials and reports the
// per-layer metrics from the traced ones. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// errIncorrect reports a run whose outputs failed a check; the result line
// is still printed, with correct set to false.
var errIncorrect = errors.New("outputs failed a correctness check")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see --list)")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measuring time; whole trials run until it is spent")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	list := fs.Bool("list", false, "print every workload and metric with unit, direction and prediction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printList(out)
		return nil
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (see --list)", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *traced)
	}

	if _, err := cpuClock(); err != nil {
		return err
	}
	fmt.Fprintf(out, "host %s\n", fingerprint())
	fmt.Fprintf(out, "workload %s seed %d seconds %d trace %d\n", w.name, *seed, *seconds, *traced)
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var plain, withSpans []*trial
	var model modelLatency
	for len(plain) == 0 || time.Now().Before(deadline) {
		resetPeakRSS()
		t, err := w.run(*seed, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		t.rssMiB = peakRSSMiB()
		if len(plain) == 0 {
			model = summarize(t.lat)
		}
		// The digest covers each trial's latencies; dropping them keeps one
		// trial's data from inflating the next trial's heap.
		t.lat = nil
		plain = append(plain, t)
		if *traced == 1 {
			resetPeakRSS()
			if t, err = w.run(*seed, &spans{}); err != nil {
				return fmt.Errorf("%s traced: %w", w.name, err)
			}
			t.lat = nil
			withSpans = append(withSpans, t)
		}
	}

	res := result{Correct: true, Metrics: map[string]value{}}
	all := append(append([]*trial(nil), plain...), withSpans...)
	for _, t := range all {
		res.Attempted += t.ops
		res.Failed += t.failed
		if t.mismatches > 0 {
			res.Correct = false
			fmt.Fprintf(out, "check FAILED: %d reads disagree with the flat model\n", t.mismatches)
		}
		for _, p := range t.problems {
			res.Correct = false
			fmt.Fprintf(out, "check FAILED: span/counter reconciliation: %s\n", p)
		}
		if t.digest != all[0].digest {
			res.Correct = false
			fmt.Fprintf(out, "check FAILED: model digest %016x != %016x (repetitions or traced vs untraced differ)\n", t.digest, all[0].digest)
		}
	}
	fmt.Fprintf(out, "trials %d untraced, %d traced; model digest %016x\n", len(plain), len(withSpans), all[0].digest)
	fmt.Fprintf(out, "failed_op_frac %.6g (%d of %d ops)\n", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)

	var table []metric
	var vals map[string]float64
	if *traced == 0 {
		table, vals = endToEnd, endToEndValues(out, plain, model)
	} else {
		probes, err := probeValues()
		if err != nil {
			return err
		}
		table, vals = perLayer, layerValues(plain, withSpans, probes)
	}
	for _, m := range table {
		v := vals[m.Name]
		fmt.Fprintf(out, "metric %-32s %14.6g %-10s %s is better\n", m.Name, v, m.Unit, m.Better)
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// modelLatency summarizes one trial's virtual per-op latencies, exactly.
type modelLatency struct{ meanUS, p99US float64 }

func summarize(lat []time.Duration) modelLatency {
	us := make([]float64, len(lat))
	var sum time.Duration
	for i, d := range lat {
		us[i] = float64(d) / float64(time.Microsecond)
		sum += d
	}
	sort.Float64s(us)
	return modelLatency{
		meanUS: float64(sum) / float64(time.Microsecond) / float64(len(lat)),
		p99US:  percentile(us, 99),
	}
}

// endToEndValues reduces the untraced trials: each host-time figure is the
// median over trials.
func endToEndValues(out io.Writer, trials []*trial, model modelLatency) map[string]float64 {
	var rates, setups, rss, p50s, p99s []float64
	for _, t := range trials {
		rates = append(rates, float64(t.ops)/t.cpu.Seconds())
		setups = append(setups, t.setup.Seconds())
		rss = append(rss, t.rssMiB)
		batches := make([]float64, len(t.batches))
		for i, b := range t.batches {
			batches[i] = float64(b) / float64(time.Microsecond)
		}
		sort.Float64s(batches)
		p50s = append(p50s, percentile(batches, 50))
		p99s = append(p99s, percentile(batches, 99))
		fmt.Fprintf(out, "trial %d: setup %.6f s, %.0f ops/cpu-s (%.0f ops/wall-s), batch p50 %.1f us, p99 %.1f us, peak rss %.1f MiB\n",
			len(rates), t.setup.Seconds(), rates[len(rates)-1], float64(t.ops)/t.wall.Seconds(), p50s[len(p50s)-1], p99s[len(p99s)-1], t.rssMiB)
	}
	n := len(trials[0].batches)
	fmt.Fprintf(out, "batches %d of %d ops per trial (p99 has %d samples beyond it)\n",
		n, batchOps, n-int(math.Ceil(0.99*float64(n))))
	return map[string]float64{
		"sim_ops_per_cpu_s": median(rates),
		"batch_cpu_us_p50":  median(p50s),
		"batch_cpu_us_p99":  median(p99s),
		"setup_s":           median(setups),
		"rss_peak_mib":      median(rss),
		"model_op_us_mean":  model.meanUS,
		"model_op_us_p99":   model.p99US,
	}
}

// layerValues reduces the traced trials' spans and counters. Counters and
// call counts are per trial (every trial performs the same operations);
// times are pooled over all traced trials. Go runtime figures come from the
// untraced trials of the same run, which the span bookkeeping cannot
// disturb.
func layerValues(plain, traced []*trial, probes map[string]float64) map[string]float64 {
	first := traced[0]
	c := first.after.minus(first.before)
	ops := float64(first.ops)

	var wall, opNs, opCalls, coreSelf, nextNs, nextCalls, memberNs, memberCalls, storeNs float64
	var kind [nKinds]callStat
	var epochs []float64
	for _, t := range traced {
		d, b := t.sp, &t.spBase
		wall += float64(t.wall)
		opNs += float64(d.op.Ns - b.op.Ns)
		opCalls += float64(d.op.Calls - b.op.Calls)
		coreSelf += float64(d.coreSelf - b.coreSelf)
		nextNs += float64(d.next.Ns - b.next.Ns)
		nextCalls += float64(d.next.Calls - b.next.Calls)
		memberNs += float64(d.member.Ns - b.member.Ns)
		memberCalls += float64(d.member.Calls - b.member.Calls)
		for k := range kind {
			kind[k].Calls += d.store[k].Calls - b.store[k].Calls
			kind[k].Ns += d.store[k].Ns - b.store[k].Ns
			kind[k].Items += d.store[k].Items - b.store[k].Items
			storeNs += float64(d.store[k].Ns - b.store[k].Ns)
		}
		for _, e := range d.epochNs {
			epochs = append(epochs, float64(e))
		}
	}
	sort.Float64s(epochs)
	var epochSum float64
	for _, e := range epochs {
		epochSum += e
	}
	perTrial := func(x uint64) float64 { return float64(x) / float64(len(traced)) }

	v := map[string]float64{
		"fluidmem.op_calls":               ops,
		"fluidmem.op_ns_mean":             div(opNs, opCalls),
		"loadgen.next_calls":              float64(first.sp.next.Calls - first.spBase.next.Calls),
		"loadgen.next_ns_mean":            div(nextNs, nextCalls),
		"loadgen.self_share":              div(nextNs, wall),
		"host.epochs":                     float64(len(first.sp.epochNs)),
		"host.epoch_ns_p50":               percentile(epochs, 50),
		"host.epoch_ns_max":               percentile(epochs, 100),
		"host.epoch_share":                div(epochSum, wall),
		"market.leases":                   float64(c.leases),
		"market.clawbacks":                float64(c.clawbacks),
		"market.slo_violations":           float64(c.sloViolations),
		"core.self_ns_per_op":             div(coreSelf, opCalls),
		"core.self_share":                 div(coreSelf, wall),
		"core.faults_per_op":              float64(c.faults) / ops,
		"core.remote_reads":               float64(c.remoteReads),
		"core.steals":                     float64(c.steals),
		"core.evictions":                  float64(c.evictions),
		"core.first_touch":                float64(c.firstTouch),
		"writeback.flushes":               float64(c.wbFlushes),
		"writeback.pages_per_flush":       div(float64(c.wbPages), float64(c.wbFlushes)),
		"writeback.coalesced":             float64(c.coalesced),
		"kvstore.multiget.keys_per_call":  div(float64(kind[kMultiGet].Items), float64(kind[kMultiGet].Calls)),
		"kvstore.multiput.pages_per_call": div(float64(kind[kMultiPut].Items), float64(kind[kMultiPut].Calls)),
		"kvstore.errors":                  float64(first.sp.storeErrs - first.spBase.storeErrs),
		"kvstore.self_share":              div(storeNs, wall),
		"resilience.retries":              float64(c.retries),
		"resilience.failovers":            float64(c.failovers),
		"cluster.stale_rejects":           float64(c.staleRejects),
		"cluster.rereplicated":            float64(c.rereplicated),
		"cluster.membership_ns":           div(memberNs, memberCalls),
	}
	for k := range kind {
		v["kvstore."+kindNames[k]+".calls"] = perTrial(kind[k].Calls)
		v["kvstore."+kindNames[k]+".ns_mean"] = div(float64(kind[k].Ns), float64(kind[k].Calls))
	}

	var mallocs, bytes, gcs, plainOps float64
	var plainPerOp, tracedPerOp []float64
	for _, t := range plain {
		mallocs += float64(t.mallocs)
		bytes += float64(t.allocBytes)
		gcs += float64(t.gcs)
		plainOps += float64(t.ops)
		plainPerOp = append(plainPerOp, float64(t.cpu)/float64(t.ops))
	}
	for _, t := range traced {
		tracedPerOp = append(tracedPerOp, float64(t.cpu)/float64(t.ops))
	}
	v["runtime.allocs_per_op"] = mallocs / plainOps
	v["runtime.alloc_bytes_per_op"] = bytes / plainOps
	v["runtime.gc_cycles"] = gcs / float64(len(plain))
	v["trace.overhead_frac"] = median(tracedPerOp)/median(plainPerOp) - 1
	for k, x := range probes {
		v[k] = x
	}
	return v
}

func probeValues() (map[string]float64, error) {
	copyNs, remapNs, err := probeUffd()
	if err != nil {
		return nil, fmt.Errorf("uffd probe: %w", err)
	}
	hotNs, err := probeHotset()
	if err != nil {
		return nil, fmt.Errorf("hotset probe: %w", err)
	}
	return map[string]float64{
		"clock.sample_ns": probeSample(),
		"uffd.copy_ns":    copyNs,
		"uffd.remap_ns":   remapNs,
		"hotset.fault_ns": hotNs,
	}, nil
}

func printList(out io.Writer) {
	fmt.Fprintln(out, "workloads:")
	for _, w := range workloads {
		fmt.Fprintf(out, "  %-24s %s\n", w.name, w.why)
	}
	for _, sec := range []struct {
		title string
		ms    []metric
	}{{"end-to-end metrics (--trace 0)", endToEnd}, {"per-layer metrics (--trace 1), with the end-to-end metric each should move", perLayer}} {
		fmt.Fprintf(out, "%s:\n", sec.title)
		for _, m := range sec.ms {
			fmt.Fprintf(out, "  %-32s %-9s %-6s %s\n", m.Name, m.Unit, m.Better, m.Moves)
		}
	}
}

// fingerprint names the host a result was measured on.
func fingerprint() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d goarch=%s go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version(), cpu)
}

// resetPeakRSS returns the previous trial's memory to the OS and restarts
// the kernel's peak-RSS mark, so the next reading covers one trial. Where
// the mark cannot be reset the reading covers the run so far.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// percentile is the exact nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
