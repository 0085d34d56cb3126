// Command fluidmem-bench regenerates the paper's evaluation tables and
// figures (§VI) plus the DESIGN.md ablations, printing paper-style text
// tables. Run with -list to see experiment names.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fluidmem/internal/bench"
	"fluidmem/internal/profiling"
)

// renderable is any experiment result.
type renderable interface{ Render() string }

// jsonable marks results that can also be emitted as a machine-readable
// BENCH_<name>.json artifact (the -json flag).
type jsonable interface{ JSON() ([]byte, error) }

// traceable marks results that recorded a full virtual-time event log and
// can serialise it as a Chrome trace (the -trace flag).
type traceable interface{ WriteChromeTrace(io.Writer) error }

// validatable marks results that carry their own artifact sanity check; a
// failing Validate aborts -json before the artifact is written (e.g. a
// BENCH_market.json with zero SLO-enforcement epochs measures nothing and
// must never be committed as a baseline).
type validatable interface{ Validate() error }

// experiment couples a name to its runner. artifact marks the experiments
// whose results are committed as BENCH_<name>.json baselines: the Makefile's
// bench-json target selects them with the meta-name "artifacts" instead of
// hand-maintaining a list, and TestArtifactsPinned requires each to
// regenerate byte-for-byte, so adding an experiment here is the single step
// that enrolls it in both.
type experiment struct {
	name     string
	desc     string
	artifact bool
	run      func(bench.Options) (renderable, error)
}

func experiments() []experiment {
	return []experiment{
		{"fig3", "pmbench page-fault latency CDFs, 6 systems", false, func(o bench.Options) (renderable, error) { return bench.RunFig3(o) }},
		{"table1", "monitor code-path latency profile (RAMCloud, sync)", false, func(o bench.Options) (renderable, error) { return bench.RunTable1(o) }},
		{"table2", "fault latency vs optimisations × backend × pattern", false, func(o bench.Options) (renderable, error) { return bench.RunTable2(o) }},
		{"fig4", "Graph500 TEPS across scale factors, 6 systems", false, func(o bench.Options) (renderable, error) { return bench.RunFig4(o) }},
		{"fig5", "MongoDB YCSB-C latency time courses, swap vs FluidMem", false, func(o bench.Options) (renderable, error) { return bench.RunFig5(o) }},
		{"table3", "VM footprint minimisation and service responsiveness", false, func(o bench.Options) (renderable, error) { return bench.RunTable3(o) }},
		{"ablation-steal", "A1: write-list page stealing on/off", false, func(o bench.Options) (renderable, error) { return bench.RunAblationSteal(o) }},
		{"ablation-batch", "A2: writeback batch-size sweep", false, func(o bench.Options) (renderable, error) { return bench.RunAblationBatch(o) }},
		{"ablation-remap", "A3: UFFD_REMAP vs copy-out eviction", false, func(o bench.Options) (renderable, error) { return bench.RunAblationRemap(o) }},
		{"ablation-lru", "A4: LRU list size sweep", false, func(o bench.Options) (renderable, error) { return bench.RunAblationLRU(o) }},
		{"ablation-compress", "A5: compressed-tier pool size sweep", false, func(o bench.Options) (renderable, error) { return bench.RunAblationCompress(o) }},
		{"ablation-prefetch", "A6: sequential prefetching on/off × pattern", false, func(o bench.Options) (renderable, error) { return bench.RunAblationPrefetch(o) }},
		{"density", "multi-VM density: idle guests drain, active guest grows (§VI-E)", false, func(o bench.Options) (renderable, error) { return bench.RunDensity(o) }},
		{"chaos", "fault-latency degradation under injected failures, replicated + resilient", false, func(o bench.Options) (renderable, error) { return bench.RunChaos(o) }},
		{"cluster", "multi-node pool lifecycle: fault p50/p99 healthy/crashed/recovered/drained vs single store", true, func(o bench.Options) (renderable, error) { return bench.RunCluster(o) }},
		{"workers", "fault throughput vs pipeline width, batched MultiGet readahead", false, func(o bench.Options) (renderable, error) { return bench.RunWorkers(o) }},
		{"writeback", "eviction write path: per-page Put vs MultiPut batching vs zero-elide + clean-drop", true, func(o bench.Options) (renderable, error) { return bench.RunWriteback(o) }},
		{"trace", "virtual-time fault-latency breakdown: per-phase p50/p90/p99 from the tracer", true, func(o bench.Options) (renderable, error) { return bench.RunTrace(o) }},
		{"arbiter", "multi-tenant arbiter vs static equal split: ghost-LRU curves drive budget rebalancing", true, func(o bench.Options) (renderable, error) { return bench.RunArbiter(o) }},
		{"market", "memory marketplace vs arbiter vs static split: SLO-aware leases on skewed/shifting/adversarial mixes", true, func(o bench.Options) (renderable, error) { return bench.RunMarket(o) }},
		{"openloop", "open-loop scenario matrix: offered load vs goodput and sojourn p99, knee of curve per planner", true, func(o bench.Options) (renderable, error) { return bench.RunOpenLoop(o) }},
	}
}

// artifactNames lists the experiments whose JSON artifacts are committed as
// BENCH_<name>.json baselines — the expansion of the "artifacts" meta-name.
func artifactNames() []string {
	var names []string
	for _, e := range experiments() {
		if e.artifact {
			names = append(names, e.name)
		}
	}
	return names
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fluidmem-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("fluidmem-bench", flag.ContinueOnError)
	var (
		runNames = fs.String("run", "all", "comma-separated experiment names, 'all', or 'artifacts' (every experiment with a committed BENCH_<name>.json)")
		quick    = fs.Bool("quick", false, "run reduced-scale variants")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		list     = fs.Bool("list", false, "list experiments and exit")
		jsonOut  = fs.Bool("json", false, "also write BENCH_<name>.json for experiments that support it")
		traceOut = fs.String("trace", "", "write a Chrome trace (chrome://tracing / Perfetto) to this file, for experiments that record one")
		cpuOut   = fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memOut   = fs.String("memprofile", "", "write an allocation profile to this file when the experiments finish")
		mutexOut = fs.String("mutexprofile", "", "write a mutex-contention profile to this file when the experiments finish")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := profiling.Start(*cpuOut, *memOut, *mutexOut)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()
	exps := experiments()
	if *list {
		for _, e := range exps {
			mark := ""
			if e.artifact {
				mark = " [artifact]"
			}
			fmt.Printf("  %-16s %s%s\n", e.name, e.desc, mark)
		}
		return nil
	}
	opts := bench.Options{Quick: *quick, Seed: *seed}
	want := map[string]bool{}
	if *runNames != "all" {
		for _, n := range strings.Split(*runNames, ",") {
			n = strings.TrimSpace(n)
			if n == "artifacts" {
				// Meta-name: the registry, not a Makefile string, decides
				// which experiments carry committed baselines.
				for _, a := range artifactNames() {
					want[a] = true
				}
				continue
			}
			want[n] = true
		}
	}
	matched := 0
	for _, e := range exps {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		matched++
		fmt.Printf("=== %s: %s ===\n", e.name, e.desc)
		res, err := e.run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(res.Render())
		if *jsonOut {
			if v, ok := res.(validatable); ok {
				if err := v.Validate(); err != nil {
					return fmt.Errorf("%s: %w", e.name, err)
				}
			}
			j, ok := res.(jsonable)
			if !ok {
				// With an explicit -run list every named experiment is
				// expected to produce an artifact; failing loudly here is
				// what keeps a BENCH_<name>.json from silently never being
				// written (the bench-json Makefile target relies on it).
				if len(want) > 0 {
					return fmt.Errorf("%s: -json requested but this experiment produces no JSON artifact", e.name)
				}
				continue
			}
			data, err := j.JSON()
			if err != nil {
				return fmt.Errorf("%s: json: %w", e.name, err)
			}
			artifact := "BENCH_" + e.name + ".json"
			if err := os.WriteFile(artifact, append(data, '\n'), 0o644); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Printf("wrote %s\n", artifact)
		}
		if *traceOut != "" {
			tr, ok := res.(traceable)
			if !ok {
				continue
			}
			f, err := os.Create(*traceOut)
			if err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			if err := tr.WriteChromeTrace(f); err != nil {
				f.Close()
				return fmt.Errorf("%s: trace: %w", e.name, err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Printf("wrote %s\n", *traceOut)
		}
	}
	if matched == 0 {
		return fmt.Errorf("no experiment matches %q (use -list)", *runNames)
	}
	return nil
}
