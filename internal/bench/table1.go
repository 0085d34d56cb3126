package bench

import (
	"fmt"
	"strings"
	"time"

	"fluidmem"
	"fluidmem/internal/core"
	"fluidmem/internal/stats"
	"fluidmem/internal/workload/pmbench"
)

// Table1Row is one code path's latency profile.
type Table1Row struct {
	CodePath string
	Avg      time.Duration
	Stdev    time.Duration
	P99      time.Duration
	Samples  int
}

// Table1Result reproduces Table I: latencies of the monitor's code paths
// during synchronous fault handling with the RAMCloud backend.
type Table1Result struct {
	Rows []Table1Row
}

// RunTable1 profiles the monitor's code paths. Per the paper, profiling runs
// with the optimisations disabled (synchronous handling) on RAMCloud.
func RunTable1(opts Options) (*Table1Result, error) {
	localBytes := uint64(8 << 20)
	wss := uint64(32 << 20)
	accesses := 20000
	if opts.Quick {
		localBytes, wss, accesses = 2<<20, 8<<20, 3000
	}
	m, err := newMonitorMachine(fluidmem.BackendRAMCloud, localBytes, wss+wss/4,
		func(cfg *core.Config) {
			cfg.AsyncRead = false
			cfg.AsyncWrite = false
			cfg.StealEnabled = false
		}, opts.Seed)
	if err != nil {
		return nil, err
	}
	pcfg := pmbench.DefaultConfig(wss)
	pcfg.Duration = time.Hour
	pcfg.MaxAccesses = accesses
	pcfg.Seed = opts.Seed
	if _, _, err := pmbench.Run(m.Now(), m.VM(), pcfg); err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	res := &Table1Result{}
	for _, op := range []core.Op{
		core.OpUpdatePageCache,
		core.OpInsertPageHash,
		core.OpInsertLRUCache,
		core.OpUffdZeroPage,
		core.OpUffdRemap,
		core.OpUffdCopy,
		core.OpReadPage,
		core.OpWritePage,
	} {
		s := m.Monitor().Profiler().Sample(op)
		if s == nil {
			return nil, fmt.Errorf("table1: code path %s never exercised", op)
		}
		res.Rows = append(res.Rows, Table1Row{
			CodePath: op.String(),
			Avg:      s.Mean(),
			Stdev:    s.Stdev(),
			P99:      s.Percentile(99),
			Samples:  s.Len(),
		})
	}
	return res, nil
}

// Row returns a code path's profile (test hook).
func (r *Table1Result) Row(codePath string) (Table1Row, bool) {
	for _, row := range r.Rows {
		if row.CodePath == codePath {
			return row, true
		}
	}
	return Table1Row{}, false
}

// Render prints the paper's Table I layout.
func (r *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table I: latencies of key FluidMem code paths (RAMCloud backend, synchronous handling, units: µs)\n")
	fmt.Fprintf(&b, "%-24s %8s %8s %8s %10s\n", "Code path", "Avg", "Stdev", "99th", "samples")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %8.2f %8.2f %8.2f %10d\n",
			row.CodePath, stats.Micros(row.Avg), stats.Micros(row.Stdev), stats.Micros(row.P99), row.Samples)
	}
	return b.String()
}
