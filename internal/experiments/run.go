package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"chameleon/internal/sim"
	"chameleon/internal/stats"
)

// A Figure is one table of the evaluation. It declares the simulations
// it needs before anything runs, as a grid: each of its workloads on
// each of its columns. Run simulates each unique cell once and hands
// every figure its grid of results, one row per workload.
type Figure struct {
	Name  string // the cmd/experiments -exp selector
	Title string

	columns   func(o Options) []Cell   // nil: no simulations
	workloads func(o Options) []string // nil: o.Workloads
	render    func(o Options, res [][]*sim.Result) (*stats.Table, error)
}

// Figures is the paper's evaluation, in the order it is printed.
var Figures = []Figure{
	{"table1", "Table I: simulated configuration", nil, nil,
		func(o Options, _ [][]*sim.Result) (*stats.Table, error) { return Table1(o), nil }},
	{"table2", "Table II: workload characteristics (measured)", matrixColumns, nil,
		func(o Options, res [][]*sim.Result) (*stats.Table, error) { return Table2(newMatrix(o, res)) }},
	{"fig2a", "Figure 2a: first-touch NUMA allocator stacked-DRAM hit rate", matrixColumns, nil, onMatrix(Fig2a)},
	{"fig2b", "Figure 2b: AutoNUMA stacked-DRAM hit rates", autoNUMAColumns, nil, fig2b},
	{"fig2c", "Figure 2c: cloverleaf AutoNUMA timeline (90% threshold)",
		func(Options) []Cell { return []Cell{{Policy: sim.PolicyNUMAFlat, AutoNUMA: 0.9}} },
		func(Options) []string { return []string{"cloverleaf"} }, fig2c},
	{"fig3", "Figure 3: free memory over the workload sequence", nil, nil,
		func(o Options, _ [][]*sim.Result) (*stats.Table, error) { return Fig3(o) }},
	{"fig4", "Figure 4: execution-time improvement vs capacity", capacityColumns, sweepWorkloads, fig4},
	{"fig5", "Figure 5: page faults and CPU utilisation vs capacity", capacityColumns, sweepWorkloads, fig5},
	{"fig15", "Figure 15: stacked-DRAM hit rate", matrixColumns, nil, onMatrix(Fig15)},
	{"fig16", "Figure 16: cache-mode segment-group share", matrixColumns, nil, onMatrix(Fig16)},
	{"fig17", "Figure 17: segment swaps normalised to PoM", matrixColumns, nil, onMatrix(Fig17)},
	{"fig18", "Figure 18: IPC normalised to the 20 GB baseline", matrixColumns, nil, onMatrix(Fig18)},
	{"fig19", "Figure 19: average memory access latency (cycles)", matrixColumns, nil, onMatrix(Fig19)},
	{"fig20", "Figure 20: IPC vs OS-based placement",
		func(o Options) []Cell { return append(matrixColumns(o), autoNUMAColumns(o)...) }, nil, fig20},
	{"fig21", "Figure 21: cache-mode share vs capacity ratio (Chameleon-Opt)", fig21Columns, nil, fig21},
	{"fig22", "Figure 22: Polymorphic Memory comparison", matrixColumns, nil, onMatrix(Fig22)},
	{"fig23", "Figure 23: sensitivity IPC at 1:3 and 1:7 ratios", fig23Columns, nil, fig23},
	{"overhead", "Section VI-F: ISA-Alloc/ISA-Free overhead analysis", nil, nil,
		func(Options, [][]*sim.Result) (*stats.Table, error) { return Overhead(), nil }},
}

// onMatrix adapts a figure rendered from the policy x workload matrix.
func onMatrix(f func(*Matrix) *stats.Table) func(Options, [][]*sim.Result) (*stats.Table, error) {
	return func(o Options, res [][]*sim.Result) (*stats.Table, error) { return f(newMatrix(o, res)), nil }
}

// Run renders figs: it simulates every unique cell the figures declare
// once (see run), then renders each figure in order.
func Run(ctx context.Context, o Options, figs ...Figure) ([]*stats.Table, error) {
	o = o.Defaults()
	res, err := o.run(ctx, figs)
	if err != nil {
		return nil, err
	}
	tables := make([]*stats.Table, len(figs))
	for i, f := range figs {
		if tables[i], err = f.render(o, res[i]); err != nil {
			return nil, fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	return tables, nil
}

// cells declares f's grid: a row per workload, a cell per column. A
// column is a partial cell (the machine variant: policy, baseline,
// ratio, AutoNUMA threshold) that o and the row's workload complete.
func (o Options) cells(f Figure) [][]Cell {
	if f.columns == nil {
		return nil
	}
	wls := o.Workloads
	if f.workloads != nil {
		wls = f.workloads(o)
	}
	cols, rows := f.columns(o), make([][]Cell, len(wls))
	for j, wl := range wls {
		for _, c := range cols {
			c.Workload, c.Scale, c.Seed, c.Instructions, c.Warmup = wl, o.Scale, o.Seed, o.Instructions, o.Warmup
			c.CacheLevels, c.MemoryTiers = o.CacheLevels, o.MemoryTiers
			rows[j] = append(rows[j], c)
		}
	}
	return rows
}

// run declares and normalizes the figures' cells, simulates each
// unique Cell.Hash once through pool, and returns each figure's grid
// of results. Cells that do not normalize stop the run before anything
// simulates, and all are reported. Progress counts unique cells.
func (o Options) run(ctx context.Context, figs []Figure) ([][][]*sim.Result, error) {
	var cells []Cell
	var hashes []string
	var slots []**sim.Result // per cell, the grid slot it fills
	var errs []error
	grids := make([][][]*sim.Result, len(figs))
	for i, f := range figs {
		rows := o.cells(f)
		grids[i] = make([][]*sim.Result, len(rows))
		for j, row := range rows {
			grids[i][j] = make([]*sim.Result, len(row))
			for k, c := range row {
				c, err := c.Normalize()
				if err != nil {
					errs = append(errs, fmt.Errorf("%s: %v/%s: %w", f.Name, c.Policy, c.Workload, err))
					continue
				}
				cells, hashes, slots = append(cells, c), append(hashes, c.Hash()), append(slots, &grids[i][j][k])
			}
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}

	same := byHash(hashes)
	done, cached := 0, 0
	err := o.pool(ctx, cells, same, func(idx []int, r *sim.Result, hit bool) error {
		for _, i := range idx {
			*slots[i] = r
		}
		done++
		if hit {
			cached++
		}
		o.progress(done, cached, 0, len(same))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return grids, nil
}

// byHash is the one dedupe step of figures and sweeps: it groups the
// indices of hashes by value, in order of first appearance.
func byHash(hashes []string) [][]int {
	index := map[string]int{}
	var same [][]int
	for i, h := range hashes {
		if _, ok := index[h]; !ok {
			index[h] = len(same)
			same = append(same, nil)
		}
		same[index[h]] = append(same[index[h]], i)
	}
	return same
}

// pool is the one bounded simulation pool: every simulation of this
// package runs through it. For each group of same, indices of cells
// that share a Cell.Hash (byHash), it simulates the first cell, with
// at most o.Parallelism in flight, through o.Simulate when set, else
// in this process, and hands finish the result with the group and
// whether a cache served it; finish calls are serialized. No cell
// starts once ctx is done. A failed cell, in its simulation or its
// finish, does not stop its peers: every failure, and a context error,
// is joined into the returned error.
func (o Options) pool(ctx context.Context, cells []Cell, same [][]int, finish func(idx []int, r *sim.Result, cached bool) error) error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	sem := make(chan struct{}, o.Parallelism)
	for _, idx := range same {
		if ctx.Err() != nil {
			// Don't launch cells that would fail immediately; the
			// cancellation itself is reported below.
			break
		}
		c := cells[idx[0]]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var r *sim.Result
			var cached bool
			var err error
			if o.Simulate != nil {
				r, cached, err = o.Simulate(ctx, c)
			} else {
				r, err = c.Run(ctx, nil)
			}
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				err = finish(idx, r, cached)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("%v/%s: %w", c.Policy, c.Workload, err))
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// progress reports the running cell counts to o.Progress, when set.
func (o Options) progress(done, cached, pruned, total int) {
	if o.Progress != nil {
		o.Progress(done, cached, pruned, total)
	}
}
