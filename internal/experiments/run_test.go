package experiments

import (
	"context"
	"testing"

	"chameleon/internal/sim"
)

// planned returns the unique normalized cells the named figures
// declare, by Cell.Hash, and the number of cells they declare in all.
// No simulation runs.
func planned(t *testing.T, o Options, names ...string) (map[string]Cell, int) {
	t.Helper()
	keys := map[string]Cell{}
	declared := 0
	for _, n := range names {
		for _, row := range o.cells(figure(t, n)) {
			for _, c := range row {
				c, err := c.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				keys[c.Hash()] = c
				declared++
			}
		}
	}
	return keys, declared
}

func TestPlanDeduplicates(t *testing.T) {
	o := Options{}.Defaults() // the 14 Table II workloads at scale 256

	fig4, _ := planned(t, o, "fig4")
	both, declared := planned(t, o, "fig4", "fig5")
	if len(both) != len(fig4) || declared != 2*len(fig4) {
		t.Errorf("fig4+fig5 plan %d unique of %d declared, want fig4's %d of %d",
			len(both), declared, len(fig4), 2*len(fig4))
	}

	matrix, _ := planned(t, o, "fig18")
	fig21, _ := planned(t, o, "fig21")
	shared := 0
	for k, c := range fig21 {
		if _, ok := matrix[k]; ok {
			shared++
			if c.Policy != sim.PolicyChameleonOpt {
				t.Errorf("fig21 shares a %v cell with the matrix", c.Policy)
			}
		}
	}
	if shared != len(o.Workloads) {
		t.Errorf("fig21 shares %d cells with the matrix, want its %d 1:5 Chameleon-Opt cells", shared, len(o.Workloads))
	}

	fig2b, _ := planned(t, o, "fig2b")
	fig2c, _ := planned(t, o, "fig2c")
	for k := range fig2c {
		if _, ok := fig2b[k]; !ok {
			t.Error("fig2c's cloverleaf cell is not in the AutoNUMA sweep")
		}
	}

	var all []string
	for _, f := range Figures {
		all = append(all, f.Name)
		_, n := planned(t, o, f.Name)
		t.Logf("%s declares %d cells", f.Name, n)
	}
	// 112 matrix + 42 AutoNUMA + 84 capacity + 42 fig21 + 140 fig23
	// cells, less the overlaps: fig2c is an AutoNUMA cell, the sweep's
	// 20 and 24 GB points are the matrix's 24 flat cells, fig21's 1:5
	// column is the matrix's 14 Chameleon-Opt cells and its 1:3 and 1:7
	// columns are fig23's 28 Chameleon-Opt cells.
	keys, declared := planned(t, o, all...)
	t.Logf("-exp all declares %d cells, %d unique", declared, len(keys))
	if len(keys) != 354 {
		t.Errorf("-exp all plans %d unique cells, want 354", len(keys))
	}
}

func TestRunIndependentOfParallelism(t *testing.T) {
	o := tiny("bwaves")
	o.Instructions = 10_000
	o.Warmup = 10_000
	// Matrix, AutoNUMA and capacity-ratio cells; fig21's 1:5 cell is
	// the matrix's Chameleon-Opt cell.
	figs := []Figure{figure(t, "fig20"), figure(t, "fig21")}
	var out [2]string
	for i, par := range []int{1, 4} {
		o.Parallelism = par
		var calls, total int
		o.Progress = func(done, _, _, tot int) { calls, total = done, tot }
		tabs, err := Run(context.Background(), o, figs...)
		if err != nil {
			t.Fatal(err)
		}
		// 8 matrix + 3 AutoNUMA + 3 ratio cells, one shared.
		if calls != 13 || total != 13 {
			t.Errorf("parallelism %d: progress %d/%d, want 13/13", par, calls, total)
		}
		for _, tab := range tabs {
			out[i] += tab.CSV()
		}
	}
	if out[0] != out[1] {
		t.Errorf("tables differ between parallelism 1 and 4:\n%s\n---\n%s", out[0], out[1])
	}
}
