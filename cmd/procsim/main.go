// Command procsim regenerates the paper's experiments.
//
// Usage:
//
//	procsim -fig 6            # Figure 6 at bench scale
//	procsim -fig all -full    # every figure at paper scale (slow)
//	procsim -fig 11 -queries 4000 -objects 50000
//
// Figures: table61, 6, 7, 8, 9, 10, 11, ablation-staticd, ablation-grd,
// ablation-partition, ext-updates, ext-coop, all. Figures 8 and 9 come from
// the same sweep and are printed together. procsim measures the simulated
// wireless channel; serving capacity under load is cmd/proload's job.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/sim"
)

func main() {
	var (
		fig     = flag.String("fig", "6", "experiment to run (table61, 6, 7, 8, 9, 10, 11, ablation-staticd, ablation-grd, ablation-partition, ext-updates, ext-coop, all)")
		full    = flag.Bool("full", false, "paper scale: 123,593 objects, 10,000 queries")
		objects = flag.Int("objects", 0, "override dataset cardinality")
		queries = flag.Int("queries", 0, "override query count")
		seed    = flag.Int64("seed", 1, "random seed")
		ds      = flag.String("dataset", "ne", "dataset: ne or rd")
		window  = flag.Int("window", 0, "Figure 11 window size (default queries/20)")
	)
	flag.Parse()

	sc := sim.BenchScale()
	if *full {
		sc = sim.FullScale()
	}
	if *objects > 0 {
		sc.Objects = *objects
	}
	if *queries > 0 {
		sc.Queries = *queries
	}
	sc.Seed = *seed

	start := time.Now()
	fmt.Printf("dataset=%s objects=%d queries=%d seed=%d\n", *ds, sc.Objects, sc.Queries, sc.Seed)
	var env *sim.Environment
	if *ds == "rd" {
		env = sim.NewRDEnvironment(sc)
	} else {
		env = sim.NewNEEnvironment(sc)
	}
	fmt.Printf("index built in %v (%d nodes, height %d)\n\n",
		time.Since(start).Round(time.Millisecond), env.Tree.NodeCount(), env.Tree.Height())

	run := func(name string) {
		t0 := time.Now()
		if err := runFigure(name, env, sc, *window); err != nil {
			fmt.Fprintf(os.Stderr, "procsim: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	if *fig == "all" {
		for _, name := range []string{"table61", "6", "7", "8", "10", "11",
			"ablation-staticd", "ablation-grd", "ablation-partition",
			"ext-updates", "ext-coop"} {
			run(name)
		}
		return
	}
	run(*fig)
}

func runFigure(name string, env *sim.Environment, sc sim.Scale, window int) error {
	w := os.Stdout
	switch name {
	case "table61":
		printTable61(env)
		return nil
	case "6":
		rows, err := sim.Figure6(env, sc)
		if err != nil {
			return err
		}
		sim.FprintFigure6(w, rows)
	case "7":
		rows, err := sim.Figure7(env, sc)
		if err != nil {
			return err
		}
		sim.FprintFigure7(w, rows)
	case "8", "9":
		rows, err := sim.Figure8and9(env, sc)
		if err != nil {
			return err
		}
		sim.FprintFigure8and9(w, rows)
	case "10":
		rows, err := sim.Figure10(env, sc)
		if err != nil {
			return err
		}
		sim.FprintFigure10(w, rows)
	case "11":
		series, err := sim.Figure11(env, sc, window)
		if err != nil {
			return err
		}
		sim.FprintFigure11(w, series)
	case "ablation-staticd":
		rows, adaptive, err := sim.AblationStaticD(env, sc, []int{0, 1, 2, 4, 8})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ablation: fixed refinement level d vs adaptive")
		fmt.Fprintf(w, "%8s %10s %8s %8s\n", "d", "resp s", "fmr", "hitc")
		for _, r := range rows {
			fmt.Fprintf(w, "%8d %10.3f %8.3f %8.3f\n", r.D, r.Resp, r.FMR, r.HitC)
		}
		fmt.Fprintf(w, "%8s %10.3f %8.3f %8.3f\n", "adaptive", adaptive.Resp, adaptive.FMR, adaptive.HitC)
	case "ablation-grd":
		rows, err := sim.AblationGRD2vsGRD3(env, sc)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ablation: GRD2 (EBRS reference) vs GRD3 (efficient)")
		fmt.Fprintf(w, "%8s %10s %8s %12s\n", "policy", "resp s", "hitc", "cpu ms/q")
		for _, r := range rows {
			fmt.Fprintf(w, "%8s %10.3f %8.3f %12.3f\n", r.Policy, r.Resp, r.HitC, r.CacheOps)
		}
	case "ablation-partition":
		rows, err := sim.AblationPartitionCost(env, sc)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ablation: server engine ops, full-form vs partition navigation")
		for _, r := range rows {
			fmt.Fprintf(w, "%8s %12d\n", r.Model, r.ServerEngineOps)
		}
	case "ext-updates":
		rows, err := sim.UpdateSweep(sc.Objects, sc.Queries, sc.Seed,
			[]float64{0, 0.1, 0.5, 2.0}, 20)
		if err != nil {
			return err
		}
		sim.FprintUpdateSweep(w, rows)
	case "ext-coop":
		rows, err := sim.CoopSweep(env, sc.Queries/2, sc.Seed, []int{1, 2, 4, 8})
		if err != nil {
			return err
		}
		sim.FprintCoopSweep(w, rows)
	default:
		return fmt.Errorf("unknown figure %q", name)
	}
	return nil
}

func printTable61(env *sim.Environment) {
	cfg := sim.DefaultConfig(env)
	fmt.Println("Table 6.1: system parameter settings")
	rows := [][2]string{
		{"spd", fmt.Sprintf("%g units/s", cfg.Speed)},
		{"think time", fmt.Sprintf("%gs (exponential)", cfg.ThinkMean)},
		{"Area_wnd", fmt.Sprintf("%g", cfg.AreaWnd)},
		{"Dist_join", fmt.Sprintf("%g", cfg.DistJoin)},
		{"join window side", fmt.Sprintf("%g (substitution, see DESIGN.md)", cfg.JoinWndSide)},
		{"K_max", fmt.Sprintf("%d", cfg.KMax)},
		{"bandwidth", fmt.Sprintf("%.0f Kbps", cfg.BandwidthBps/1000)},
		{"|C|", "0.1%..5% of dataset bytes (default 1%)"},
		{"|o|", "10KB mean, Zipf theta=0.8"},
		{"s", fmt.Sprintf("%g", cfg.Sensitivity)},
		{"dataset bytes", fmt.Sprintf("%d (%s, %d objects)", env.DS.TotalBytes, env.DS.Name, env.DS.Len())},
	}
	for _, r := range rows {
		fmt.Printf("  %-18s %s\n", r[0], r[1])
	}
	_ = dataset.NECardinality
}
