// Command aptsim runs one scheduling simulation and prints the schedule
// and its metrics.
//
// Usage:
//
//	aptsim -type 2 -n 50 -seed 7 -policy apt -alpha 4 -rate 4 [-gantt] [-util]
//	aptsim -graph workload.json -policy met
//
// The workload is either generated (-type/-n/-seed, paper catalog) or read
// from a JSON file produced by dfggen (-graph).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/apt"
	"repro/internal/dfg"
)

func main() {
	var (
		typ     = flag.Int("type", 1, "generated DFG type: 1 (parallel level) or 2 (chains and diamond blocks)")
		n       = flag.Int("n", 50, "generated workload size in kernels")
		seed    = flag.Int64("seed", 1, "workload generation seed")
		graph   = flag.String("graph", "", "load workload from this JSON file instead of generating one")
		polName = flag.String("policy", "apt", "scheduling policy: apt, apt-r, met, spn, ss, ag, heft, peft")
		alpha   = flag.Float64("alpha", 4, "APT flexibility factor α (>= 1)")
		metSeed = flag.Int64("met-seed", 1, "MET random-order seed")
		rate    = flag.Float64("rate", 4, "uniform link bandwidth in GB/s")
		over    = flag.Float64("overhead", 0, "per-assignment scheduler overhead in ms")
		gantt   = flag.Bool("gantt", false, "print the full schedule event log")
		util    = flag.Bool("util", false, "print per-processor utilisation")
		trace   = flag.String("trace", "", "write the schedule as a Chrome trace-event file (open in chrome://tracing)")
		energy  = flag.Bool("energy", false, "print an energy estimate under the default power model")
	)
	flag.Parse()
	if err := run(*typ, *n, *seed, *graph, *polName, *alpha, *metSeed, *rate, *over, *gantt, *util, *trace, *energy); err != nil {
		fmt.Fprintln(os.Stderr, "aptsim:", err)
		os.Exit(1)
	}
}

func run(typ, n int, seed int64, graphPath, polName string, alpha float64, metSeed int64,
	rate, overhead float64, gantt, util bool, tracePath string, energy bool) error {

	var w *apt.Workload
	var err error
	if graphPath != "" {
		w, err = loadWorkload(graphPath)
	} else {
		w, err = apt.GenerateWorkload(apt.GraphType(typ), n, seed)
	}
	if err != nil {
		return err
	}

	pol, err := apt.ParsePolicy(polName, alpha, metSeed)
	if err != nil {
		return err
	}
	m := apt.PaperMachine(rate)
	res, err := apt.Run(w, m, pol, &apt.Options{SchedOverheadMs: overhead})
	if err != nil {
		return err
	}

	fmt.Printf("policy    %s\n", res.Policy)
	fmt.Printf("workload  %d kernels, %d dependencies\n", w.NumKernels(), w.NumDeps())
	fmt.Printf("machine   %s at %g GB/s\n", m, rate)
	fmt.Printf("makespan  %.3f ms\n", res.MakespanMs)
	fmt.Printf("λ total   %.3f ms (avg %.3f, stddev %.3f over %d delayed kernels)\n",
		res.LambdaTotalMs, res.LambdaAvgMs, res.LambdaStdMs, countDelayed(res))
	if res.Alt.Assignments > 0 {
		fmt.Printf("APT alternatives: %d of %d assignments", res.Alt.AltAssignments, res.Alt.Assignments)
		if len(res.Alt.ByKernel) > 0 {
			fmt.Printf(" %v", res.Alt.ByKernel)
		}
		fmt.Println()
	}
	if util {
		fmt.Println()
		fmt.Print(res.Utilisation())
	}
	if energy {
		j, err := res.EnergyJ(nil)
		if err != nil {
			return err
		}
		fmt.Printf("energy    %.1f J (default power model)\n", j)
	}
	if gantt {
		fmt.Println()
		fmt.Print(res.Gantt())
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.ChromeTrace(f); err != nil {
			return err
		}
		fmt.Printf("trace     wrote %s\n", tracePath)
	}
	return nil
}

func countDelayed(res *apt.Result) int {
	n := 0
	for _, k := range res.Kernels() {
		if k.LambdaMs > 0 {
			n++
		}
	}
	return n
}

func loadWorkload(path string) (*apt.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := dfg.ReadJSON(f)
	if err != nil {
		return nil, err
	}
	// Rebuild through the public builder to keep the facade the only
	// construction path for Workload values.
	wb := apt.NewWorkload()
	for _, k := range g.Kernels() {
		wb.AddKernel(k.Name, k.DataElems)
	}
	for u := 0; u < g.NumKernels(); u++ {
		for _, v := range g.Succs(dfg.KernelID(u)) {
			wb.AddDep(u, int(v))
		}
	}
	return wb.Build()
}
