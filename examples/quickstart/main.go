// Quickstart: build the paper's CPU-GPU-FPGA machine, generate a workload,
// and compare APT against the six baseline policies.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/apt"
)

func main() {
	// The thesis's evaluation platform: one CPU, one GPU, one FPGA,
	// pairwise PCIe 2.0 x8 links (4 GB/s).
	machine := apt.PaperMachine(4)

	// A DFG Type-2 workload: 60 kernels from the paper's catalog arranged
	// into chains and diamond-shaped blocks, deterministic for seed 42.
	wl, err := apt.GenerateWorkload(apt.Type2, 60, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d kernels, %d dependencies on %s\n\n",
		wl.NumKernels(), wl.NumDeps(), machine)

	policies := []apt.Policy{
		apt.APT(4), // the paper's contribution at its tuned threshold
		apt.MET(1),
		apt.SPN(),
		apt.SS(),
		apt.AG(),
		apt.HEFT(),
		apt.PEFT(),
	}
	results, err := apt.Compare(wl, machine, policies)
	if err != nil {
		log.Fatal(err)
	}

	sort.Slice(results, func(i, j int) bool { return results[i].MakespanMs < results[j].MakespanMs })
	fmt.Printf("%-6s  %14s  %14s\n", "policy", "makespan (ms)", "total λ (ms)")
	for _, r := range results {
		fmt.Printf("%-6s  %14.3f  %14.3f\n", r.Policy, r.MakespanMs, r.LambdaTotalMs)
	}

	// Where did APT exercise its flexibility?
	for _, r := range results {
		if r.Policy == "APT" {
			fmt.Printf("\nAPT sent %d of %d kernels to an alternative processor: %v\n",
				r.Alt.AltAssignments, r.Alt.Assignments, r.Alt.ByKernel)
			fmt.Println()
			fmt.Print(r.Utilisation())
		}
	}
}
