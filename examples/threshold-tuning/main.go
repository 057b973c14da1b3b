// Threshold tuning: sweep APT's flexibility factor α to locate the
// "valley" the thesis describes — makespan falls as flexibility grows,
// bottoms out at thresholdbrk, then rises again as APT starts settling for
// processors that are too slow. The right α depends on the degree of
// heterogeneity of the system, which this example demonstrates by running
// the same sweep on a second machine whose links are ten times slower.
//
//	go run ./examples/threshold-tuning
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/apt"
)

var alphas = []float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16, 32}

func chart(points []apt.TuneResult) {
	max := 0.0
	for _, p := range points {
		if p.MakespanMs > max {
			max = p.MakespanMs
		}
	}
	for _, p := range points {
		bar := strings.Repeat("#", int(p.MakespanMs/max*50))
		fmt.Printf("  α=%-5g %-50s %.0f ms\n", p.Alpha, bar, p.MakespanMs)
	}
}

func main() {
	// The thesis's ten Type-1 experiments, 46 to 157 kernels each.
	wls, err := apt.GenerateSuite(apt.Type1, 20170301)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("paper machine (4 GB/s links):")
	brk, points, err := apt.TuneAlpha(wls, apt.PaperMachine(4), alphas)
	if err != nil {
		log.Fatal(err)
	}
	chart(points)
	fmt.Printf("  thresholdbrk ≈ α=%g\n\n", brk)

	fmt.Println("slow interconnect (0.4 GB/s links):")
	slow, err := buildSlowMachine()
	if err != nil {
		log.Fatal(err)
	}
	brkSlow, pointsSlow, err := apt.TuneAlpha(wls, slow, alphas)
	if err != nil {
		log.Fatal(err)
	}
	chart(pointsSlow)
	fmt.Printf("  thresholdbrk ≈ α=%g\n", brkSlow)
	fmt.Println("\nSlower links make alternative processors more expensive to feed,")
	fmt.Println("shifting the optimum flexibility — α must be tuned per system, as the")
	fmt.Println("thesis concludes.")
}

func buildSlowMachine() (*apt.Machine, error) {
	mb := apt.NewMachine()
	mb.AddProc(apt.CPU, "")
	mb.AddProc(apt.GPU, "")
	mb.AddProc(apt.FPGA, "")
	mb.UniformRate(0.4)
	return mb.Build()
}
