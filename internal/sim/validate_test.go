package sim

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"testing"

	"repro/internal/dfg"
	"repro/internal/lut"
	"repro/internal/platform"
)

// sortedOccupancy is the occupancy check Validate ran before it walked the
// start log, kept as its oracle: bucket the kernels by processor, order
// each bucket by transfer start (ties by kernel index) and scan
// consecutive pairs for overlap, processors in ID order.
func sortedOccupancy(r *Result, np int) error {
	byProc := make([][]int32, np)
	for i := range r.Placements {
		p := r.Placements[i].Proc
		byProc[p] = append(byProc[p], int32(i))
	}
	for p, bucket := range byProc {
		slices.SortFunc(bucket, func(a, b int32) int {
			ta, tb := r.Placements[a].TransferStart, r.Placements[b].TransferStart
			if ta < tb {
				return -1
			}
			if tb < ta {
				return 1
			}
			return cmp.Compare(a, b)
		})
		for i := 1; i < len(bucket); i++ {
			prev, cur := &r.Placements[bucket[i-1]], &r.Placements[bucket[i]]
			if cur.TransferStart < prev.Finish-eps(prev.Finish) {
				return fmt.Errorf("sim: processor %d overlap: kernel %d (start %v) before kernel %d finished (%v)",
					p, cur.Kernel, cur.TransferStart, prev.Kernel, prev.Finish)
			}
		}
	}
	return nil
}

// ValidateSorted is Validate's oracle: the same lifecycle checks, then
// sortedOccupancy in place of the start-log walk.
func ValidateSorted(r *Result, g *dfg.Graph, sys *platform.System) error {
	if err := r.checkLifecycles(g, sys); err != nil || len(r.Placements) == 0 {
		return err
	}
	return sortedOccupancy(r, sys.NumProcs())
}

// NewGreedy returns the greedy test policy, for the external tests.
func NewGreedy() Policy { return &greedy{} }

// overlapping reports whether a's and b's occupancy intervals overlap by
// more than either check tolerates.
func overlapping(a, b *Placement) bool {
	return a.TransferStart < b.Finish-eps(b.Finish) && b.TransferStart < a.Finish-eps(a.Finish)
}

// overlapPattern matches an overlap error and captures its processor and
// its two kernels.
var overlapPattern = regexp.MustCompile(`^sim: processor (\d+) overlap: kernel (\d+) \(start [^)]*\) before kernel (\d+) finished \([^)]*\)$`)

// TestValidateRejects hands Validate one engine result corrupted once per
// row and pins each message. The overlap row moves one kernel onto a
// processor where exactly one other kernel's interval meets its own, and
// accepts the two kernels in either order: the sorted scan and the
// start-log walk may name them differently.
func TestValidateRejects(t *testing.T) {
	env := tiny(t, 4)
	const n = 64
	g := treeDAG(n)
	base, err := Run(mustCosts(t, g, env), &greedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	np := env.sys.NumProcs()
	const k = 5 // a kernel with a predecessor, 2
	exact := func(want string) func(string) bool { return func(got string) bool { return got == want } }
	rows := []struct {
		name    string
		corrupt func(r *Result) (match func(string) bool, want string)
	}{
		{"wrong kernel", func(r *Result) (func(string) bool, string) {
			r.Placements[k].Kernel = k + 1
			want := fmt.Sprintf("sim: placement %d records kernel %d", k, k+1)
			return exact(want), want
		}},
		{"unknown processor", func(r *Result) (func(string) bool, string) {
			r.Placements[k].Proc = platform.ProcID(np)
			want := fmt.Sprintf("sim: kernel %d placed on unknown processor %d", k, np)
			return exact(want), want
		}},
		{"transfer before assignment", func(r *Result) (func(string) bool, string) {
			pl := &r.Placements[k]
			pl.Assign = pl.TransferStart + 1
			want := fmt.Sprintf("sim: kernel %d transfer (%v) before assignment (%v)", k, pl.TransferStart, pl.Assign)
			return exact(want), want
		}},
		{"non-monotonic lifecycle", func(r *Result) (func(string) bool, string) {
			pl := &r.Placements[k]
			pl.ExecStart = pl.TransferStart - 1
			want := fmt.Sprintf("sim: kernel %d has non-monotonic lifecycle %+v", k, *pl)
			return exact(want), want
		}},
		{"negative λ", func(r *Result) (func(string) bool, string) {
			pl := &r.Placements[k]
			pl.BestExecMs = pl.Finish - pl.Ready + 1
			want := fmt.Sprintf("sim: kernel %d has negative λ %v", k, pl.Lambda())
			return exact(want), want
		}},
		{"predecessor finishes after transfer", func(r *Result) (func(string) bool, string) {
			pred := g.Preds(k)[0]
			pl := &r.Placements[k]
			pl.TransferStart = r.Placements[pred].Finish - 1
			pl.Assign = min(pl.Assign, pl.TransferStart)
			want := fmt.Sprintf("sim: kernel %d starts transfers at %v before predecessor %d finishes at %v",
				k, pl.TransferStart, pred, r.Placements[pred].Finish)
			return exact(want), want
		}},
		{"makespan not the latest finish", func(r *Result) (func(string) bool, string) {
			latest := r.MakespanMs
			r.MakespanMs++
			want := fmt.Sprintf("sim: makespan %v != latest finish %v", r.MakespanMs, latest)
			return exact(want), want
		}},
		{"overlap on one processor", func(r *Result) (func(string) bool, string) {
			a, b := overlapPair(t, r, np)
			r.Placements[b].Proc = r.Placements[a].Proc
			want := fmt.Sprintf("sim: processor %d overlap: kernels %d and %d in either order", r.Placements[a].Proc, a, b)
			return func(got string) bool {
				m := overlapPattern.FindStringSubmatch(got)
				return m != nil && m[1] == fmt.Sprint(r.Placements[a].Proc) &&
					(m[2] == fmt.Sprint(a) && m[3] == fmt.Sprint(b) || m[2] == fmt.Sprint(b) && m[3] == fmt.Sprint(a))
			}, want
		}},
		{"short start log", func(r *Result) (func(string) bool, string) {
			r.starts = r.starts[:n-1]
			want := fmt.Sprintf("sim: start log lists %d kernels for %d", n-1, n)
			return exact(want), want
		}},
		{"padded start log", func(r *Result) (func(string) bool, string) {
			r.starts = append(r.starts, r.starts[0])
			want := fmt.Sprintf("sim: start log lists %d kernels for %d", n+1, n)
			return exact(want), want
		}},
		{"kernel started twice", func(r *Result) (func(string) bool, string) {
			r.starts[n-1] = r.starts[0]
			want := fmt.Sprintf("sim: start log lists kernel %d twice", r.starts[0])
			return exact(want), want
		}},
		{"unknown kernel in start log", func(r *Result) (func(string) bool, string) {
			r.starts[0] = n
			want := fmt.Sprintf("sim: start log lists unknown kernel %d", n)
			return exact(want), want
		}},
	}
	if err := base.Validate(g, env.sys); err != nil {
		t.Fatalf("uncorrupted result rejected: %v", err)
	}
	for _, row := range rows {
		r := *base
		r.Placements = slices.Clone(base.Placements)
		r.starts = slices.Clone(base.starts)
		match, want := row.corrupt(&r)
		err := r.Validate(g, env.sys)
		if err == nil || !match(err.Error()) {
			t.Errorf("%s: Validate says %v, want %s", row.name, err, want)
		}
	}
}

// overlapPair returns kernels a and b on different processors whose
// intervals overlap, where a is the only kernel on its processor whose
// interval b's meets.
func overlapPair(t *testing.T, r *Result, np int) (a, b dfg.KernelID) {
	t.Helper()
	for b := range r.Placements {
		for p := 0; p < np; p++ {
			if platform.ProcID(p) == r.Placements[b].Proc {
				continue
			}
			var hits []dfg.KernelID
			for a := range r.Placements {
				if r.Placements[a].Proc == platform.ProcID(p) && overlapping(&r.Placements[a], &r.Placements[b]) {
					hits = append(hits, dfg.KernelID(a))
				}
			}
			if len(hits) == 1 {
				return hits[0], dfg.KernelID(b)
			}
		}
	}
	t.Fatal("no kernel overlaps exactly one kernel of another processor")
	return 0, 0
}

// TestValidateZeroLengthTie pins where the start-log walk and the sorted
// scan disagree: a zero-length kernel the engine started at the same
// instant as, and before, a longer kernel with a lower ID. The intervals
// only touch, and the start log orders them as the engine ran them, so
// Validate accepts; the sorted scan breaks the tie by kernel ID, puts the
// longer kernel first and reports an overlap.
func TestValidateZeroLengthTie(t *testing.T) {
	tab, err := lut.New([]lut.Entry{
		{Kernel: "a", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 10, platform.GPU: 2, platform.FPGA: 50}},
		{Kernel: "z", DataElems: 1000, TimeMs: map[platform.Kind]float64{
			platform.CPU: 0, platform.GPU: 0, platform.FPGA: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := dfg.NewBuilder()
	long := b.AddKernel(dfg.Kernel{Name: "a", DataElems: 1000})
	zero := b.AddKernel(dfg.Kernel{Name: "z", DataElems: 1000})
	g := b.MustBuild()
	sys := platform.PaperSystem(4)
	c, err := PrepareCosts(g, sys, tab, CostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, &fixed{as: []Assignment{{Kernel: zero, Proc: 0}, {Kernel: long, Proc: 0}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if z, l := res.Placements[zero], res.Placements[long]; z.TransferStart != 0 || z.Finish != 0 || l.TransferStart != 0 || l.Finish != 10 {
		t.Fatalf("engine ran zero [%v, %v] and long [%v, %v], want both from 0", z.TransferStart, z.Finish, l.TransferStart, l.Finish)
	}
	if err := res.Validate(g, sys); err != nil {
		t.Errorf("Validate rejects the engine's own schedule: %v", err)
	}
	want := "sim: processor 0 overlap: kernel 1 (start 0) before kernel 0 finished (10)"
	if err := ValidateSorted(res, g, sys); err == nil || err.Error() != want {
		t.Errorf("sorted scan says %v, want %q", err, want)
	}
}
