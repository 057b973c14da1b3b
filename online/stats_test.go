package online

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestStatsDuringCloseRace pins the drain-path fix: Stats may be called
// concurrently with completion callbacks and Close, and once Close has
// returned every snapshot is the final one, published exactly once.
// Run with -race this also proves the accesses are synchronised.
func TestStatsDuringCloseRace(t *testing.T) {
	s, err := New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = s.Stats()
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if _, err := s.Submit(Task{Name: "t", EstMs: []float64{1, 2, 3, 4}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	close(stop)
	wg.Wait()

	final := s.Stats()
	for i := 0; i < 10; i++ {
		if got := s.Stats(); !reflect.DeepEqual(got, final) {
			t.Fatalf("post-Close Stats differ:\n%+v\n%+v", got, final)
		}
	}
	// Every accepted task either completed or was failed at close; the
	// final snapshot must be internally consistent.
	if final.Completed > final.Submitted {
		t.Errorf("Completed %d > Submitted %d", final.Completed, final.Submitted)
	}
	perProc := 0
	for _, c := range final.PerProc {
		perProc += c
	}
	if perProc != final.Completed {
		t.Errorf("per-proc sum %d != Completed %d", perProc, final.Completed)
	}
	if final.Sojourn.Count != final.Completed {
		t.Errorf("Sojourn.Count = %d, want %d", final.Sojourn.Count, final.Completed)
	}
}

// TestStatsHistogramMergeAcrossShards checks that the per-processor
// latency shards merge into one coherent distribution: counts add up,
// per-processor extrema bound the merged extrema, and percentiles are
// ordered.
func TestStatsHistogramMergeAcrossShards(t *testing.T) {
	s := newStarted(t, 4, 16)
	const n = 300
	var handles []*Handle
	for i := 0; i < n; i++ {
		h, err := s.Submit(Task{
			Name:  fmt.Sprintf("t%d", i),
			EstMs: []float64{1 + float64(i%4), 1 + float64((i+1)%4), 1 + float64((i+2)%4), 1 + float64((i+3)%4)},
			Run: func(ctx context.Context, p ProcID) error {
				time.Sleep(time.Duration(50+i%7*20) * time.Microsecond)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		if res := <-h.Done; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := s.Stats()
	if st.Sojourn.Count != n {
		t.Fatalf("Sojourn.Count = %d, want %d", st.Sojourn.Count, n)
	}
	if st.QueueWait.Count != n {
		t.Fatalf("QueueWait.Count = %d, want %d", st.QueueWait.Count, n)
	}
	busyProcs := 0
	for _, c := range st.PerProc {
		if c > 0 {
			busyProcs++
		}
	}
	if busyProcs < 2 {
		t.Fatalf("merge test degenerate: only %d processors used", busyProcs)
	}
	for _, sum := range []LatencySummary{st.Sojourn, st.QueueWait} {
		if sum.MinMs < 0 || sum.MaxMs < sum.MinMs {
			t.Errorf("extrema inverted: %+v", sum)
		}
		if sum.P50Ms > sum.P90Ms || sum.P90Ms > sum.P95Ms || sum.P95Ms > sum.P99Ms {
			t.Errorf("percentiles not monotone: %+v", sum)
		}
		if sum.P99Ms > sum.MaxMs || sum.P50Ms < sum.MinMs {
			t.Errorf("percentiles outside extrema: %+v", sum)
		}
	}
	// The tasks sleep ≥ 50µs, so sojourn latency must reflect real time.
	if st.Sojourn.P50Ms <= 0.01 {
		t.Errorf("Sojourn.P50Ms = %v, want > 0.01", st.Sojourn.P50Ms)
	}
	// Queue wait never exceeds sojourn at every percentile (wait is a
	// prefix of the sojourn interval).
	if st.QueueWait.MaxMs > st.Sojourn.MaxMs {
		t.Errorf("QueueWait.MaxMs %v > Sojourn.MaxMs %v", st.QueueWait.MaxMs, st.Sojourn.MaxMs)
	}
}

func TestAutoTuneLoosensUnderWaiting(t *testing.T) {
	// Two equal processors, α=1: every contended task waits for proc 0
	// (its best) even though proc 1 idles at identical cost. The tuner
	// must observe the waiting and raise α over the three full windows of
	// 128 completions.
	s, err := NewWithConfig(Config{Procs: 2, Alpha: 1, QueueLimit: -1, AutoTune: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	var handles []*Handle
	for i := 0; i < 400; i++ {
		h, err := s.Submit(Task{
			Name: "t", EstMs: []float64{1, 1.01},
			Run: func(ctx context.Context, p ProcID) error {
				time.Sleep(100 * time.Microsecond)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		<-h.Done
	}
	if a := s.Stats().Alpha; a <= tuneMinAlpha || a > tuneMaxAlpha {
		t.Errorf("alpha = %v after sustained waiting, want in (%v, %v]", a, tuneMinAlpha, tuneMaxAlpha)
	}
}

func TestAutoTuneTightensOnRegret(t *testing.T) {
	// α=8 admits an alternative 5× slower than the best estimate; mean
	// window regret 5 ≫ target 1.5, so the tuner must lower α.
	s, err := NewWithConfig(Config{Procs: 2, Alpha: 8, QueueLimit: -1, AutoTune: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	var handles []*Handle
	for i := 0; i < 400; i++ {
		h, err := s.Submit(Task{
			Name: "t", EstMs: []float64{1, 5},
			Run: func(ctx context.Context, p ProcID) error {
				time.Sleep(100 * time.Microsecond)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		<-h.Done
	}
	if a := s.Stats().Alpha; a >= 8 {
		t.Errorf("alpha = %v after sustained regret, want < 8", a)
	}
}

func TestAutoTuneConfigValidation(t *testing.T) {
	for _, alpha := range []float64{tuneMinAlpha, 4, tuneMaxAlpha} {
		if _, err := NewWithConfig(Config{Procs: 1, Alpha: alpha, AutoTune: true}); err != nil {
			t.Errorf("alpha %v inside the bounds refused: %v", alpha, err)
		}
	}
	if _, err := NewWithConfig(Config{Procs: 1, Alpha: 32, AutoTune: true}); err == nil {
		t.Error("alpha outside the bounds accepted")
	}
	if _, err := NewWithConfig(Config{Procs: 1, Alpha: 32}); err != nil {
		t.Errorf("alpha 32 without auto-tune refused: %v", err)
	}
}

// autoTuneTrajectory drives the tuner directly over a seeded sequence of
// windows: each step adds a random number of completions (some short of a
// full window), alternative assignments with a random regret, and a queue
// depth, then runs one tuning decision and records α's bits. The phases
// bias the draws first toward loosening, then toward tightening, so the
// trajectory meets both bounds.
func autoTuneTrajectory(t *testing.T, s *Scheduler) []uint64 {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	var out []uint64
	for step := 0; step < 300; step++ {
		maxRatio := 1 + 3*r.Float64()
		switch {
		case step < 80:
			maxRatio = 1.4
		case step < 200:
			maxRatio = 2 + r.Float64()
		}
		s.completed.Add(int64(r.Intn(256)))
		tl := &s.procs[r.Intn(len(s.procs))].tele
		alt := r.Intn(8)
		tl.mu.Lock()
		tl.alt += alt
		for i := 0; i < alt; i++ {
			tl.regretSum += 1 + (maxRatio-1)*r.Float64()
		}
		tl.mu.Unlock()
		s.queued.Store(int64(r.Intn(3)))
		s.tuner.maybeTune(s)
		out = append(out, math.Float64bits(s.Alpha()))
	}
	return out
}

// TestAutoTuneTrajectory pins the tuner's decisions window by window: the
// α bits after each of 300 seeded windows hash to the value the
// configurable tuner gave with its default AutoTuneConfig{} before its
// five knobs became constants, and the trajectory meets both bounds.
func TestAutoTuneTrajectory(t *testing.T) {
	s, err := NewWithConfig(Config{Procs: 3, Alpha: 4, AutoTune: true})
	if err != nil {
		t.Fatal(err)
	}
	traj := autoTuneTrajectory(t, s)
	h := fnv.New64a()
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, b := range traj {
		fmt.Fprintf(h, "%x,", b)
		a := math.Float64frombits(b)
		lo, hi = math.Min(lo, a), math.Max(hi, a)
	}
	if lo != tuneMinAlpha || hi != tuneMaxAlpha {
		t.Errorf("trajectory spans [%v, %v], want both bounds [%v, %v]", lo, hi, tuneMinAlpha, tuneMaxAlpha)
	}
	if got, want := h.Sum64(), uint64(0x555a6ca85954e02a); got != want {
		t.Errorf("trajectory hash %#x, want %#x (final α %v)", got, want, s.Alpha())
	}
}

func TestDrainTimeout(t *testing.T) {
	s := newStarted(t, 1, 1)
	block := make(chan struct{})
	defer close(block)
	h, err := s.Submit(Task{
		Name: "stuck", EstMs: []float64{1},
		Run: func(ctx context.Context, p ProcID) error {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Quiesce(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Quiesce err = %v, want DeadlineExceeded", err)
	}
	s.Close()
	// The stuck task was cancelled by Close.
	if res := <-h.Done; res.Err != nil {
		t.Fatalf("stuck task err = %v", res.Err)
	}
}
