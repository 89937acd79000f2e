package engine

import (
	"context"
	"errors"
	"fmt"
	"go/build"
	"strings"
	"testing"
	"time"
)

func TestMapWritesEverySlot(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			n := 100
			out := make([]int, n)
			err := Map(context.Background(), workers, n, func(i int) error {
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("slot %d = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestMapCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := Map(ctx, 4, 50, func(i int) error {
		ran++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d units ran under a pre-canceled context", ran)
	}
}

func TestMapDeadlineAbandonsPartialWork(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make([]bool, 1000)
	start := time.Now()
	err := Map(ctx, 2, len(done), func(i int) error {
		time.Sleep(time.Millisecond)
		done[i] = true
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The 1000-unit workload would take ~500ms at 2 workers; expiry must
	// abandon it long before that.
	if elapsed > 250*time.Millisecond {
		t.Fatalf("Map returned after %v; deadline was 20ms", elapsed)
	}
	completed := 0
	for _, d := range done {
		if d {
			completed++
		}
	}
	if completed == len(done) {
		t.Fatal("every unit completed despite the deadline")
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 8} {
		err := Map(context.Background(), workers, 40, func(i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: err = %v, want the lowest-index error", workers, err)
		}
	}
}

func TestOptionsWorkersDefault(t *testing.T) {
	if w := (Options{}).Workers(); w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := (Options{Parallelism: 3}).Workers(); w != 3 {
		t.Fatalf("workers = %d, want 3", w)
	}
}

func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.AddCandidates(5)
	s.AddPruned(2)
	s.AddScored(3)
	s.Observe(StageScore, time.Second)
	ran := false
	s.Timed(StageRank, func() { ran = true })
	if !ran {
		t.Fatal("nil Stats.Timed did not run fn")
	}
	if snap := s.Snapshot(); snap.Candidates != 0 || snap.Scored != 0 || snap.Matchers != nil {
		t.Fatalf("nil snapshot = %+v", snap)
	}
	if s.Matcher("x") != nil {
		t.Fatal("nil Stats.Matcher must return nil")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	ctx, s := WithStats(context.Background())
	if StatsFrom(ctx) != s {
		t.Fatal("StatsFrom did not return the attached collector")
	}
	s.AddCandidates(10)
	s.AddPruned(4)
	s.AddScored(6)
	s.Observe(StageGenerate, 2*time.Second)
	snap := s.Snapshot()
	if snap.Candidates != 10 || snap.Pruned != 4 || snap.Scored != 6 || snap.Generate != 2*time.Second {
		t.Fatalf("snapshot = %+v", snap)
	}
	if StatsFrom(context.Background()) != nil {
		t.Fatal("StatsFrom on a bare context should be nil")
	}
}

// TestEngineImportsOnlyStdlib: the engine is the leaf every other package
// builds on, so it may import nothing of this module.
func TestEngineImportsOnlyStdlib(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "valentine" || strings.HasPrefix(imp, "valentine/") {
			t.Errorf("engine imports %s; it may import only the standard library", imp)
		}
	}
}
