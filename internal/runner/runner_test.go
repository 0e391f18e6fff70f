package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResultsByTaskIndex(t *testing.T) {
	for _, par := range []int{1, 2, 8, 64} {
		out := Map(par, 100, func(i int) int { return i * i })
		if len(out) != 100 {
			t.Fatalf("par=%d: got %d results, want 100", par, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestMapMatchesSerialUnderUnevenTaskCost(t *testing.T) {
	// Tasks sleep a pseudo-random amount so completion order scrambles;
	// the result slice must still be index-ordered.
	task := func(i int) string {
		d := time.Duration(rand.Intn(3)) * time.Millisecond
		time.Sleep(d)
		return fmt.Sprintf("task-%03d seed=%d", i, TaskSeed(42, i))
	}
	serial := Map(1, 40, task)
	parallel := Map(8, 40, task)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("out[%d]: serial %q != parallel %q", i, serial[i], parallel[i])
		}
	}
}

func TestMapZeroAndNegativeCounts(t *testing.T) {
	if out := Map(4, 0, func(i int) int { return i }); out != nil {
		t.Fatalf("n=0: got %v, want nil", out)
	}
	if out := Map(4, -3, func(i int) int { return i }); out != nil {
		t.Fatalf("n<0: got %v, want nil", out)
	}
}

func TestMapRunsEveryTaskExactlyOnce(t *testing.T) {
	var calls [500]atomic.Int32
	Map(16, len(calls), func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, got)
		}
	}
}

func TestMapPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("recovered %v, want \"boom\"", r)
		}
	}()
	Map(4, 20, func(i int) int {
		if i == 7 {
			panic("boom")
		}
		return i
	})
}

// TestMapAllocsIndependentOfTaskCount pins the parallel path's
// allocations to the pool, not the tasks: the panic slot of a task must not
// escape to the heap unless the task panics.
func TestMapAllocsIndependentOfTaskCount(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(50, func() {
			Map(2, n, func(i int) int { return i })
		})
	}
	if small, large := allocs(64), allocs(1024); small != large {
		t.Errorf("Map(2, n) allocates %.0f times at n=64 and %.0f at n=1024; want equal", small, large)
	}
}

func TestMapErrReturnsLowestIndexedError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, par := range []int{1, 8} {
		out, err := MapErr(par, 50, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 40:
				return 0, errHigh
			default:
				return i, nil
			}
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("par=%d: err = %v, want lowest-indexed error %v", par, err, errLow)
		}
		if len(out) != 50 || out[10] != 10 {
			t.Fatalf("par=%d: result slice not fully populated: len=%d", par, len(out))
		}
	}
}

func TestMapErrNilOnSuccess(t *testing.T) {
	out, err := MapErr(8, 10, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
		}
	}
}

func TestParallelismResolution(t *testing.T) {
	if got := Parallelism(4); got != 4 {
		t.Fatalf("Parallelism(4) = %d", got)
	}
	if got := Parallelism(0); got < 1 {
		t.Fatalf("Parallelism(0) = %d, want >= 1", got)
	}
	if got := Parallelism(-2); got != Parallelism(0) {
		t.Fatalf("Parallelism(-2) = %d, want GOMAXPROCS default", got)
	}
}

func TestTaskSeedDeterministicAndSpread(t *testing.T) {
	seen := make(map[int64]int)
	for task := 0; task < 10_000; task++ {
		s := TaskSeed(1, task)
		if s2 := TaskSeed(1, task); s2 != s {
			t.Fatalf("TaskSeed not deterministic at task %d", task)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: tasks %d and %d both map to %d", prev, task, s)
		}
		seen[s] = task
	}
	// Different sweep seeds must not share per-task streams.
	if TaskSeed(1, 0) == TaskSeed(2, 0) {
		t.Fatal("TaskSeed ignores the sweep seed")
	}
}
