// Package runner is the deterministic parallel sweep engine behind the
// experiment harness. Every table and figure in the evaluation is a sweep
// over independent simulation tasks — one per (src, dst) pair × seed ×
// config point — and each task is a pure function of its index and shared
// read-only state. The runner executes those tasks on a worker pool sized
// by GOMAXPROCS and aggregates results strictly in task-index order, so
// the output of a parallel run is byte-identical to a serial run of the
// same sweep.
//
// Two rules keep parallel output equal to serial output:
//
//  1. Randomness derives from the task, never from the worker. TaskSeed
//     mixes the sweep seed with the task index; which goroutine happens to
//     execute a task, and in what order tasks complete, can never reach an
//     RNG stream.
//  2. Aggregation happens in task-index order. Map returns a slice indexed
//     by task, and callers fold it left-to-right — floating-point sums,
//     percentile inputs and rendered tables see the same sequence a serial
//     loop would produce.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"

	"citymesh/internal/splitmix"
)

// Parallelism resolves a requested worker count: zero or negative selects
// GOMAXPROCS (all available cores), any positive value is used as given.
// This is the semantics of every `Parallelism` knob in the experiment
// configs and the -par CLI flags.
func Parallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// TaskSeed derives the deterministic RNG seed of one task from the sweep
// seed and the task index (SplitMix64 finalizer). Distinct indices map to
// well-spread seeds, so tasks see independent loss/jitter realizations,
// and the mapping depends on nothing but (sweepSeed, task) — never on
// worker identity or completion order.
func TaskSeed(sweepSeed int64, task int) int64 {
	return int64(splitmix.Mix(uint64(sweepSeed) + (uint64(task)+1)*0x9e3779b97f4a7c15))
}

// Map executes n independent tasks on a pool of Parallelism(parallelism)
// workers and returns their results indexed by task. Workers pull the next
// unclaimed index from a shared counter, so the pool stays busy under
// uneven task costs, and every result lands at its own index regardless of
// completion order. A panicking task is re-panicked on the calling
// goroutine after the pool drains, matching a serial loop's behaviour.
func Map[T any](parallelism, n int, task func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	p := Parallelism(parallelism)
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			out[i] = task(i)
		}
		return out
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() != nil {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							// A fresh copy, so that only a panicking task
							// moves its value to the heap.
							v := r
							panicked.CompareAndSwap(nil, &v)
						}
					}()
					out[i] = task(i)
				}()
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	return out
}

// MapErr is Map for fallible tasks. Every task runs to completion; the
// returned error is the error of the lowest-indexed failing task — a
// deterministic choice under any schedule — and the result slice is still
// fully populated (failed tasks hold their zero value).
func MapErr[T any](parallelism, n int, task func(i int) (T, error)) ([]T, error) {
	type slot struct {
		v   T
		err error
	}
	slots := Map(parallelism, n, func(i int) slot {
		v, err := task(i)
		return slot{v: v, err: err}
	})
	out := make([]T, n)
	var firstErr error
	for i, s := range slots {
		out[i] = s.v
		if s.err != nil && firstErr == nil {
			firstErr = s.err
		}
	}
	return out, firstErr
}
