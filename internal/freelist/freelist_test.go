package freelist

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetOnEmptyListIsNil(t *testing.T) {
	var l List[int]
	if x := l.Get(); x != nil {
		t.Fatalf("Get on an empty list = %v, want nil", x)
	}
}

func TestPutValueComesBack(t *testing.T) {
	var l List[int]
	x := new(int)
	l.Put(x)
	if got := l.Get(); got != x {
		t.Fatalf("Get = %p, want the value put (%p)", got, x)
	}
	if got := l.Get(); got != nil {
		t.Fatalf("second Get = %p, want nil: the one value is out", got)
	}
}

// TestConcurrentHoldersNeverShareAndNeverExceedN runs n goroutines that each
// take a value (or make one when the list is empty), hold it briefly and put
// it back. The list never drops a value, so at most n are ever made, and no
// value is handed to two holders at once.
func TestConcurrentHoldersNeverShareAndNeverExceedN(t *testing.T) {
	const n, rounds = 8, 2000
	type slot struct{ held atomic.Bool }
	var (
		l     List[slot]
		made  atomic.Int32
		wg    sync.WaitGroup
		clash atomic.Bool
	)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				s := l.Get()
				if s == nil {
					s = new(slot)
					made.Add(1)
				}
				if !s.held.CompareAndSwap(false, true) {
					clash.Store(true)
				}
				s.held.Store(false)
				l.Put(s)
			}
		}()
	}
	wg.Wait()
	if clash.Load() {
		t.Error("one value was handed to two holders at once")
	}
	if m := made.Load(); m > n {
		t.Errorf("%d values made for %d concurrent holders", m, n)
	}
}
