// Package freelist keeps per-call scratch for reuse across calls.
//
// A List is a mutex and a stack of values. Get pops one, or returns nil when
// none is free; Put pushes one back. Nothing is ever dropped, so a List holds
// exactly as many values as were ever in use at once, for as long as it
// lives: a serial caller reuses one value forever, and N concurrent callers
// leave N behind. Unlike a pool the garbage collector may empty, what a
// List keeps depends on neither the scheduler, the collector nor the race
// detector.
package freelist

import "sync"

// List is a free list of *T. The zero value is empty and ready to use.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get removes and returns a free value, or returns nil when there is none.
func (l *List[T]) Get() (x *T) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x, l.free = l.free[n-1], l.free[:n-1]
	}
	l.mu.Unlock()
	return x
}

// Put returns x to the list for a later Get.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
