//go:build !race

// Package raceflag tells tests whether the race detector is on. Under it
// sync.Pool drops a quarter of what is put back, at random, so a test that
// pins a pooled path at zero allocations has to stand aside.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
