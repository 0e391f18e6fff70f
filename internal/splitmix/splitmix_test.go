package splitmix

import "testing"

// TestMixMatchesSplitMix64 checks Mix against the first outputs of the
// SplitMix64 generator seeded with 0, whose state advances by the golden
// gamma 0x9e3779b97f4a7c15 before each mix.
func TestMixMatchesSplitMix64(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	state := uint64(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		state += gamma
		if got := Mix(state); got != want {
			t.Errorf("output %d = %#x, want %#x", i, got, want)
		}
	}
	if Mix(0) != 0 {
		t.Error("Mix(0) != 0")
	}
}
