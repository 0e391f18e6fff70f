// Package splitmix holds the tree's one 64-bit mixer, the SplitMix64
// finalizer. Task seeds, message ids, federation tie-breaks and the
// open-addressed tables' hashes all spread their keys through Mix; each
// caller keeps its own seeding.
package splitmix

// Mix is the SplitMix64 finalizer: a bijection on uint64 in which every
// input bit affects every output bit.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
