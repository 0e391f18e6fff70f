package core

import (
	"sync"
	"testing"

	"citymesh/internal/sim"
)

// Concurrent sends share one Network — and with it the mesh's
// lazily built adjacency, the flattened union-find, the atomic message-id
// counter, and the lazily created parked store. This stress test drives
// every one of those shared paths from many goroutines at once; it exists
// to fail under `go test -race` if any of them regresses to unsynchronized
// mutation.
func TestConcurrentSendsShareOneNetwork(t *testing.T) {
	n := smallNetwork(t, 3)
	pairs, err := n.RandomPairs(7, 16)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	results := make([][]SendResult, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i, p := range pairs {
				simCfg := sim.DefaultConfig()
				simCfg.Seed = int64(i + 1)
				// Exercise the concurrent query surface alongside the send.
				n.Reachable(p[0], p[1])
				_, _ = n.Mesh.MinTransmissions(p[0], p[1])
				res, err := n.Send(p[0], p[1], nil, simCfg)
				if err != nil {
					continue
				}
				results[g] = append(results[g], res)
				// The ladder mints packets through the same atomic counter
				// and the parked store path.
				rc := DefaultReliableConfig()
				rc.Seed = int64(i + 1)
				_, _ = n.SendReliable(p[0], p[1], nil, simCfg, rc)
			}
			n.ParkedStore() // lazy-init under contention
		}(g)
	}
	wg.Wait()

	// Same pair + same seed must give the same simulation outcome in every
	// goroutine: randomness comes from the config seed, never from shared
	// network state.
	for g := 1; g < goroutines; g++ {
		if len(results[g]) != len(results[0]) {
			t.Fatalf("goroutine %d completed %d sends, goroutine 0 completed %d",
				g, len(results[g]), len(results[0]))
		}
		for i := range results[g] {
			got, want := results[g][i].Sim, results[0][i].Sim
			if got.Delivered != want.Delivered || got.Broadcasts != want.Broadcasts ||
				got.Receptions != want.Receptions || got.DeliveryHops != want.DeliveryHops {
				t.Errorf("goroutine %d send %d diverged: %+v vs %+v", g, i, got, want)
			}
		}
	}

	// Message ids must all be distinct despite concurrent allocation.
	if got := n.msgSeq.Load(); got == 0 {
		t.Fatal("no packets were minted")
	}
}
