package core

import (
	"reflect"
	"sync"
	"testing"

	"citymesh/internal/sim"
)

// Concurrent sends share one Network — and with it the mesh's
// lazily built adjacency, the flattened union-find, the atomic message-id
// counter, the simulation engine and the lazily created parked store. This
// stress test drives every one of those shared paths from many goroutines
// at once; it exists to fail under `go test -race` if any of them regresses
// to unsynchronized mutation, and to fail anywhere if a run's result
// depends on what else runs on the Network.
func TestConcurrentSendsShareOneNetwork(t *testing.T) {
	n := smallNetwork(t, 3)
	pairs, err := n.RandomPairs(7, 16)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := func(i int) sim.Config {
		c := sim.DefaultConfig()
		c.Seed = int64(i + 1)
		return c
	}
	send := func(i int) (sim.Result, bool) {
		res, err := n.Send(pairs[i][0], pairs[i][1], nil, simCfg(i))
		return res.Sim, err == nil
	}

	// Serial reference pass: each send with nothing else running.
	want := make([]sim.Result, len(pairs))
	sent := make([]bool, len(pairs))
	for i := range pairs {
		want[i], sent[i] = send(i)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	results := make([][]sim.Result, goroutines)
	oks := make([][]bool, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i, p := range pairs {
				// Exercise the concurrent query surface alongside the send.
				n.Reachable(p[0], p[1])
				_, _ = n.Mesh.MinTransmissions(p[0], p[1])
				res, ok := send(i)
				results[g] = append(results[g], res)
				oks[g] = append(oks[g], ok)
				// The ladder mints packets through the same atomic counter
				// and the parked store path.
				rc := DefaultReliableConfig()
				rc.Seed = int64(i + 1)
				_, _ = n.SendReliable(p[0], p[1], nil, simCfg(i), rc)
			}
			n.ParkedStore() // lazy-init under contention
		}(g)
	}
	wg.Wait()

	// Same pair + same seed must give the whole serial result in every
	// goroutine, Decisions included: randomness comes from the config
	// seed, and per-run state from the run itself, never from shared
	// network state.
	for g := 0; g < goroutines; g++ {
		for i := range pairs {
			if oks[g][i] != sent[i] {
				t.Fatalf("goroutine %d send %d: ok=%v, serial ok=%v", g, i, oks[g][i], sent[i])
			}
			if got := results[g][i]; !reflect.DeepEqual(got, want[i]) {
				t.Errorf("goroutine %d send %d diverged from the serial run:\n got %+v\nwant %+v", g, i, got, want[i])
			}
		}
	}

	// Message ids must all be distinct despite concurrent allocation.
	if got := n.msgSeq.Load(); got == 0 {
		t.Fatal("no packets were minted")
	}
}
