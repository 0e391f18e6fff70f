package agent

import (
	"sync"

	"citymesh/internal/mesh"
	"citymesh/internal/osm"
)

// Hub wires a set of agents together in-process using the mesh adjacency as
// the radio: a broadcast from agent i is handed to every agent within
// transmission range. Deliveries run on a single worker goroutine fed by an
// unbounded queue, so rebroadcast cascades neither recurse nor deadlock.
type Hub struct {
	agents []*Agent
	adj    [][]int32
	failed mesh.NodeSet

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []delivery
	closed  bool
	pending int
	idle    *sync.Cond
	worker  sync.WaitGroup
}

type delivery struct {
	to    int
	frame []byte
}

// HubConfig tunes hub construction beyond the defaults of NewHub.
type HubConfig struct {
	// Failed marks AP ids whose radios are dead for the whole run: a
	// failed AP neither receives nor (therefore) rebroadcasts anything.
	// It is the same set type as the simulator's Config.FailedSet, so
	// parity runs drive one fault injection through both worlds.
	Failed mesh.NodeSet
}

// NewHub builds one agent per AP in the mesh and connects them. Callers
// retrieve agents with Agent(i) (indexed by AP id).
func NewHub(m *mesh.Mesh, city *osm.City) *Hub {
	return NewHubWithConfig(m, city, HubConfig{})
}

// NewHubWithConfig is NewHub with explicit options.
func NewHubWithConfig(m *mesh.Mesh, city *osm.City, cfg HubConfig) *Hub {
	h := &Hub{adj: m.Adjacency(), failed: cfg.Failed}
	h.cond = sync.NewCond(&h.mu)
	h.idle = sync.NewCond(&h.mu)
	h.agents = make([]*Agent, m.NumAPs())
	for i, ap := range m.APs {
		a := New(Config{ID: i, Pos: ap.Pos, Building: ap.Building, City: city}, nil)
		a.Attach(&hubTransport{hub: h, id: i})
		h.agents[i] = a
	}
	h.worker.Add(1)
	go h.run()
	return h
}

// run drains the delivery queue until Close.
func (h *Hub) run() {
	defer h.worker.Done()
	for {
		h.mu.Lock()
		for len(h.queue) == 0 && !h.closed {
			h.cond.Wait()
		}
		if len(h.queue) == 0 && h.closed {
			h.mu.Unlock()
			return
		}
		d := h.queue[0]
		h.queue = h.queue[1:]
		h.mu.Unlock()

		h.agents[d.to].HandleFrame(d.frame)

		h.mu.Lock()
		h.pending--
		if h.pending == 0 {
			h.idle.Broadcast()
		}
		h.mu.Unlock()
	}
}

// Agent returns the agent for AP id.
func (h *Hub) Agent(id int) *Agent { return h.agents[id] }

// NumAgents returns the number of agents.
func (h *Hub) NumAgents() int { return len(h.agents) }

// Flush blocks until every queued delivery — including those enqueued by
// rebroadcasts during the flush — has been handled.
func (h *Hub) Flush() {
	h.mu.Lock()
	for h.pending > 0 {
		h.idle.Wait()
	}
	h.mu.Unlock()
}

// Close stops delivery after draining outstanding frames.
func (h *Hub) Close() {
	h.Flush()
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
	h.worker.Wait()
}

// hubTransport broadcasts by enqueueing a delivery per neighbor.
type hubTransport struct {
	hub *Hub
	id  int
}

// Broadcast implements Transport.
func (t *hubTransport) Broadcast(frame []byte) error {
	h := t.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	for _, n := range h.adj[t.id] {
		if h.failed.Contains(int(n)) {
			continue
		}
		// Copy per receiver: agents may retain payload slices.
		f := append([]byte(nil), frame...)
		h.queue = append(h.queue, delivery{to: int(n), frame: f})
		h.pending++
	}
	h.cond.Signal()
	return nil
}

// Close implements Transport; the hub owns the shared state.
func (t *hubTransport) Close() error { return nil }
