package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"citymesh/internal/agent"
	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/fwd"
	"citymesh/internal/geo"
	"citymesh/internal/packet"
)

// townSeed fixes the small town every seed's waves cross.
const townSeed = 1

// agentDedupCap is set explicitly: a default agent preallocates two maps of
// 64k entries, which is megabytes per AP. A lap sends more messages than
// this, so the FIFO eviction of the dedup sets runs.
const agentDedupCap = 4096

// waveStep is how far the agents' clock moves per wave: far enough that the
// per-neighbour token buckets never run dry on honest traffic.
const waveStep = 10 * time.Millisecond

// radio is the benchmark's own medium: a single-goroutine FIFO that hands a
// broadcast frame to every mesh neighbour of the sender.
type radio struct {
	adj   [][]int32
	queue []radioFrame
	sent  int // broadcasts
}

type radioFrame struct {
	to, from int32
	frame    []byte
}

// radioPort is one agent's transport onto the radio.
type radioPort struct {
	r  *radio
	id int32
}

func (p radioPort) Broadcast(frame []byte) error {
	p.r.sent++
	for _, n := range p.r.adj[p.id] {
		p.r.queue = append(p.r.queue, radioFrame{to: n, from: p.id, frame: frame})
	}
	return nil
}

func (radioPort) Close() error { return nil }

// framesWorkload is live-frames: one live agent per AP of a small town,
// message waves injected at a source AP and carried by the agents'
// frame handlers alone. packet, fwd and agent do all the work; the
// building graph and the simulator do none while the clock runs.
type framesWorkload struct {
	opt  options
	grid int // a lap is about grid^4 waves

	net    *core.Network
	agents []*agent.Agent
	names  []string // "ap-<id>", the source each agent sees a neighbour as
	radio  *radio
	now    time.Time

	hdrs    []packet.Header // one planned route per wave of a lap
	srcAP   []int32
	payload []byte
	wave    uint64

	delivered bool // set by the destination building's agents
	dstOfWave int
	injected  int
}

func newFramesWorkload(o options, grid int) *framesWorkload {
	return &framesWorkload{opt: o, grid: o.grid(grid), payload: make([]byte, payloadBytes)}
}

func (w *framesWorkload) sampleEvery() int { return 1 }

func (w *framesWorkload) build(st *steps) error {
	n, err := buildNetwork(citygen.SmallTestSpec(townSeed), st)
	if err != nil {
		return err
	}
	w.net = n
	w.now = time.Unix(0, 0)
	w.injected = 0
	st.do("agent.new", func() {
		w.radio = &radio{adj: n.Mesh.Adjacency()}
		w.agents = make([]*agent.Agent, n.Mesh.NumAPs())
		w.names = make([]string, len(w.agents))
		for i, ap := range n.Mesh.APs {
			a := agent.New(agent.Config{
				ID: i, Pos: ap.Pos, Building: ap.Building, City: n.City,
				DedupCap: agentDedupCap,
				Clock:    func() time.Time { return w.now },
			}, radioPort{r: w.radio, id: int32(i)})
			building := ap.Building
			a.OnDeliver(func(p *packet.Packet) {
				if building == w.dstOfWave {
					w.delivered = true
				}
			})
			w.agents[i] = a
			w.names[i] = fmt.Sprintf("ap-%d", i)
		}
	})
	return nil
}

func (w *framesWorkload) generate() error {
	// Routes are planned here, so the timed phase runs no Dijkstra. The town
	// has islands the mesh does not reach; a wave is sent where the map
	// predicts a route and the mesh connects the two buildings.
	n := w.net
	pairs := stratifiedPairs(n.City, w.grid, w.opt.seed, func(src, dst int) bool {
		_, err := n.PlanRoute(src, dst)
		return err == nil && n.Reachable(src, dst)
	})
	w.hdrs, w.srcAP = w.hdrs[:0], w.srcAP[:0]
	for _, p := range pairs {
		route, err := n.PlanRoute(p[0], p[1])
		if err != nil {
			return err
		}
		pkt, err := n.NewPacket(route, nil)
		if err != nil {
			return err
		}
		w.hdrs = append(w.hdrs, pkt.Header)
		w.srcAP = append(w.srcAP, n.Mesh.APsInBuilding(p[0])[0])
	}
	return nil
}

func (w *framesWorkload) prepare() error { return nil }

// msgID gives every wave of the run its own message id.
func (w *framesWorkload) msgID() uint64 {
	w.wave++
	x := uint64(w.opt.seed)*0x9e3779b97f4a7c15 + w.wave
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func (w *framesWorkload) lap(r *lapRec, tr *tracer) {
	for i := range w.hdrs {
		pkt := &packet.Packet{Header: w.hdrs[i], Payload: w.payload}
		pkt.Header.MsgID = w.msgID()
		w.now = w.now.Add(waveStep)
		w.delivered, w.dstOfWave = false, pkt.Header.Dst()
		sentBefore := w.radio.sent
		r.begin()
		handled, err := w.runWave(w.agents[w.srcAP[i]], pkt, tr)
		w.injected++
		o := outcome{
			delivered: w.delivered,
			tx:        w.radio.sent - sentBefore,
			hdrBytes:  pkt.Header.EncodedLen(),
		}
		o.hash = uint64(newHasher().bool(o.delivered).int(o.tx).int(handled))
		r.end(o, err)
	}
}

// runWave injects pkt at src and hands frames on, first in first out,
// until the wave dies out. It returns the number of frames handled.
func (w *framesWorkload) runWave(src *agent.Agent, pkt *packet.Packet, tr *tracer) (int, error) {
	tr.nextOp()
	tr.begin(spWave)
	defer tr.end()
	tr.begin(spInject)
	err := src.Inject(pkt)
	tr.end()
	q := w.radio
	handled := 0
	for ; handled < len(q.queue); handled++ {
		f := q.queue[handled]
		tr.begin(spHandleFrame)
		w.agents[f.to].HandleFrameFrom(w.names[f.from], f.frame)
		tr.end()
	}
	q.queue = q.queue[:0]
	return handled, err
}

// totals sums the agents' counters.
func (w *framesWorkload) totals() (st agent.Stats, decisions uint64) {
	for _, a := range w.agents {
		s := a.Stats()
		st.Received += s.Received
		st.Duplicates += s.Duplicates
		st.Rebroadcast += s.Rebroadcast
		st.Dropped += s.Dropped
		st.DroppedMalformed += s.DroppedMalformed
		st.DroppedOversized += s.DroppedOversized
		st.DroppedRateLimited += s.DroppedRateLimited
		st.DroppedReplayed += s.DroppedReplayed
		st.DroppedTampered += s.DroppedTampered
		st.PanicsRecovered += s.PanicsRecovered
		decisions += s.Decisions.Total()
	}
	return st, decisions
}

// check balances the agents' books: honest traffic is never dropped, the
// drop causes sum to the total, and every frame that was not a duplicate
// got exactly one kernel decision, as did every local injection.
func (w *framesWorkload) check() error {
	st, decisions := w.totals()
	causes := st.DroppedMalformed + st.DroppedOversized + st.DroppedRateLimited + st.DroppedReplayed + st.DroppedTampered
	switch {
	case st.Dropped != causes:
		return fmt.Errorf("agents dropped %d frames but the causes sum to %d", st.Dropped, causes)
	case st.Dropped != 0:
		return fmt.Errorf("agents dropped %d honest frames (%+v)", st.Dropped, st)
	case st.PanicsRecovered != 0:
		return fmt.Errorf("agents recovered %d panics", st.PanicsRecovered)
	case uint64(st.Received-st.Duplicates) != decisions-uint64(w.injected):
		return fmt.Errorf("agents received %d frames, %d duplicates, but the kernels decided %d times for %d injections",
			st.Received, st.Duplicates, decisions, w.injected)
	case st.Rebroadcast != w.radio.sent:
		return fmt.Errorf("agents count %d rebroadcasts, the radio %d", st.Rebroadcast, w.radio.sent)
	}
	return nil
}

func (w *framesWorkload) layers(m metrics, tr *tracer, st *steps) error {
	networkSteps(m, st)
	tot, _ := w.totals()
	fresh := tot.Received - tot.Duplicates
	m["agent.dup_frac"] = float64(tot.Duplicates) / float64(tot.Received)
	m["agent.rebroadcast_frac"] = float64(tot.Rebroadcast-w.injected) / float64(fresh)
	m["agent.dropped"] = float64(tot.Dropped)
	// Every agent has a kernel of its own and decides once per message, so
	// its conduit cache never hits on this path: fwd.cache_hit_frac stays 0.

	hdr := w.hdrs[0]
	n := w.opt.size(20_000)
	in, out, err := w.inAndOut(hdr)
	if err != nil {
		return err
	}
	w.packetLayers(m, hdr, n)
	w.kernelLayers(m, hdr, n)
	if err := w.handlerLayers(m, hdr, n, in, out); err != nil {
		return err
	}
	m["agent.mb_per_agent_default"] = w.defaultAgentMB()
	if m["agent.hub_ns_per_frame"], err = hubNsPerFrame(w.opt); err != nil {
		return err
	}
	m["agent.udp_loopback_fps"], m["agent.udp_loss_frac"] = w.udpLoopback(hdr, n, in)
	return nil
}

func (w *framesWorkload) packetLayers(m metrics, hdr packet.Header, n int) {
	pkt := &packet.Packet{Header: hdr, Payload: w.payload}
	buf := make([]byte, 0, 256)
	m["packet.encode_ns"], m["packet.encode_allocs"] = timeCalls(n, func(i int) {
		_, _ = pkt.Encode(buf[:0]) // the header was encoded once already
	})
	frame, _ := pkt.Encode(nil)
	m["packet.decode_ns"], m["packet.decode_allocs"] = timeCalls(n, func(i int) {
		_, _ = packet.Decode(frame) // and decodes, being its own encoding
	})
}

// inAndOut finds an AP inside the conduit of hdr and one outside it.
func (w *framesWorkload) inAndOut(hdr packet.Header) (in, out int, err error) {
	region := fwd.BuildRegion(w.net.City, &hdr)
	if region == nil {
		return 0, 0, fmt.Errorf("no conduit for the first route")
	}
	in, out = -1, -1
	for i, ap := range w.net.Mesh.APs {
		inside := region.Contains(fwd.TestPoint(w.net.City, fwd.Self{Pos: ap.Pos, Building: ap.Building}))
		if inside && in < 0 {
			in = i
		}
		if !inside && out < 0 {
			out = i
		}
	}
	if in < 0 || out < 0 {
		return 0, 0, fmt.Errorf("the first route's conduit covers all of the town or none of it")
	}
	return in, out, nil
}

func (w *framesWorkload) kernelLayers(m metrics, hdr packet.Header, n int) {
	city := w.net.City
	m["conduit.region_build_ns"], _ = timeCalls(n, func(i int) { fwd.BuildRegion(city, &hdr) })
	region := fwd.BuildRegion(city, &hdr)
	aps := w.net.Mesh.APs
	m["conduit.region_contains_ns"], _ = timeCalls(n, func(i int) { region.Contains(aps[i%len(aps)].Pos) })

	k := fwd.NewKernel(fwd.Options{})
	ap := aps[len(aps)/2]
	self := fwd.Self{Pos: ap.Pos, Building: ap.Building}
	h := hdr
	m["fwd.decide_miss_ns"], _ = timeCalls(n, func(i int) {
		h.MsgID = uint64(i) + 1 // a new message: its conduit is not in the cache
		k.Decide(city, &h, self, false)
	})
	m["fwd.decide_hit_ns"], _ = timeCalls(n, func(i int) { k.Decide(city, &h, self, false) })
	strict := fwd.NewKernel(fwd.Options{MaxTTL: packet.DefaultTTL, StrictSanity: true})
	m["fwd.sanity_ns"], _ = timeCalls(n, func(i int) { strict.Sanity(city, &h, false) })
}

// nullPort swallows rebroadcasts of an agent measured on its own.
type nullPort struct{}

func (nullPort) Broadcast([]byte) error { return nil }
func (nullPort) Close() error           { return nil }

// handlerLayers times HandleFrameFrom on one agent for each kind of frame:
// new and inside the conduit, a duplicate, new and outside, and malformed.
func (w *framesWorkload) handlerLayers(m metrics, hdr packet.Header, n, in, out int) error {
	newAgent := func(ap int) *agent.Agent {
		now := time.Unix(0, 0)
		p := w.net.Mesh.APs[ap]
		return agent.New(agent.Config{
			ID: ap, Pos: p.Pos, Building: p.Building, City: w.net.City, DedupCap: agentDedupCap,
			// 5 ms per frame keeps one neighbour sending every frame below
			// the agent's default limit of 500 frames a second.
			Clock: func() time.Time { now = now.Add(5 * time.Millisecond); return now },
		}, nullPort{})
	}
	frames := make([][]byte, n)
	for i := range frames {
		pkt := packet.Packet{Header: hdr, Payload: w.payload}
		pkt.Header.MsgID = uint64(i) + 1
		var err error
		if frames[i], err = pkt.Encode(nil); err != nil {
			return err
		}
	}
	const sources = 8
	a := newAgent(in)
	m["agent.handle_new_ns"], m["agent.handle_new_allocs"] = timeCalls(n, func(i int) {
		a.HandleFrameFrom(w.names[i%sources], frames[i])
	})
	// The same message from another neighbour is a duplicate; from the same
	// neighbour it would be a replay.
	a = newAgent(in)
	known := min(n, agentDedupCap/2)
	for i := 0; i < known; i++ {
		a.HandleFrameFrom(w.names[0], frames[i])
	}
	m["agent.handle_dup_ns"], _ = timeCalls(known*(sources-1), func(i int) {
		a.HandleFrameFrom(w.names[1+i/known], frames[i%known])
	})
	if st := a.Stats(); st.Dropped != 0 {
		return fmt.Errorf("duplicate frames were dropped: %+v", st)
	}
	a = newAgent(out)
	m["agent.handle_out_ns"], _ = timeCalls(n, func(i int) {
		a.HandleFrameFrom(w.names[i%sources], frames[i])
	})
	if st := a.Stats(); st.OutOfConduit == 0 || st.Rebroadcast != 0 {
		return fmt.Errorf("the agent outside the conduit rebroadcast: %+v", st)
	}
	a = newAgent(in)
	m["agent.handle_malformed_ns"], _ = timeCalls(n, func(i int) {
		a.HandleFrameFrom(w.names[i%sources], frames[i][:10])
	})
	return nil
}

// defaultAgentMB is the live heap one agent with the default configuration
// holds, which is why no workload builds a default agent per AP of a city.
func (w *framesWorkload) defaultAgentMB() float64 {
	const k = 4
	before := heapAlloc()
	agents := make([]*agent.Agent, k)
	for i := range agents {
		p := w.net.Mesh.APs[i]
		agents[i] = agent.New(agent.Config{ID: i, Pos: p.Pos, Building: p.Building, City: w.net.City}, nil)
	}
	mb := (float64(heapAlloc()) - float64(before)) / k / (1 << 20)
	runtime.KeepAlive(agents)
	return mb
}

// hubSpec is a town of a few blocks: agent.NewHub makes default agents, so a
// hub over more than a few dozen APs would not fit in memory. It is also the
// town of the trafficgen row of BENCH_sim.json.
func hubSpec() citygen.Spec {
	spec, _ := citygen.Preset("gridtown")
	spec.Width, spec.Height = 260, 260
	spec.DowntownRect = geo.Rect{}
	return spec
}

// hubNsPerFrame is the time per received frame of the repo's own in-process
// transport, agent.Hub, whose worker goroutine and per-receiver frame copy
// the benchmark's radio leaves out.
func hubNsPerFrame(o options) (float64, error) {
	n, err := core.FromSpec(hubSpec(), core.DefaultConfig())
	if err != nil {
		return 0, err
	}
	pairs := stratifiedPairs(n.City, o.grid(4), o.seed, nil)
	hub := agent.NewHub(n.Mesh, n.City)
	defer hub.Close()
	t0 := time.Now()
	for _, p := range pairs {
		route, err := n.PlanRoute(p[0], p[1])
		if err != nil {
			continue
		}
		pkt, err := n.NewPacket(route, nil)
		if err != nil {
			return 0, err
		}
		if err := hub.Agent(int(n.Mesh.APsInBuilding(p[0])[0])).Inject(pkt); err != nil {
			return 0, err
		}
		hub.Flush()
	}
	elapsed := time.Since(t0)
	received := 0
	for i := 0; i < hub.NumAgents(); i++ {
		received += hub.Agent(i).Stats().Received
	}
	if received == 0 {
		return 0, fmt.Errorf("the hub's agents received nothing")
	}
	return float64(elapsed) / float64(received), nil
}

// udpLoopback sends n frames to one agent behind a UDPTransport over the
// loopback interface, a window at a time, and returns the frames handled
// per second and the share lost. Loopback is not a radio: the number says
// what the socket path costs on this host and is never an end-to-end metric.
// Where sockets are not allowed it returns zeros.
func (w *framesWorkload) udpLoopback(hdr packet.Header, n, in int) (fps, loss float64) {
	p := w.net.Mesh.APs[in]
	a := agent.New(agent.Config{
		ID: in, Pos: p.Pos, Building: p.Building, City: w.net.City, DedupCap: agentDedupCap,
		NeighborRate: -1, // one sender stands in for all neighbours
	}, nullPort{})
	var got atomic.Int64
	tr, err := agent.NewUDPTransport("127.0.0.1:0", func(src string, frame []byte) {
		a.HandleFrameFrom(src, frame)
		got.Add(1)
	})
	var conn *net.UDPConn
	if err == nil {
		defer tr.Close()
		conn, err = net.DialUDP("udp", nil, tr.Addr())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: no loopback UDP, agent.udp_* left at 0:", err)
		return 0, 0
	}
	defer conn.Close()

	const window = 32
	pkt := packet.Packet{Header: hdr, Payload: w.payload}
	var buf []byte
	sent := 0
	t0 := time.Now()
	for sent < n {
		for i := 0; i < window && sent < n; i++ {
			sent++
			pkt.Header.MsgID = uint64(sent)
			buf, _ = pkt.Encode(buf[:0]) // the header was encoded before
			if _, err := conn.Write(buf); err != nil {
				got.Add(1) // refused by the kernel: lost, and not waited for
				loss++
			}
		}
		// Wait for the window to be handled; a frame the socket dropped
		// never arrives, so give up on it after a few milliseconds.
		for deadline := time.Now().Add(5 * time.Millisecond); got.Load() < int64(sent) && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if missing := int64(sent) - got.Load(); missing > 0 {
			loss += float64(missing)
			got.Add(missing)
		}
	}
	elapsed := time.Since(t0).Seconds()
	return (float64(n) - loss) / elapsed, loss / float64(n)
}
