package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"citymesh/internal/core"
	"citymesh/internal/postbox"
	"citymesh/internal/session"
	"citymesh/internal/sim"
	"citymesh/internal/stats"
	"citymesh/internal/trafficgen"
)

// The flash crowd: clients of sessServices APs submit, fetch and ack on the
// services' virtual clock, one tick a second. The base rate follows a day
// curve; at half-time a crowd multiplies it and every send becomes a burst
// of the same message, as people press send again. Queues back up, the
// admission tier rises, and clients whose device class cannot afford the
// proof of work are refused: the reject is the cheap path of the layer.
const (
	sessServices   = 32
	sessClients    = 64 // per service
	sessTemplates  = 8  // distinct messages per client and lap
	sessTicks      = 128
	sessBaseRate   = 0.05 // sends per client and second before the crowd
	sessFlashMul   = 4
	sessFlashBurst = 3
	sessFetchEvery = 4 // ticks between a client's polls
	sessDrain      = 3 // messages a service forwards per tick
	sessQueueCap   = 32
	// The difficulties are set below the defaults (8 and 12 bits) so that
	// solving every message of the capable classes in set-up takes well
	// under a second; checking a proof costs the service one hash at any
	// difficulty.
	sessPowCongested = 4
	sessPowOverload  = 7
	sessLegacyFrac   = 0.2 // solve nothing
	sessMidFrac      = 0.5 // solve the congested tier's proof
)

// sessMessage is one message a client may submit, its proof of work solved
// ahead for the best tier the client's device class can afford.
type sessMessage struct {
	dst   int
	to    postbox.Address
	nonce uint64
	body  []byte
}

type sessClient struct {
	id      uint64
	home    int
	addr    postbox.Address
	msgs    [sessTemplates]sessMessage
	lastAck uint64
}

// sessSend is one scheduled send: a burst of one client's message.
type sessSend struct {
	client, msg, burst int
}

// loopback carries a drained message straight into the destination
// service's postbox store: no mesh, so the session and postbox layers are
// all the workload times.
type loopback struct {
	stores []*postbox.Store
	tr     *tracer
}

func (l *loopback) Forward(m *session.Pending, now float64) session.Outcome {
	l.tr.begin(spPostboxPut)
	l.stores[m.Dst].Put(m.To, m.Payload, false)
	l.tr.end()
	return session.Outcome{Delivered: true}
}

type sessionWorkload struct {
	opt   options
	ticks int

	clients  []sessClient
	schedule [][]sessSend // by tick
	services []*session.Service
	fwd      loopback

	// first lap's queue statistics, and the messages drained while traced
	queueMax int
	waits    []float64
	drained  int
}

func newSessionWorkload(o options) *sessionWorkload {
	return &sessionWorkload{opt: o, ticks: o.size(sessTicks)}
}

// Frames take a few microseconds, so reading the clock around every one
// would be a tenth of the work.
func (w *sessionWorkload) sampleEvery() int { return 16 }

func clientAddr(id uint64) postbox.Address {
	var a postbox.Address
	binary.BigEndian.PutUint64(a[:], id^0xA5A5A5A5A5A5A5A5)
	return a
}

// build makes the services and attaches every client, through the wire.
func (w *sessionWorkload) build(st *steps) error {
	st.do("session.new", func() {
		w.services = make([]*session.Service, sessServices)
		w.fwd.stores = make([]*postbox.Store, sessServices)
		for b := range w.services {
			w.services[b] = session.New(session.Config{
				Building: b, QueueCap: sessQueueCap,
				PowBitsCongested: sessPowCongested, PowBitsOverload: sessPowOverload,
			})
			w.fwd.stores[b] = w.services[b].Store()
		}
	})
	var err error
	st.do("session.attach", func() {
		for b := 0; b < sessServices && err == nil; b++ {
			for c := 0; c < sessClients && err == nil; c++ {
				id := uint64(b*sessClients + c + 1)
				_, err = w.exchange(nil, w.services[b], session.Msg{Type: session.TAttach, ClientID: id, Addr: clientAddr(id)}, 0)
			}
		}
	})
	return err
}

func (w *sessionWorkload) generate() error {
	rng := rand.New(rand.NewSource(w.opt.seed))
	w.clients = make([]sessClient, sessServices*sessClients)
	for i := range w.clients {
		c := &w.clients[i]
		c.id, c.home = uint64(i+1), i/sessClients
		c.addr = clientAddr(c.id)
	}
	for i := range w.clients {
		c := &w.clients[i]
		bits := sessPowOverload
		if roll := rng.Float64(); roll < sessLegacyFrac {
			bits = 0
		} else if roll < sessLegacyFrac+sessMidFrac {
			bits = sessPowCongested
		}
		for k := range c.msgs {
			to := &w.clients[rng.Intn(len(w.clients))]
			body := make([]byte, payloadBytes)
			rng.Read(body)
			nonce, ok := session.SolvePoW(c.id, to.addr, body, bits, 0)
			if !ok {
				return fmt.Errorf("no %d-bit proof of work for client %d", bits, c.id)
			}
			c.msgs[k] = sessMessage{dst: to.home, to: to.addr, nonce: nonce, body: body}
		}
	}
	w.schedule = make([][]sessSend, w.ticks)
	next := make([]int, len(w.clients))
	for t := range w.schedule {
		rate := sessBaseRate * (0.6 + 0.4*math.Sin(2*math.Pi*float64(t)/float64(w.ticks)))
		burst := 1
		if t >= w.ticks/2 {
			rate *= sessFlashMul
			burst = sessFlashBurst
		}
		for ci := range w.clients {
			if rng.Float64() < rate {
				w.schedule[t] = append(w.schedule[t], sessSend{client: ci, msg: next[ci] % sessTemplates, burst: burst})
				next[ci]++
			}
		}
	}
	return nil
}

// prepare starts every lap from fresh services with every client attached.
func (w *sessionWorkload) prepare() error {
	for i := range w.clients {
		w.clients[i].lastAck = 0
	}
	return w.build(nil)
}

// exchange sends one client frame and decodes the reply. With r nil it is
// not an op of the lap (set-up's attach frames).
func (w *sessionWorkload) exchange(r *lapRec, svc *session.Service, m session.Msg, now float64) (session.Reply, error) {
	var tr *tracer
	if r != nil {
		tr = w.fwd.tr
		r.begin()
	}
	tr.nextOp()
	tr.begin(spFrame)
	tr.begin(spEncodeMsg)
	frame, err := session.EncodeMsg(m)
	tr.end()
	var out []byte
	tr.begin(spHandle)
	if err == nil {
		out = svc.Handle(frame, now)
	}
	handled := tr.end()
	var reply session.Reply
	tr.begin(spDecodeReply)
	if err == nil {
		reply, err = session.DecodeReply(out)
	}
	tr.end()
	switch {
	case m.Type == session.TSubmit && reply.Type == session.TReject:
		tr.rename(handled, spHandleSubmitReject)
	case m.Type == session.TSubmit:
		tr.rename(handled, spHandleSubmitAccept)
	case m.Type == session.TFetch:
		tr.rename(handled, spHandleFetch)
	case m.Type == session.TAck:
		tr.rename(handled, spHandleAck)
	}
	tr.end()
	if err != nil {
		err = fmt.Errorf("client %d, frame type %#x: %w", m.ClientID, m.Type, err)
	}
	if r != nil {
		// One word, hashed once: the op itself takes half a microsecond.
		word := int(m.Type) | int(reply.Type)<<8 | int(reply.Cause)<<16 | int(reply.Tier)<<24 |
			int(reply.PowBits)<<32 | len(reply.Msgs)<<40 | int(reply.Remaining)<<48
		r.end(outcome{hash: uint64(newHasher().int(word)), delivered: reply.Type != session.TReject}, err)
	}
	return reply, err
}

func (w *sessionWorkload) lap(r *lapRec, tr *tracer) {
	w.fwd.tr = tr
	for t, sends := range w.schedule {
		now := float64(t)
		for _, s := range sends {
			c := &w.clients[s.client]
			msg := &c.msgs[s.msg]
			for b := 0; b < s.burst; b++ {
				// A failed exchange is counted by r; the lap goes on.
				_, _ = w.exchange(r, w.services[c.home], session.Msg{
					Type: session.TSubmit, ClientID: c.id,
					Dst: msg.dst, To: msg.to, PowNonce: msg.nonce, Payload: msg.body,
				}, now)
			}
		}
		for _, svc := range w.services {
			if r.record {
				w.queueMax = max(w.queueMax, svc.QueueLen())
			}
			tr.begin(spDrain)
			delivered := svc.Drain(now, sessDrain, &w.fwd)
			tr.end()
			if tr != nil {
				w.drained += len(delivered)
			}
			if r.record {
				for _, d := range delivered {
					w.waits = append(w.waits, d.Latency)
				}
			}
		}
		for ci := t % sessFetchEvery; ci < len(w.clients); ci += sessFetchEvery {
			c := &w.clients[ci]
			svc := w.services[c.home]
			reply, err := w.exchange(r, svc, session.Msg{Type: session.TFetch, ClientID: c.id, AfterSeq: c.lastAck}, now)
			if err != nil || reply.Type != session.TDeliver || len(reply.Msgs) == 0 {
				continue
			}
			last := reply.Msgs[len(reply.Msgs)-1].Seq
			if _, err := w.exchange(r, svc, session.Msg{Type: session.TAck, ClientID: c.id, UpToSeq: last}, now); err == nil {
				c.lastAck = last
			}
		}
	}
}

// totals sums the services' counters of the last lap.
func (w *sessionWorkload) totals() (session.Stats, error) {
	var sum session.Stats
	for b, svc := range w.services {
		st := svc.Stats()
		if err := st.AccountingError(); err != nil {
			return sum, fmt.Errorf("service %d: %w", b, err)
		}
		sum.Offered += st.Offered
		sum.Accepted += st.Accepted
		sum.Deduped += st.Deduped
		sum.Delivered += st.Delivered
		sum.RejectedAdmission += st.RejectedAdmission
		sum.RejectedRateLimit += st.RejectedRateLimit
		sum.RejectedBufferFull += st.RejectedBufferFull
		sum.DroppedNetworkExhausted += st.DroppedNetworkExhausted
		sum.Malformed += st.Malformed
		sum.PeakTier = max(sum.PeakTier, st.PeakTier)
	}
	return sum, nil
}

// check balances every service's books: each offered message is in exactly
// one state, the loopback lost none, and no frame was malformed.
func (w *sessionWorkload) check() error {
	st, err := w.totals()
	switch {
	case err != nil:
		return err
	case st.Malformed != 0:
		return fmt.Errorf("services counted %d malformed frames", st.Malformed)
	case st.DroppedNetworkExhausted != 0:
		return fmt.Errorf("the loopback lost %d messages", st.DroppedNetworkExhausted)
	}
	return nil
}

func (w *sessionWorkload) layers(m metrics, tr *tracer, st *steps) error {
	attachMs, _, _ := st.cost("session.attach")
	m["session.attach_ns"] = attachMs * 1e6 / float64(len(w.clients))
	m["session.submit_accept_ns"] = tr.meanUs(spHandleSubmitAccept) * 1e3
	m["session.submit_reject_ns"] = tr.meanUs(spHandleSubmitReject) * 1e3
	m["session.fetch_ns"] = tr.meanUs(spHandleFetch) * 1e3
	m["session.ack_ns"] = tr.meanUs(spHandleAck) * 1e3
	if w.drained > 0 {
		m["session.drain_ns_per_msg"] = float64(tr.totals[spDrain].Total) / float64(w.drained)
	}
	tot, err := w.totals()
	if err != nil {
		return err
	}
	offered := float64(tot.Offered)
	m["session.rej_admission_frac"] = float64(tot.RejectedAdmission) / offered
	m["session.rej_ratelimit_frac"] = float64(tot.RejectedRateLimit) / offered
	m["session.rej_bufferfull_frac"] = float64(tot.RejectedBufferFull) / offered
	m["session.deduped"] = float64(tot.Deduped)
	m["session.peak_tier"] = float64(tot.PeakTier)
	m["session.queue_depth_max"] = float64(w.queueMax)
	m["session.queue_wait_s_p50"] = stats.Percentile(w.waits, 50)

	// The client's cost of admission, at the default difficulties, and the
	// service's cost of checking it.
	n := w.opt.size(20_000)
	msg := w.clients[0].msgs[0]
	m["session.check_pow_ns"], _ = timeCalls(n, func(i int) {
		session.CheckPoW(1, msg.to, msg.body, uint64(i), session.DefaultPowBitsOverload)
	})
	solve := func(bits, n int) float64 {
		ns, _ := timeCalls(n, func(i int) { session.SolvePoW(uint64(i), msg.to, msg.body, bits, 0) })
		return ns / 1e3
	}
	m["session.solve_pow_us_8bit"] = solve(session.DefaultPowBitsCongested, w.opt.size(400))
	m["session.solve_pow_us_12bit"] = solve(session.DefaultPowBitsOverload, w.opt.size(400)/8)

	if err := postboxLayers(m, n, msg.body); err != nil {
		return err
	}
	return trafficgenLayers(m)
}

// postboxLayers times the store on its own: a put, a poll that finds one new
// message, and the ack that removes it; then puts into a store that logs to
// a directory. The disk is not a real one, so no fsync is timed.
func postboxLayers(m metrics, n int, body []byte) error {
	const boxes = 1024
	addrs := make([]postbox.Address, boxes)
	for i := range addrs {
		addrs[i] = clientAddr(uint64(i))
	}
	store := postbox.NewStore()
	seqs := make([]uint64, n)
	m["postbox.put_ns"], _ = timeCalls(n, func(i int) { seqs[i] = store.Put(addrs[i%boxes], body, false).Seq })
	m["postbox.retrieve_ns"], _ = timeCalls(n, func(i int) { store.Retrieve(addrs[i%boxes], seqs[i]-1, 0) })
	m["postbox.ack_ns"], _ = timeCalls(n, func(i int) { store.Ack(addrs[i%boxes], seqs[i]) })

	dir, err := os.MkdirTemp("", "citymesh-bench-postbox")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	logged, err := postbox.OpenDir(dir)
	if err != nil {
		return err
	}
	puts := max(n/10, 16)
	before := logged.LogBytes()
	m["postbox.persist_put_ns"], _ = timeCalls(puts, func(i int) { logged.Put(addrs[i%boxes], body, false) })
	m["postbox.log_bytes_per_put"] = float64(logged.LogBytes()-before) / float64(puts)
	return logged.Close()
}

// trafficgenLayers runs the repo's own closed-loop generator once on the
// town and at the load of the trafficgen row of BENCH_sim.json, for
// continuity with it. Most of its time is SendReliable and client-side
// proof of work, which is why it cannot stand in for this workload.
func trafficgenLayers(m metrics) error {
	n, err := core.FromSpec(hubSpec(), core.DefaultConfig())
	if err != nil {
		return err
	}
	cfg := trafficgen.Config{Users: 40, APs: 6, Ticks: 24, FlashMultiplier: 4, Seed: 1}
	var runs []float64
	var rep trafficgen.Report
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if rep, err = trafficgen.Run(n, sim.DefaultConfig(), cfg); err != nil {
			return err
		}
		runs = append(runs, time.Since(t0).Seconds())
	}
	m["trafficgen.run_s"] = stats.Median(runs)
	m["trafficgen.reject_rate"] = rep.RejectRate()
	return nil
}
