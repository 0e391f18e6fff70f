// Package trafficgen is a closed-loop deterministic user-traffic generator
// for the session layer. It models N users spread round-robin over a
// city's buildings, each attached to their home AP's session.Service,
// sending to random other users on a diurnal baseline rate until a
// post-disaster flash crowd multiplies the offered load (and makes senders
// bursty). The loop is closed: clients honor the AP's explicit
// backpressure, backing off for the advertised retry interval after a
// rejection and pre-solving the advertised proof-of-work difficulty when
// their device class can afford it.
//
// Everything is deterministic: one math/rand stream seeded from Config.Seed
// drives user behaviour in a fixed iteration order, per-message transport
// seeds derive from a SplitMix64 counter, and time is simulation seconds
// (ticks), so a run is a pure function of (network, sim config, Config) —
// the property the "overload" experiment's parallel sweep relies on.
package trafficgen

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"citymesh/internal/core"
	"citymesh/internal/postbox"
	"citymesh/internal/runner"
	"citymesh/internal/session"
	"citymesh/internal/sim"
	"citymesh/internal/stats"
)

// The simulated population and its habits, one fixed value each; the
// overload and floodfront goldens pin them.
const (
	// tickS is the tick duration in simulation seconds.
	tickS = 1.0
	// baseRate is the per-user baseline send rate, 0.1 msgs/sec,
	// modulated by a diurnal factor.
	baseRate = 0.1
	// flashBurst is the number of messages each send event becomes during
	// the flash crowd: people re-sending "are you ok?" repeatedly.
	flashBurst = 3
	// legacyFrac and midFrac split the population by proof-of-work
	// capability: legacy devices solve nothing, mid devices up to
	// midPowCap bits, the rest up to session.MaxPowBits.
	legacyFrac = 0.2
	midFrac    = 0.5
	midPowCap  = 8
	// fetchEvery is the tick interval between a user's fetch+ack polls.
	fetchEvery = 2
	// drainBudget is the number of messages forwarded per AP per tick: 4.
	drainBudget = 4
	// The per-AP session service is tuned for AP-scale queue dynamics at
	// traffic-generator scale: a small queue (apQueueCap, with apSendBufCap
	// per client) so tiers move within a short run, and a per-client bucket
	// (clientRate msgs/s, clientBurst deep) generous enough that aggregate
	// queue depth — not individual chattiness — drives the tier.
	apQueueCap   = 32
	apSendBufCap = 8
	clientRate   = 1.5
	clientBurst  = 4
)

// Config parameterizes one traffic run.
type Config struct {
	// Users is the total user population, assigned round-robin to the
	// populated buildings (default 150).
	Users int
	// APs is how many buildings host users (default 10, capped at the
	// city's building count). Concentrating the population is what makes
	// per-AP queue dynamics visible at simulation scale.
	APs int
	// Ticks is the run length in ticks of tickS seconds (default 90).
	Ticks int
	// FlashMultiplier multiplies the per-user rate from tick Ticks/2 on,
	// when the flash crowd starts (default 1 = no crowd); each send event
	// then becomes a burst of flashBurst messages.
	FlashMultiplier float64
	// Seed drives all generator randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = 150
	}
	if c.APs <= 0 {
		c.APs = 10
	}
	if c.Ticks <= 0 {
		c.Ticks = 90
	}
	if c.FlashMultiplier <= 0 {
		c.FlashMultiplier = 1
	}
	return c
}

// Report aggregates one run. The per-cause counters partition every
// offered message; AccountingError checks the books.
type Report struct {
	Users   int
	Ticks   int
	Offered uint64
	// Accepted entered an AP queue; Delivered reached a postbox store.
	Accepted  uint64
	Delivered uint64

	RejectedAdmission       uint64
	RejectedRateLimit       uint64
	RejectedBufferFull      uint64
	DroppedNetworkExhausted uint64

	// Fetched counts messages recipients actually pulled from their
	// postboxes (receive-side flow).
	Fetched uint64

	// LatencyP50/P99 are accepted-and-delivered end-to-end latencies in
	// seconds: queue wait plus transport backoff.
	LatencyP50 float64
	LatencyP99 float64
	// Throughput is delivered messages per simulated second.
	Throughput float64
	// Broadcasts is the total transmission cost of inter-AP forwarding.
	Broadcasts int64
	// PeakTier is the worst admission tier any AP reached.
	PeakTier session.Tier
	// FlushTicks is how many extra ticks it took to empty the queues
	// after the run; Residual is what still remained (0 unless the flush
	// cap was hit).
	FlushTicks int
	Residual   int
}

// RejectRate is the fraction of offered messages refused at admission
// time for any cause (the "admission-rejection rate" headline metric).
func (r Report) RejectRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.RejectedAdmission+r.RejectedRateLimit+r.RejectedBufferFull) / float64(r.Offered)
}

// AccountingError verifies that every offered message is attributed to
// exactly one outcome.
func (r Report) AccountingError() error {
	sum := r.Delivered + r.DroppedNetworkExhausted + uint64(r.Residual) +
		r.RejectedAdmission + r.RejectedRateLimit + r.RejectedBufferFull
	if r.Offered != sum {
		return fmt.Errorf("trafficgen: offered %d != outcomes %d (delivered %d, exhausted %d, residual %d, adm %d, rate %d, buf %d)",
			r.Offered, sum, r.Delivered, r.DroppedNetworkExhausted, r.Residual,
			r.RejectedAdmission, r.RejectedRateLimit, r.RejectedBufferFull)
	}
	if r.Accepted != r.Delivered+r.DroppedNetworkExhausted+uint64(r.Residual) {
		return fmt.Errorf("trafficgen: accepted %d != delivered %d + exhausted %d + residual %d",
			r.Accepted, r.Delivered, r.DroppedNetworkExhausted, r.Residual)
	}
	return nil
}

type user struct {
	id      uint64
	home    int
	addr    postbox.Address
	powCap  int
	lastAck uint64
	// retryAt is the closed-loop backpressure state: no sends before it.
	retryAt float64
}

func userAddr(id uint64) postbox.Address {
	var a postbox.Address
	binary.BigEndian.PutUint64(a[:], id^0xA5A5A5A5A5A5A5A5)
	return a
}

// netForwarder drains one AP's queue onto the mesh via the escalation
// ladder, depositing delivered payloads in the destination AP's postbox
// store. Per-message seeds derive from a counter so transport randomness
// is independent of wall behaviour but fully reproducible.
type netForwarder struct {
	n      *core.Network
	simCfg sim.Config
	rcfg   core.ReliableConfig
	seed   int64
	ctr    int
	src    int
	stores map[int]*postbox.Store
}

func (f *netForwarder) Forward(m *session.Pending, now float64) session.Outcome {
	f.ctr++
	seed := runner.TaskSeed(f.seed, f.ctr)
	sc := f.simCfg
	sc.Seed = seed
	rc := f.rcfg
	rc.Seed = seed
	rr, err := f.n.SendReliable(f.src, m.Dst, m.Payload, sc, rc)
	if err != nil || !rr.Delivered {
		return session.Outcome{Broadcasts: rr.TotalBroadcasts}
	}
	if st := f.stores[m.Dst]; st != nil {
		st.Put(m.To, m.Payload, false)
	}
	return session.Outcome{Delivered: true, Latency: rr.TotalBackoff, Broadcasts: rr.TotalBroadcasts}
}

// Run executes one deterministic traffic run against an already-built
// network. simCfg carries the disaster (fault injection applied by the
// caller); its Seed is overridden per message.
func Run(n *core.Network, simCfg sim.Config, cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	nb := n.City.NumBuildings()
	if nb == 0 {
		return Report{}, fmt.Errorf("trafficgen: city has no buildings")
	}
	rcfg := core.DefaultReliableConfig()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Populated buildings: cfg.APs homes spread evenly across the
	// building index space.
	naps := cfg.APs
	if naps > nb {
		naps = nb
	}
	homes := make([]int, naps)
	for i := range homes {
		homes[i] = i * nb / naps
	}

	// Population: round-robin homes, device-class capability mix.
	users := make([]*user, cfg.Users)
	for i := range users {
		u := &user{id: uint64(i + 1), home: homes[i%naps]}
		u.addr = userAddr(u.id)
		switch roll := rng.Float64(); {
		case roll < legacyFrac:
			u.powCap = 0
		case roll < legacyFrac+midFrac:
			u.powCap = midPowCap
		default:
			u.powCap = session.MaxPowBits
		}
		users[i] = u
	}

	// One session service per populated building, in sorted order so every
	// per-tick iteration is deterministic.
	services := make(map[int]*session.Service)
	stores := make(map[int]*postbox.Store)
	forwarders := make(map[int]*netForwarder)
	var buildings []int
	for _, u := range users {
		if _, ok := services[u.home]; ok {
			continue
		}
		svc := session.New(session.Config{
			Building: u.home, QueueCap: apQueueCap, SendBufCap: apSendBufCap,
			ClientRate: clientRate, ClientBurst: clientBurst,
		})
		services[u.home] = svc
		stores[u.home] = svc.Store()
		buildings = append(buildings, u.home)
	}
	sort.Ints(buildings)
	for _, b := range buildings {
		forwarders[b] = &netForwarder{
			n: n, simCfg: simCfg, rcfg: rcfg, src: b, stores: stores,
			seed: runner.TaskSeed(cfg.Seed, 1_000_000+b),
		}
	}

	// Attach everyone through the wire path.
	for _, u := range users {
		frame, err := session.EncodeMsg(session.Msg{Type: session.TAttach, ClientID: u.id, Addr: u.addr})
		if err != nil {
			return Report{}, err
		}
		services[u.home].Handle(frame, 0)
	}

	rep := Report{Users: cfg.Users, Ticks: cfg.Ticks}
	var latencies []float64

	fetchUser := func(u *user, now float64) {
		svc := services[u.home]
		ff, _ := session.EncodeMsg(session.Msg{Type: session.TFetch, ClientID: u.id, AfterSeq: u.lastAck})
		out := svc.Handle(ff, now)
		if out == nil {
			return
		}
		reply, err := session.DecodeReply(out)
		if err != nil || reply.Type != session.TDeliver || len(reply.Msgs) == 0 {
			return
		}
		last := reply.Msgs[len(reply.Msgs)-1].Seq
		af, _ := session.EncodeMsg(session.Msg{Type: session.TAck, ClientID: u.id, UpToSeq: last})
		svc.Handle(af, now)
		u.lastAck = last
	}

	drainAll := func(now float64) {
		for _, b := range buildings {
			for _, d := range services[b].Drain(now, drainBudget, forwarders[b]) {
				if d.Delivered {
					latencies = append(latencies, d.Latency)
				}
				rep.Broadcasts += int64(d.Broadcasts)
			}
		}
	}

	flashAt := cfg.Ticks / 2
	for tick := 0; tick < cfg.Ticks; tick++ {
		now := float64(tick) * tickS
		flash := tick >= flashAt
		// Diurnal modulation: a smooth day curve over the run.
		diurnal := 0.6 + 0.4*math.Sin(2*math.Pi*float64(tick)/float64(cfg.Ticks))
		rate := baseRate * diurnal
		burst := 1
		if flash {
			rate *= cfg.FlashMultiplier
			burst = flashBurst
		}
		for ui, u := range users {
			if u.retryAt > now {
				continue
			}
			if rng.Float64() >= rate*tickS {
				continue
			}
			svc := services[u.home]
			for b := 0; b < burst; b++ {
				// Random distinct recipient.
				vi := ui
				if len(users) > 1 {
					for vi == ui {
						vi = rng.Intn(len(users))
					}
				}
				v := users[vi]
				payload := []byte(fmt.Sprintf("u%d>u%d t%d b%d", u.id, v.id, tick, b))
				_, bits, _ := svc.Advice(now)
				var nonce uint64
				if int(bits) > 0 && int(bits) <= u.powCap {
					nonce, _ = session.SolvePoW(u.id, v.addr, payload, int(bits), 0)
				}
				frame, err := session.EncodeMsg(session.Msg{
					Type: session.TSubmit, ClientID: u.id,
					Dst: v.home, To: v.addr, PowNonce: nonce, Payload: payload,
				})
				if err != nil {
					return Report{}, err
				}
				out := svc.Handle(frame, now)
				reply, err := session.DecodeReply(out)
				if err != nil {
					return Report{}, fmt.Errorf("trafficgen: bad reply: %w", err)
				}
				if reply.Type == session.TReject {
					// Closed loop: honor the advertised backoff.
					u.retryAt = now + float64(reply.RetryAfterMs)/1000
					break
				}
			}
		}
		drainAll(now)
		if tick%fetchEvery == 0 {
			for _, u := range users {
				fetchUser(u, now)
			}
		}
	}

	// Flush: no new submissions, keep draining until every queue is empty
	// (bounded — each tick strictly shrinks a non-empty queue).
	maxFlush := 0
	for _, b := range buildings {
		if q := services[b].QueueLen(); q > 0 {
			need := (q + drainBudget - 1) / drainBudget
			if need > maxFlush {
				maxFlush = need
			}
		}
	}
	for ft := 0; ft < maxFlush; ft++ {
		now := float64(cfg.Ticks+ft) * tickS
		drainAll(now)
		rep.FlushTicks++
	}
	finalNow := float64(cfg.Ticks+rep.FlushTicks) * tickS
	for _, u := range users {
		fetchUser(u, finalNow)
	}

	for _, b := range buildings {
		st := services[b].Stats()
		rep.Offered += st.Offered
		rep.Accepted += st.Accepted
		rep.Delivered += st.Delivered
		rep.RejectedAdmission += st.RejectedAdmission
		rep.RejectedRateLimit += st.RejectedRateLimit
		rep.RejectedBufferFull += st.RejectedBufferFull
		rep.DroppedNetworkExhausted += st.DroppedNetworkExhausted
		rep.Fetched += st.Fetched
		rep.Residual += st.Queued
		if st.PeakTier > rep.PeakTier {
			rep.PeakTier = st.PeakTier
		}
	}
	if len(latencies) > 0 {
		rep.LatencyP50 = stats.Percentile(latencies, 50)
		rep.LatencyP99 = stats.Percentile(latencies, 99)
	}
	if d := float64(cfg.Ticks) * tickS; d > 0 {
		rep.Throughput = float64(rep.Delivered) / d
	}
	if err := rep.AccountingError(); err != nil {
		return rep, err
	}
	return rep, nil
}
