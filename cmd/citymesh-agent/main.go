// Command citymesh-agent runs one AP software agent over UDP — the unit of
// the paper's proposed real-world deployment (§3: "APs running a small
// software agent"; §6: a to-scale testbed). Each agent loads the city map,
// listens on a UDP socket, and forwards CityMesh frames according to the
// conduit rule. Radio adjacency is configured explicitly with -neighbors,
// standing in for physical proximity.
//
// A small testbed is three shells:
//
//	citygen -preset boston -o boston.osm
//	citymesh-agent -city boston.osm -listen 127.0.0.1:7001 -building 12
//	citymesh-agent -city boston.osm -listen 127.0.0.1:7002 -building 57 \
//	    -neighbors 127.0.0.1:7001
//
// and a sender injecting via -send (see examples/udp-testbed for a fully
// scripted version).
//
// Operations:
//
//   - -state-dir makes postboxes crash-safe: held messages are persisted
//     to an append-only log and survive an AP reboot.
//   - SIGTERM/SIGINT drain gracefully: beacons stop, the socket closes,
//     postbox state is synced to disk, a final status dump prints, exit 0.
//   - SIGUSR1 prints a status dump (per-cause drop counters, live neighbor
//     table, transport watchdog health, postbox totals) without stopping
//     the agent.
//   - -hello controls the liveness beacon period; -neighbor-rate and
//     -inbound-budget bound what a hostile or faulty peer can make this
//     agent do.
//   - -session-listen opens a second UDP socket speaking the user-session
//     protocol (internal/session): phones attach, submit under token-bucket
//     and proof-of-work admission, and fetch from the AP's postbox store.
//     A drain loop forwards queued messages onto the mesh at -session-drain
//     messages per second.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"citymesh/internal/agent"
	"citymesh/internal/core"
	"citymesh/internal/geo"
	"citymesh/internal/osm"
	"citymesh/internal/packet"
	"citymesh/internal/postbox"
	"citymesh/internal/session"
)

func main() {
	var (
		cityFile  = flag.String("city", "", "OSM XML city map (required)")
		listen    = flag.String("listen", "127.0.0.1:0", "UDP listen address")
		buildingF = flag.Int("building", -1, "dense building index hosting this AP (-1: relay)")
		neighbors = flag.String("neighbors", "", "comma-separated neighbor UDP addresses")
		send      = flag.String("send", "", "inject a message: dstBuilding:text (requires -building)")
		stats     = flag.Duration("stats", 10*time.Second, "stats print interval (0: off)")
		stateDir  = flag.String("state-dir", "", "directory for crash-safe postbox persistence (empty: in-memory)")
		hello     = flag.Duration("hello", agent.DefaultBeaconInterval, "HELLO liveness beacon interval (0: off)")
		nbrRate   = flag.Float64("neighbor-rate", agent.DefaultNeighborRate, "per-neighbor inbound frames/sec (negative: unlimited)")
		budget    = flag.Float64("inbound-budget", 4<<20, "global inbound byte budget, bytes/sec (0: unlimited)")
		maxTTL    = flag.Int("max-ttl", 0, "reject frames whose received TTL exceeds this (0: off); set to the network TTL to stop TTL-reset attacks")
		strictSan = flag.Bool("strict-sanity", false, "reject frames with conduit waypoints unmappable on this AP's map (corrupt route bytes)")

		sessListen = flag.String("session-listen", "", "UDP address for the user-session protocol (empty: disabled; requires -building)")
		sessDrain  = flag.Int("session-drain", 4, "session queue drain rate, messages/sec")
	)
	flag.Parse()

	if *cityFile == "" {
		fail(fmt.Errorf("-city is required"))
	}

	// Validate operator input before any heavy lifting, so a typo in
	// -neighbors or -send fails in milliseconds with every bad address
	// listed, instead of after the map parse.
	neighborAddrs, err := parseNeighbors(*neighbors)
	if err != nil {
		fail(err)
	}
	var sendDst int
	var sendText string
	if *send != "" {
		if *buildingF < 0 {
			fail(fmt.Errorf("-send requires -building"))
		}
		parts := strings.SplitN(*send, ":", 2)
		if len(parts) != 2 {
			fail(fmt.Errorf("-send wants dstBuilding:text"))
		}
		if _, err := fmt.Sscanf(parts[0], "%d", &sendDst); err != nil || sendDst < 0 {
			fail(fmt.Errorf("bad destination %q", parts[0]))
		}
		sendText = parts[1]
		if len(neighborAddrs) == 0 && sendDst != *buildingF {
			fail(fmt.Errorf("-send to building %d needs -neighbors; the message cannot leave this AP", sendDst))
		}
	}

	f, err := os.Open(*cityFile)
	if err != nil {
		fail(err)
	}
	netw, err := core.FromOSM(f, *cityFile, core.DefaultConfig())
	f.Close()
	if err != nil {
		fail(err)
	}
	city := netw.City

	// Crash-safe postbox store: with -state-dir, messages held for local
	// postboxes survive a reboot — the defining event of a disaster.
	var store *postbox.Store
	if *stateDir != "" {
		store, err = postbox.OpenDir(*stateDir)
		if err != nil {
			fail(fmt.Errorf("state-dir: %w", err))
		}
		boxes, msgs := store.Totals()
		fmt.Printf("citymesh-agent: restored %d messages in %d postboxes from %s\n",
			msgs, boxes, *stateDir)
	}

	pos := cityPos(city, *buildingF)
	a := agent.New(agent.Config{
		ID:                 0,
		Pos:                pos,
		Building:           *buildingF,
		City:               city,
		Store:              store,
		NeighborRate:       *nbrRate,
		InboundBytesPerSec: *budget,
		MaxTTL:             clampTTL(*maxTTL),
		StrictSanity:       *strictSan,
	}, nil)
	a.OnDeliver(func(p *packet.Packet) {
		fmt.Printf("DELIVERED msg=%016x from building %d: %q\n",
			p.Header.MsgID, p.Header.Src(), p.Payload)
	})
	tr, err := agent.NewUDPTransport(*listen, a.HandleFrameFrom)
	if err != nil {
		fail(err)
	}
	a.Attach(tr)
	fmt.Printf("citymesh-agent: listening on %s (building %d, pos %v)\n", tr.Addr(), *buildingF, pos)

	if len(neighborAddrs) > 0 {
		tr.SetNeighbors(neighborAddrs)
	}
	if *hello > 0 {
		a.StartBeacons(*hello)
	}

	start := time.Now()

	// User-session endpoint: a second socket for phones on this AP's
	// Wi-Fi, sharing the agent's postbox store so packet-path deliveries
	// and session fetches see the same boxes.
	var svc *session.Service
	var sessConn net.PacketConn
	sessStop := make(chan struct{})
	if *sessListen != "" {
		if *buildingF < 0 {
			fail(fmt.Errorf("-session-listen requires -building"))
		}
		svc = session.New(session.Config{Building: *buildingF, Store: a.Store()})
		sessConn, err = net.ListenPacket("udp", *sessListen)
		if err != nil {
			fail(fmt.Errorf("session-listen: %w", err))
		}
		fmt.Printf("citymesh-agent: session endpoint on %s (drain %d msg/s)\n",
			sessConn.LocalAddr(), *sessDrain)
		go sessionLoop(sessConn, svc, start)
		go sessionDrain(svc, &liveForwarder{netw: netw, a: a, src: *buildingF}, *sessDrain, start, sessStop)
	}
	if *send != "" {
		// Any failure along the send path — planning, encoding, or the
		// socket writes — is a hard error with a non-zero exit, never a
		// silent continue.
		route, err := netw.PlanRoute(*buildingF, sendDst)
		if err != nil {
			fail(fmt.Errorf("send: plan route: %w", err))
		}
		pkt, err := netw.NewPacket(route, []byte(sendText))
		if err != nil {
			fail(fmt.Errorf("send: encode: %w", err))
		}
		if err := a.Inject(pkt); err != nil {
			fail(fmt.Errorf("send: %w", err))
		}
		fmt.Printf("injected msg=%016x to building %d via %d waypoints\n",
			pkt.Header.MsgID, sendDst, len(route.Waypoints))
	}

	// Staleness window for the periodic neighbor count: three missed
	// beacons means the neighbor is gone.
	liveWindow := 3 * *hello
	if liveWindow <= 0 {
		liveWindow = 3 * agent.DefaultBeaconInterval
	}

	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGINT, syscall.SIGTERM)
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	var tick <-chan time.Time
	if *stats > 0 {
		t := time.NewTicker(*stats)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-term:
			// Graceful drain: stop beaconing and receiving, then make
			// postbox state durable before exiting.
			if sessConn != nil {
				close(sessStop)
				sessConn.Close()
			}
			if err := a.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "citymesh-agent: close:", err)
			}
			if store != nil {
				if err := store.Sync(); err != nil {
					fmt.Fprintln(os.Stderr, "citymesh-agent: state sync:", err)
				}
			}
			dumpStatus(a, tr, store, svc, start)
			if store != nil {
				if err := store.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "citymesh-agent: state close:", err)
				}
			}
			fmt.Println("citymesh-agent: drained, exiting")
			return
		case <-usr1:
			dumpStatus(a, tr, store, svc, start)
		case <-tick:
			st := a.Stats()
			fmt.Printf("stats: rx=%d dup=%d fwd=%d stored=%d dropped=%d (malformed=%d oversized=%d ratelimited=%d) neighbors=%d\n",
				st.Received, st.Duplicates, st.Rebroadcast, st.Stored, st.Dropped,
				st.DroppedMalformed, st.DroppedOversized, st.DroppedRateLimited,
				len(a.NeighborsSince(liveWindow)))
		}
	}
}

// parseNeighbors validates every address up front and reports all failures
// at once, so the operator fixes the whole flag in one round trip.
func parseNeighbors(s string) ([]*net.UDPAddr, error) {
	if s == "" {
		return nil, nil
	}
	var addrs []*net.UDPAddr
	var bad []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			bad = append(bad, "(empty entry)")
			continue
		}
		ua, err := net.ResolveUDPAddr("udp", part)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s (%v)", part, err))
			continue
		}
		if ua.Port == 0 {
			bad = append(bad, fmt.Sprintf("%s (port 0 is not routable)", part))
			continue
		}
		addrs = append(addrs, ua)
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("bad -neighbors: %s", strings.Join(bad, "; "))
	}
	return addrs, nil
}

// clampTTL folds the -max-ttl flag into the header TTL range.
func clampTTL(v int) uint8 {
	if v <= 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// dumpStatus prints the full operational picture (SIGUSR1 and final drain).
func dumpStatus(a *agent.Agent, tr *agent.UDPTransport, store *postbox.Store, svc *session.Service, start time.Time) {
	st := a.Stats()
	fmt.Printf("--- status (uptime %v) ---\n", time.Since(start).Round(time.Second))
	fmt.Printf("frames: received=%d duplicates=%d rebroadcast=%d out-of-conduit=%d stored=%d\n",
		st.Received, st.Duplicates, st.Rebroadcast, st.OutOfConduit, st.Stored)
	fmt.Printf("drops:  total=%d malformed=%d oversized=%d rate-limited=%d replayed=%d tampered=%d panics-recovered=%d\n",
		st.Dropped, st.DroppedMalformed, st.DroppedOversized, st.DroppedRateLimited,
		st.DroppedReplayed, st.DroppedTampered, st.PanicsRecovered)
	d := st.Decisions
	fmt.Printf("kernel: first-hop=%d in-conduit=%d out-of-conduit=%d geocast=%d ttl-expired=%d bad-route=%d ttl-inflated=%d bad-conduit=%d\n",
		d.FirstHop, d.InConduit, d.OutOfConduit, d.Geocast, d.TTLExpired, d.BadRoute,
		d.TTLInflated, d.BadConduit)
	restarts, panics := tr.Health()
	fmt.Printf("transport: addr=%s watchdog-restarts=%d handler-panics=%d\n", tr.Addr(), restarts, panics)
	fmt.Printf("liveness: hellos-sent=%d hellos-received=%d known-neighbors=%d\n",
		st.HellosSent, st.HellosReceived, len(st.Neighbors))
	keys := make([]string, 0, len(st.Neighbors))
	for k := range st.Neighbors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  neighbor %s last-seen %v ago\n", k, time.Since(st.Neighbors[k]).Round(time.Second))
	}
	if store != nil {
		boxes, msgs := store.Totals()
		fmt.Printf("postbox: dir=%s boxes=%d messages=%d log-bytes=%d\n",
			store.Dir(), boxes, msgs, store.LogBytes())
	}
	if svc != nil {
		ss := svc.Stats()
		fmt.Printf("session: offered=%d accepted=%d delivered=%d queued=%d fetched=%d acked=%d\n",
			ss.Offered, ss.Accepted, ss.Delivered, ss.Queued, ss.Fetched, ss.Acked)
		fmt.Printf("session-rejects: admission=%d rate-limit=%d buffer-full=%d network-exhausted=%d malformed=%d\n",
			ss.RejectedAdmission, ss.RejectedRateLimit, ss.RejectedBufferFull,
			ss.DroppedNetworkExhausted, ss.Malformed)
	}
	fmt.Println("--- end status ---")
}

// sessionLoop serves the user-session protocol on a dedicated socket:
// one datagram in, one reply datagram out. All admission decisions live in
// the Service; this loop only moves bytes. It exits when the socket is
// closed during graceful drain.
func sessionLoop(conn net.PacketConn, svc *session.Service, start time.Time) {
	buf := make([]byte, session.MaxSessionFrame+1)
	for {
		n, from, err := conn.ReadFrom(buf)
		if err != nil {
			return // socket closed: drain in progress
		}
		reply := svc.Handle(buf[:n], time.Since(start).Seconds())
		if reply != nil {
			conn.WriteTo(reply, from)
		}
	}
}

// sessionDrain forwards queued session messages onto the mesh at a bounded
// rate — the knob that keeps a flash crowd from monopolizing the radio.
func sessionDrain(svc *session.Service, fwd session.Forwarder, perSec int, start time.Time, stop <-chan struct{}) {
	if perSec <= 0 {
		perSec = 1
	}
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			svc.Drain(time.Since(start).Seconds(), perSec, fwd)
		}
	}
}

// liveForwarder carries drained session messages onto the live mesh: plan
// a conduit route, stamp the postbox address, and inject as if locally
// sent. The live path is fire-and-forget — UDP transmission is
// asynchronous, so Delivered reports that the message was handed to the
// mesh, and the recipient's fetch/ack loop is the real acknowledgment.
type liveForwarder struct {
	netw *core.Network
	a    *agent.Agent
	src  int
}

func (f *liveForwarder) Forward(m *session.Pending, now float64) session.Outcome {
	route, err := f.netw.PlanRoute(f.src, m.Dst)
	if err != nil {
		return session.Outcome{}
	}
	pkt, err := f.netw.NewPacket(route, m.Payload)
	if err != nil {
		return session.Outcome{}
	}
	pkt.Header.Flags |= packet.FlagPostbox
	pkt.Header.Postbox = m.To
	if err := f.a.Inject(pkt); err != nil {
		return session.Outcome{}
	}
	return session.Outcome{Delivered: true, Broadcasts: 1}
}

// cityPos picks the agent's position: the building centroid, or the map
// center for relays.
func cityPos(city *osm.City, building int) geo.Point {
	if building >= 0 && building < city.NumBuildings() {
		return city.Buildings[building].Centroid
	}
	return city.Bounds.Center()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "citymesh-agent:", err)
	os.Exit(1)
}
