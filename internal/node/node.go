// Package node assembles one wireless host: radio, 802.11 DCF MAC,
// interface queue, AODV router and the IP forwarding plane, including the
// TCP Muzha router-assist hooks (AVBW-S stamping and congestion marking).
// Every node plays the hybrid terminal/router role the paper builds on.
package node

import (
	"fmt"

	"muzha/internal/aodv"
	"muzha/internal/core"
	"muzha/internal/dsr"
	"muzha/internal/invariant"
	"muzha/internal/mac"
	"muzha/internal/ondemand"
	"muzha/internal/packet"
	"muzha/internal/phy"
	"muzha/internal/queue"
	"muzha/internal/sim"
	"muzha/internal/topo"
	"muzha/internal/trace"
)

// Agent is a transport endpoint (TCP sender or sink) attached to a node.
type Agent interface {
	// FlowID identifies the flow this agent belongs to.
	FlowID() int32
	// Recv delivers a transport segment addressed to this node.
	Recv(pkt *packet.Packet)
}

// Routing selects the node's routing protocol.
type Routing int

const (
	// RoutingAODV is the paper's protocol (the zero value).
	RoutingAODV Routing = iota
	// RoutingDSR swaps in Dynamic Source Routing (ablation).
	RoutingDSR
)

// Config assembles per-node parameters.
type Config struct {
	MAC mac.Config
	// Protocol selects AODV (default) or DSR.
	Protocol Routing
	// Discovery holds the route-discovery parameters both protocols
	// share.
	Discovery ondemand.Config
	// AODV holds the AODV-only parameters when Protocol is RoutingAODV.
	AODV aodv.Config
	// DSR holds the DSR-only parameters when Protocol is RoutingDSR.
	DSR dsr.Config
	// QueueLimit is the IFQ capacity in packets (paper: 50, drop-tail).
	QueueLimit int
	// UseRED replaces the drop-tail IFQ with a RED queue (ablation).
	UseRED bool
	// RED holds RED parameters when UseRED is set; Limit and Rand are
	// filled in automatically.
	RED queue.REDConfig
	// DRAI is the router-assist policy applied to forwarded packets.
	// Leave nil to disable router assistance entirely.
	DRAI *core.DRAIPolicy
	// ResidualLossRate drops received data packets at the network layer
	// with this probability, modelling random wireless loss that defeats
	// the MAC's ARQ (deep fades, undetected corruption). This is the
	// TCP-visible "random loss" of the paper's Section 4.7: unlike
	// PHY-level errors, it cannot be repaired by link-layer retries.
	ResidualLossRate float64
	// Trace, when non-nil, receives packet-level events (NS-2-style
	// send/receive/forward/drop records).
	Trace trace.Recorder
	// Invariants, when non-nil, receives run-time Always/Sometimes checks
	// on the node's forwarding plane.
	Invariants *invariant.Checker
	// Ledger, when non-nil, tracks packet conservation: every transport
	// delivery must reference a UID some node originated. Share one ledger
	// across all nodes of a run.
	Ledger *invariant.Ledger
}

// DefaultConfig returns the paper's Table 5.1 node parameters with the
// default DRAI policy enabled.
func DefaultConfig() Config {
	p := core.DefaultDRAIPolicy()
	return Config{
		MAC:        mac.DefaultConfig(),
		Discovery:  ondemand.DefaultConfig(),
		AODV:       aodv.DefaultConfig(),
		DSR:        dsr.DefaultConfig(),
		QueueLimit: queue.DefaultLimit,
		DRAI:       &p,
	}
}

// RoutingStats are the router counters, the same for AODV and DSR.
type RoutingStats = ondemand.Stats

// routingProtocol is what the node needs from a routing implementation;
// both aodv.Router and dsr.Router satisfy it.
type routingProtocol interface {
	SendData(pkt *packet.Packet)
	HandleRouting(pkt *packet.Packet)
	LinkFailure(nextHop packet.NodeID, failed *packet.Packet)
	// Reset wipes volatile protocol state, as a crash would.
	Reset()
	Stats() ondemand.Stats
}

// Stats are per-node network-layer counters.
type Stats struct {
	Delivered   uint64 // transport segments handed to local agents
	Forwarded   uint64 // data packets forwarded toward other nodes
	QueueDrops  uint64 // IFQ overflow drops
	TTLDrops    uint64 // packets dropped at TTL zero
	NoAgentDrop uint64 // segments for flows with no local agent
	RouteDrops  uint64 // packets dropped by routing (no route)
	Marked      uint64 // packets congestion-marked here
	RandomDrops uint64 // data packets lost to residual random loss
	CrashDrops  uint64 // packets flushed by a crash or refused while down
}

// Node is one wireless host.
type Node struct {
	sim    *sim.Simulator
	id     packet.NodeID
	cfg    Config
	radio  *phy.Radio
	mac    *mac.DCF
	ifq    queue.Queue
	router routingProtocol
	aodv   *aodv.Router // non-nil when Protocol == RoutingAODV
	agents map[int32]Agent
	ids    *packet.IDGen

	// qewma is the smoothed IFQ length in packets, updated on each data
	// forward; it feeds the DRAI quantizer (instantaneous depth is too
	// bursty to steer senders).
	qewma float64
	// delayEWMA is the smoothed IFQ sojourn time in seconds, updated on
	// each dequeue; it feeds the optional delay input of the DRAI.
	delayEWMA float64

	// down is set while the node is crashed: the radio is silent and
	// every ingress/egress path refuses packets.
	down bool

	// Run-time invariant handles (nil when checking is disabled).
	invQueue     *invariant.Assertion
	invTTL       *invariant.Assertion
	invDRAI      *invariant.Assertion
	someOverflow *invariant.Assertion
	someMarked   *invariant.Assertion
	someLinkFail *invariant.Assertion

	stats Stats
}

// qewmaGain is the per-forward EWMA weight of the queue-length signal.
const qewmaGain = 0.1

// New creates a node at pos attached to ch. ids must be shared by all
// nodes of a simulation.
func New(s *sim.Simulator, ch *phy.Channel, pos topo.Position, id packet.NodeID, ids *packet.IDGen, cfg Config) (*Node, error) {
	if cfg.QueueLimit < 1 {
		return nil, fmt.Errorf("node: queue limit must be >= 1, got %d", cfg.QueueLimit)
	}
	if cfg.ResidualLossRate < 0 || cfg.ResidualLossRate >= 1 {
		return nil, fmt.Errorf("node: ResidualLossRate must be in [0,1), got %g", cfg.ResidualLossRate)
	}
	if cfg.DRAI != nil {
		if err := cfg.DRAI.Validate(); err != nil {
			return nil, err
		}
	}
	n := &Node{
		sim:    s,
		id:     id,
		cfg:    cfg,
		agents: make(map[int32]Agent),
		ids:    ids,
	}
	if cfg.Invariants != nil {
		n.invQueue = cfg.Invariants.Always("queue-bound")
		n.invTTL = cfg.Invariants.Always("ttl-bound")
		n.invDRAI = cfg.Invariants.Always("drai-monotone")
		n.someOverflow = cfg.Invariants.Sometimes("queue-overflow")
		n.someMarked = cfg.Invariants.Sometimes("congestion-marked")
		n.someLinkFail = cfg.Invariants.Sometimes("link-failure-detected")
	}

	if cfg.UseRED {
		red := cfg.RED
		red.Limit = cfg.QueueLimit
		red.Rand = s.Rand()
		q, err := queue.NewRED(red)
		if err != nil {
			return nil, err
		}
		n.ifq = q
	} else {
		q, err := queue.NewDropTail(cfg.QueueLimit)
		if err != nil {
			return nil, err
		}
		n.ifq = q
	}

	n.radio = ch.AddRadio(pos, macBridge{n: n})
	m, err := mac.New(s, n.radio, id, n, cfg.MAC)
	if err != nil {
		return nil, err
	}
	n.mac = m

	switch cfg.Protocol {
	case RoutingDSR:
		r, err := dsr.New(s, id, n, ids, cfg.Discovery, cfg.DSR)
		if err != nil {
			return nil, err
		}
		n.router = r
	default:
		r, err := aodv.New(s, id, n, ids, cfg.Discovery, cfg.AODV)
		if err != nil {
			return nil, err
		}
		n.aodv = r
		n.router = r
	}
	return n, nil
}

// macBridge forwards PHY upcalls to the MAC; it exists so the radio can
// be created before the MAC that drives it.
type macBridge struct{ n *Node }

func (b macBridge) OnCarrierBusy()                      { b.n.mac.OnCarrierBusy() }
func (b macBridge) OnCarrierIdle()                      { b.n.mac.OnCarrierIdle() }
func (b macBridge) OnReceive(p *packet.Packet, ok bool) { b.n.mac.OnReceive(p, ok) }
func (b macBridge) OnTxDone(p *packet.Packet)           { b.n.mac.OnTxDone(p) }

// ID returns the node's address.
func (n *Node) ID() packet.NodeID { return n.id }

// Stats returns a copy of the node counters.
func (n *Node) Stats() Stats { return n.stats }

// MACStats returns the node's MAC counters.
func (n *Node) MACStats() mac.Stats { return n.mac.Stats() }

// RouterStats returns the node's routing-protocol counters.
func (n *Node) RouterStats() RoutingStats { return n.router.Stats() }

// QueueLen returns the current IFQ depth.
func (n *Node) QueueLen() int { return n.ifq.Len() }

// Down reports whether the node is currently crashed.
func (n *Node) Down() bool { return n.down }

// VisitNextHops calls fn for every route in the AODV next-hop table, for
// the run-time loop-freedom scan; under DSR (source routing keeps no
// per-hop table to walk) it calls nothing.
func (n *Node) VisitNextHops(fn func(dst, nextHop packet.NodeID)) {
	if n.aodv != nil {
		n.aodv.VisitNextHops(fn)
	}
}

// Crash implements fault.NodeControl: the radio goes silent, the IFQ is
// flushed, and MAC plus routing state is wiped. Attached transport
// agents keep their state — like processes on a host whose interface
// died — but every packet they originate while down is refused.
func (n *Node) Crash() {
	if n.down {
		return
	}
	n.down = true
	for {
		pkt := n.ifq.Dequeue()
		if pkt == nil {
			break
		}
		n.stats.CrashDrops++
		n.cfg.Ledger.Dropped(pkt.UID)
		n.record(trace.OpDrop, "node crashed", pkt)
	}
	n.mac.Reset()
	n.router.Reset()
	n.radio.SetDown(true)
	n.qewma = 0
	n.delayEWMA = 0
}

// Reboot implements fault.NodeControl: the radio comes back up with the
// cold-started MAC and routing state Crash left behind.
func (n *Node) Reboot() {
	if !n.down {
		return
	}
	n.down = false
	n.radio.SetDown(false)
}

// Attach registers a transport agent for its flow ID.
func (n *Node) Attach(a Agent) error {
	if _, dup := n.agents[a.FlowID()]; dup {
		return fmt.Errorf("node %v: duplicate agent for flow %d", n.id, a.FlowID())
	}
	n.agents[a.FlowID()] = a
	return nil
}

// Send originates a transport segment from this node. The packet must
// have Dst and TCP set; the node fills in the IP fields and routes it.
func (n *Node) Send(pkt *packet.Packet) {
	if n.down {
		n.stats.CrashDrops++
		n.record(trace.OpDrop, "node down", pkt)
		return
	}
	pkt.UID = n.ids.Next()
	pkt.Kind = packet.KindData
	pkt.Src = n.id
	if pkt.TTL == 0 {
		pkt.TTL = 64
	}
	n.cfg.Ledger.Originate(pkt.UID)
	n.record(trace.OpSend, "", pkt)
	if pkt.Dst == n.id {
		n.deliver(pkt)
		return
	}
	n.router.SendData(pkt)
}

// record emits a trace event when tracing is enabled.
func (n *Node) record(op trace.Op, reason string, pkt *packet.Packet) {
	if n.cfg.Trace == nil {
		return
	}
	n.cfg.Trace.Record(trace.FromPacket(n.sim.Now(), n.id, op, reason, pkt))
}

// --- mac.Upper ---

// NextFrame implements mac.Upper: the MAC pulls from the IFQ.
func (n *Node) NextFrame() *packet.Packet {
	pkt := n.ifq.Dequeue()
	if pkt != nil && pkt.EnqueuedAt > 0 {
		sojourn := (n.sim.Now() - sim.Time(pkt.EnqueuedAt)).Seconds()
		n.delayEWMA = (1-qewmaGain)*n.delayEWMA + qewmaGain*sojourn
	}
	return pkt
}

// OnMACReceive implements mac.Upper.
func (n *Node) OnMACReceive(pkt *packet.Packet) {
	if n.down {
		n.cfg.Ledger.Dropped(pkt.UID)
		return // stale event from before a crash
	}
	switch pkt.Kind {
	case packet.KindRouting:
		n.router.HandleRouting(pkt)
	case packet.KindData:
		if n.cfg.ResidualLossRate > 0 && n.sim.Rand().Float64() < n.cfg.ResidualLossRate {
			n.stats.RandomDrops++
			n.cfg.Ledger.Dropped(pkt.UID)
			n.record(trace.OpDrop, "random loss", pkt)
			return
		}
		if pkt.Dst == n.id {
			n.deliver(pkt)
			return
		}
		pkt.TTL--
		if pkt.TTL <= 0 {
			n.stats.TTLDrops++
			n.cfg.Ledger.Dropped(pkt.UID)
			n.record(trace.OpDrop, "ttl expired", pkt)
			return
		}
		if pkt.TTL < 64 {
			n.invTTL.Checked()
		} else {
			n.invTTL.Fail(fmt.Sprintf("packet uid %d ttl %d out of range", pkt.UID, pkt.TTL))
		}
		n.router.SendData(pkt)
	}
}

// OnTxSuccess implements mac.Upper.
func (n *Node) OnTxSuccess(pkt *packet.Packet) {}

// OnTxFail implements mac.Upper: MAC retry exhaustion is a link failure.
func (n *Node) OnTxFail(pkt *packet.Packet) {
	if pkt.MACDst == packet.Broadcast {
		return // broadcasts cannot fail
	}
	var failedData *packet.Packet
	if pkt.Kind == packet.KindData {
		failedData = pkt
	}
	n.someLinkFail.Reach()
	n.router.LinkFailure(pkt.MACDst, failedData)
}

// --- ondemand.Output ---

// SendRouting implements ondemand.Output.
func (n *Node) SendRouting(pkt *packet.Packet, nextHop packet.NodeID) {
	pkt.MACSrc = n.id
	pkt.MACDst = nextHop
	n.enqueue(pkt)
}

// ForwardData implements ondemand.Output: transmit a routed data packet to
// its next hop, applying the Muzha router-assist hooks.
func (n *Node) ForwardData(pkt *packet.Packet, nextHop packet.NodeID) {
	if pkt.Src != n.id {
		n.stats.Forwarded++
		n.record(trace.OpForward, "", pkt)
	}
	pkt.MACSrc = n.id
	pkt.MACDst = nextHop
	if n.cfg.DRAI != nil {
		// Quantize this node's congestion — the smoothed IFQ occupancy
		// (including the arriving packet) combined with the MAC channel
		// utilization — and min-stamp it into the AVBW-S option.
		n.qewma = (1-qewmaGain)*n.qewma + qewmaGain*float64(n.ifq.Len()+1)
		occ := n.qewma / float64(n.ifq.Cap())
		util := n.mac.Utilization()
		prevAVBW := pkt.AVBW
		pkt.StampAVBW(n.cfg.DRAI.Combined(occ, util, n.delayEWMA))
		if prevAVBW != 0 {
			if pkt.AVBW >= 1 && pkt.AVBW <= prevAVBW {
				n.invDRAI.Checked()
			} else {
				n.invDRAI.Fail(fmt.Sprintf("packet uid %d avbw %d after %d (stamp must be min-monotone)",
					pkt.UID, pkt.AVBW, prevAVBW))
			}
		}
		if n.cfg.DRAI.ShouldMark(occ, util, n.delayEWMA) {
			if !pkt.CongMarked {
				n.stats.Marked++
				n.record(trace.OpMark, "", pkt)
				n.someMarked.Reach()
			}
			pkt.CongMarked = true
		}
	}
	n.enqueue(pkt)
}

// DropData implements ondemand.Output.
func (n *Node) DropData(pkt *packet.Packet, reason string) {
	n.stats.RouteDrops++
	n.cfg.Ledger.Dropped(pkt.UID)
	n.record(trace.OpDrop, reason, pkt)
}

func (n *Node) enqueue(pkt *packet.Packet) {
	if n.down {
		// A routing event scheduled before the crash (e.g. a jittered RREQ
		// rebroadcast) can still try to transmit; refuse it.
		n.stats.CrashDrops++
		n.cfg.Ledger.Dropped(pkt.UID)
		n.record(trace.OpDrop, "node down", pkt)
		return
	}
	pkt.EnqueuedAt = int64(n.sim.Now())
	if !n.ifq.Enqueue(pkt) {
		n.stats.QueueDrops++
		n.cfg.Ledger.Dropped(pkt.UID)
		n.record(trace.OpDrop, "queue overflow", pkt)
		n.someOverflow.Reach()
		return
	}
	if n.ifq.Len() <= n.ifq.Cap() {
		n.invQueue.Checked()
	} else {
		n.invQueue.Fail(fmt.Sprintf("queue depth %d exceeds limit %d", n.ifq.Len(), n.ifq.Cap()))
	}
	n.mac.Kick()
}

func (n *Node) deliver(pkt *packet.Packet) {
	if pkt.TCP == nil {
		return
	}
	a := n.agents[pkt.TCP.FlowID]
	if a == nil {
		n.stats.NoAgentDrop++
		n.cfg.Ledger.Dropped(pkt.UID)
		n.record(trace.OpDrop, "no agent", pkt)
		return
	}
	n.cfg.Ledger.Delivered(pkt.UID)
	n.stats.Delivered++
	n.record(trace.OpRecv, "", pkt)
	a.Recv(pkt)
}
