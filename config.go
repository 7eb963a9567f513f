// Package muzha is a discrete-event reproduction of "A New TCP Congestion
// Control Mechanism over Wireless Ad Hoc Networks by Router-Assisted
// Approach" (TCP Muzha, ICDCS 2007). It bundles a deterministic wireless
// multihop simulator — 802.11 DCF MAC, AODV routing, drop-tail interface
// queues — with the TCP Muzha router-assisted congestion control and the
// classical variants it is evaluated against (Tahoe, Reno, NewReno, SACK,
// Vegas).
//
// The entry point is Run: describe a scenario (topology, flows, physical
// parameters) in a Config and receive per-flow throughput,
// retransmission, fairness and congestion-window-trace results — the same
// metrics the paper's Chapter 5 reports.
package muzha

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"muzha/internal/core"
	"muzha/internal/fault"
	"muzha/internal/harness"
	"muzha/internal/packet"
	"muzha/internal/sim"
	"muzha/internal/topo"
)

// Variant names a TCP congestion-control flavour.
type Variant string

// Supported TCP variants. The first six are the paper's comparison set;
// Veno, Westwood, Jersey and ECN-NewReno are the related-work protocols
// of the thesis' Chapter 3, implemented as additional baselines. CUBIC
// and BBR-lite are the modern end-to-end senders the modernized
// comparison grid (ModernComparisonGrid) pits against DRAI.
const (
	Tahoe      Variant = "tahoe"
	Reno       Variant = "reno"
	NewReno    Variant = "newreno"
	SACK       Variant = "sack"
	Vegas      Variant = "vegas"
	Muzha      Variant = "muzha"
	Veno       Variant = "veno"
	Westwood   Variant = "westwood"
	Jersey     Variant = "jersey"
	ECNNewReno Variant = "ecn-newreno"
	CUBIC      Variant = "cubic"
	BBRLite    Variant = "bbr-lite"
)

// DefaultTraceFlowLimit is the flow count above which a run records
// summary-only per-flow rows when Config.TraceFlowLimit is zero. Every
// paper scenario stays far below it, so defaults are trace-complete.
const DefaultTraceFlowLimit = 64

// Variants lists every supported variant.
func Variants() []Variant {
	return []Variant{Tahoe, Reno, NewReno, SACK, Vegas, Muzha, Veno, Westwood, Jersey, ECNNewReno, CUBIC, BBRLite}
}

func (v Variant) valid() bool {
	switch v {
	case Tahoe, Reno, NewReno, SACK, Vegas, Muzha, Veno, Westwood, Jersey, ECNNewReno, CUBIC, BBRLite:
		return true
	}
	return false
}

// Topology is a node layout for a scenario.
type Topology struct {
	inner *topo.Topology
}

// ChainTopology returns the paper's h-hop chain (Figure 5.1): h+1 nodes
// spaced exactly one transmission range apart. The natural flow runs from
// node 0 to node h.
func ChainTopology(hops int) (Topology, error) {
	t, err := topo.Chain(hops)
	return Topology{inner: t}, err
}

// ChainTopologySpaced is ChainTopology with configurable node spacing in
// metres. Spacing below the 250 m transmission range leaves slack for
// mobility scenarios: at exactly 250 m a relay must sit precisely on the
// line, so any movement severs the chain.
func ChainTopologySpaced(hops int, spacing float64) (Topology, error) {
	t, err := topo.ChainSpaced(hops, spacing)
	return Topology{inner: t}, err
}

// CrossTopology returns the paper's h-hop cross (Figure 5.15): a
// horizontal and a vertical h-hop chain sharing their centre node. Flow
// endpoints: see FlowEndpoints.
func CrossTopology(hops int) (Topology, error) {
	t, err := topo.Cross(hops)
	return Topology{inner: t}, err
}

// GridTopology returns a rows x cols lattice at transmission-range
// spacing.
func GridTopology(rows, cols int) (Topology, error) {
	t, err := topo.Grid(rows, cols)
	return Topology{inner: t}, err
}

// RandomTopology places n nodes uniformly in a width x height metre field
// using the given seed.
func RandomTopology(n int, width, height float64, seed int64) (Topology, error) {
	t, err := topo.Random(n, width, height, rand.New(rand.NewSource(seed)))
	return Topology{inner: t}, err
}

// GridIslandsTopology lays out islands copies of a rows x cols lattice
// separated edge-to-edge by gap metres. With gap beyond the 550 m
// carrier-sense range the islands are independent interaction domains,
// so Config.Workers can simulate them concurrently. Default flow
// endpoints are each island's opposite corners.
func GridIslandsTopology(islands, rows, cols int, gap float64) (Topology, error) {
	t, err := topo.GridIslands(islands, rows, cols, gap)
	return Topology{inner: t}, err
}

// GridIslandsFlowsTopology is GridIslandsTopology with flowsPerIsland
// seeded flow endpoint pairs per island, each spanning at least half
// the island diameter. The node-scale benchmark workhorse: 16 islands
// of 8x8 at 8 flows each is a 1024-node, 128-flow scenario whose
// islands fan out across Config.Workers.
func GridIslandsFlowsTopology(islands, rows, cols int, gap float64, flowsPerIsland int, seed int64) (Topology, error) {
	t, err := topo.GridIslandsFlows(islands, rows, cols, gap, flowsPerIsland, rand.New(rand.NewSource(seed)))
	return Topology{inner: t}, err
}

// RandomGeometricTopology places n nodes uniformly in a width x height
// metre field and derives flows multi-hop flow endpoint pairs by
// seeded BFS (each destination is the farthest node reachable from its
// source). Generation is near-linear in n via a spatial grid index, so
// 1000-node fields are practical.
func RandomGeometricTopology(n int, width, height float64, flows int, seed int64) (Topology, error) {
	t, err := topo.RandomGeometric(n, width, height, flows, rand.New(rand.NewSource(seed)))
	return Topology{inner: t}, err
}

// Nodes returns the node count.
func (t Topology) Nodes() int {
	if t.inner == nil {
		return 0
	}
	return t.inner.N()
}

// Name returns a short identifier like "chain-4hop".
func (t Topology) Name() string {
	if t.inner == nil {
		return ""
	}
	return t.inner.Name
}

// FlowEndpoints returns the conventional (src, dst) node pairs of the
// topology: one pair for a chain, two crossing pairs for a cross.
func (t Topology) FlowEndpoints() [][2]int {
	if t.inner == nil {
		return nil
	}
	out := make([][2]int, len(t.inner.FlowEndpoints))
	for i, fe := range t.inner.FlowEndpoints {
		out[i] = [2]int{int(fe[0]), int(fe[1])}
	}
	return out
}

// Flow describes one FTP/TCP transfer.
type Flow struct {
	// Src and Dst are node indices into the topology.
	Src, Dst int
	// Variant selects the congestion control; defaults to NewReno.
	Variant Variant
	// Start delays the flow's first transmission.
	Start time.Duration
	// Window is the advertised window in segments (the paper's window_);
	// 0 uses Config.Window.
	Window int
	// MaxBytes bounds the transfer; 0 streams for the whole run
	// (FTP-style, as in the paper).
	MaxBytes int64
}

// DRAIPolicy mirrors the router-side Muzha policy for public
// configuration; see the paper's Table 5.2 and internal/core.
type DRAIPolicy struct {
	// Thresholds are ascending queue-occupancy fractions.
	Thresholds []float64
	// Levels are the DRAI recommendations (5..1) between thresholds;
	// one more entry than Thresholds, strictly descending.
	Levels []int
	// MarkLevel congestion-marks packets when the DRAI is at or below
	// it.
	MarkLevel int
	// ChannelThresholds, when non-empty, add a MAC channel-utilization
	// gate (see ChannelAwareDRAIPolicy).
	ChannelThresholds []float64
	// DelayThresholds, when non-empty, add a queueing-delay input in
	// seconds (see DelayAwareDRAIPolicy).
	DelayThresholds []float64
}

// DefaultDRAIPolicy returns the five-level policy used for the headline
// experiments.
func DefaultDRAIPolicy() DRAIPolicy { return fromCore(core.DefaultDRAIPolicy()) }

// BinaryDRAIPolicy returns the ECN-like two-level ablation policy.
func BinaryDRAIPolicy(threshold float64) DRAIPolicy {
	return fromCore(core.BinaryDRAIPolicy(threshold))
}

// ThreeLevelDRAIPolicy returns the coarse three-level ablation policy.
func ThreeLevelDRAIPolicy() DRAIPolicy { return fromCore(core.ThreeLevelDRAIPolicy()) }

// ChannelAwareDRAIPolicy returns the default policy with the MAC
// channel-utilization gate enabled (ablation comparison).
func ChannelAwareDRAIPolicy() DRAIPolicy { return fromCore(core.ChannelAwareDRAIPolicy()) }

// DelayAwareDRAIPolicy returns the default policy with the queueing-delay
// input enabled — the thesis' future-work DRAI refinement.
func DelayAwareDRAIPolicy() DRAIPolicy { return fromCore(core.DelayAwareDRAIPolicy()) }

func fromCore(p core.DRAIPolicy) DRAIPolicy {
	return DRAIPolicy{
		Thresholds:        p.Thresholds,
		Levels:            p.Levels,
		MarkLevel:         p.MarkLevel,
		ChannelThresholds: p.ChannelThresholds,
		DelayThresholds:   p.DelayThresholds,
	}
}

func (p DRAIPolicy) toCore() core.DRAIPolicy {
	return core.DRAIPolicy{
		Thresholds:        p.Thresholds,
		Levels:            p.Levels,
		MarkLevel:         p.MarkLevel,
		ChannelThresholds: p.ChannelThresholds,
		DelayThresholds:   p.DelayThresholds,
	}
}

// BackgroundFlow is an unreactive constant-bit-rate datagram stream that
// competes with the TCP flows for the channel — an extension beyond the
// paper's background-traffic-free setup.
type BackgroundFlow struct {
	// Src and Dst are node indices.
	Src, Dst int
	// RateBps is the application payload rate in bit/s.
	RateBps float64
	// PacketSize is the payload bytes per datagram (default 512).
	PacketSize int
	// Start delays the stream.
	Start time.Duration
}

// FaultKind discriminates fault-injection event types.
type FaultKind string

// Supported fault kinds.
const (
	// FaultNodeCrash silences one node for the window: the radio stops,
	// queued packets are flushed, and MAC plus routing state is wiped.
	FaultNodeCrash FaultKind = "node-crash"
	// FaultLinkBlackout mutes the channel between two nodes (both
	// directions unless OneWay), modelling a deep fade or obstacle.
	FaultLinkBlackout FaultKind = "link-blackout"
	// FaultPartition splits the network into non-communicating groups;
	// unlisted nodes form one implicit leftover group.
	FaultPartition FaultKind = "partition"
	// FaultBurstLoss overlays a Gilbert–Elliott two-state bursty-loss
	// process on the channel, on top of the uniform error rates.
	FaultBurstLoss FaultKind = "burst-loss"
)

// FaultEvent schedules one deterministic fault. Faults ride the
// simulation event heap, so a faulty run replays bit-for-bit from the
// same Config and seed.
type FaultEvent struct {
	Kind FaultKind
	// At is when the fault strikes.
	At time.Duration
	// Duration is how long it lasts; 0 means until the end of the run.
	Duration time.Duration

	// Node is the crash target (FaultNodeCrash).
	Node int
	// LinkA and LinkB name the muted pair (FaultLinkBlackout); OneWay
	// restricts the mute to the A->B direction.
	LinkA, LinkB int
	OneWay       bool
	// Groups are the partition classes (FaultPartition).
	Groups [][]int
	// Gilbert–Elliott parameters (FaultBurstLoss); zero fields take the
	// defaults 0.8 bad-state loss, 8-frame bursts, 200-frame gaps.
	BadLossRate     float64
	GoodLossRate    float64
	MeanBurstFrames float64
	MeanGapFrames   float64
}

// faultSchedule converts and validates the public fault list into the
// internal schedule.
func (c *Config) faultSchedule() ([]fault.Event, error) {
	if len(c.Faults) == 0 {
		return nil, nil
	}
	events := make([]fault.Event, len(c.Faults))
	for i, f := range c.Faults {
		e := fault.Event{
			At:       sim.FromDuration(f.At),
			Duration: sim.FromDuration(f.Duration),
			Node:     f.Node,
			LinkA:    f.LinkA,
			LinkB:    f.LinkB,
			OneWay:   f.OneWay,
			Groups:   f.Groups,
			Burst: fault.BurstParams{
				BadLossRate:     f.BadLossRate,
				GoodLossRate:    f.GoodLossRate,
				MeanBurstFrames: f.MeanBurstFrames,
				MeanGapFrames:   f.MeanGapFrames,
			},
		}
		switch f.Kind {
		case FaultNodeCrash:
			e.Kind = fault.NodeCrash
		case FaultLinkBlackout:
			e.Kind = fault.LinkBlackout
		case FaultPartition:
			e.Kind = fault.Partition
		case FaultBurstLoss:
			e.Kind = fault.BurstLoss
		default:
			return nil, fmt.Errorf("muzha: fault %d has unknown kind %q", i, f.Kind)
		}
		events[i] = e
	}
	if err := fault.Validate(events, c.Topology.Nodes()); err != nil {
		return nil, fmt.Errorf("muzha: %w", err)
	}
	return events, nil
}

// RunGuards bounds one run's wall-clock time, event count and
// progress; see harness.WatchdogConfig for the fields.
type RunGuards = harness.WatchdogConfig

// Supported mobility models.
const (
	// MobilityWaypoint is the classic random-waypoint model (default).
	MobilityWaypoint = "waypoint"
	// MobilityManhattan constrains movement to a street grid: nodes
	// travel along horizontal/vertical streets and draw turn decisions
	// at intersections (straight 50%, left 25%, right 25%).
	MobilityManhattan = "manhattan"
)

// Mobility configures the node-motion extension (the thesis' future
// work). All listed nodes roam the field; the rest stay put.
type Mobility struct {
	// Model selects the motion model: "" or MobilityWaypoint for random
	// waypoint, MobilityManhattan for street-grid movement.
	Model         string
	Width, Height float64
	MinSpeed      float64 // m/s
	MaxSpeed      float64 // m/s
	Pause         time.Duration
	MobileNodes   []int
	// GridSpacing is the Manhattan street spacing in metres (default
	// 250, the transmission range). Ignored by the waypoint model.
	GridSpacing float64
}

// Config describes one simulation scenario. The zero value is not
// runnable; start from DefaultConfig. The json tags define the wire
// form and so the Hash (see config_json.go): every exported field
// reaches both unless it is tagged "-".
type Config struct {
	Topology Topology `json:"topology"`
	Flows    []Flow   `json:"flows"`
	// Duration is the simulated time (paper: 10-50 s per experiment).
	Duration time.Duration `json:"duration_ns"`
	// Seed drives all model randomness; same seed, same results.
	Seed int64 `json:"seed"`

	// MSS is the TCP payload per segment (paper: 1460 bytes).
	MSS int `json:"mss"`
	// Window is the default advertised window in segments.
	Window int `json:"window"`
	// DelayedAck, when positive, enables RFC 1122 delayed ACKs at every
	// sink with the given maximum delay. The paper's simulations (and
	// the default) acknowledge every segment.
	DelayedAck time.Duration `json:"delayed_ack_ns"`

	// QueueLimit is the per-node IFQ capacity (paper: 50, drop-tail).
	QueueLimit int `json:"queue_limit"`
	// UseRED swaps the IFQ for a RED queue (ablation).
	UseRED bool `json:"use_red"`
	// REDMarkECN makes the RED queue congestion-mark packets instead of
	// dropping them (ECN-style signalling; the marks surface to senders
	// through the ACK echo). Requires UseRED.
	REDMarkECN bool `json:"red_mark_ecn"`
	// REDMinTh and REDMaxTh override the RED thresholds in packets.
	// Zero keeps the historical derivation from QueueLimit (min = QL/4,
	// max = 3*QL/4). Requires UseRED when set.
	REDMinTh int `json:"red_min_th"`
	REDMaxTh int `json:"red_max_th"`

	// Pacing enables auto-rate pacing on every sender: segments leave
	// on a cwnd/SRTT-derived rate schedule instead of ack-clocked
	// bursts. Off by default — unpaced runs are bit-identical to the
	// historical scheduling, keeping golden hashes stable. BBR-lite
	// flows pace regardless (the model drives its own rate).
	Pacing bool `json:"pacing"`

	// PacketErrorRate injects uniform random loss on data/routing frames
	// at the PHY. The 802.11 MAC's retries repair most of it, so little
	// reaches TCP; use ResidualLossRate for TCP-visible random loss.
	PacketErrorRate float64 `json:"packet_error_rate"`
	// BitErrorRate injects size-dependent random corruption at the PHY.
	BitErrorRate float64 `json:"bit_error_rate"`
	// ResidualLossRate drops received data packets per hop at the
	// network layer, past the MAC's ARQ — the TCP-visible "random loss"
	// of Section 4.7 (deep fades, undetected corruption).
	ResidualLossRate float64 `json:"residual_loss_rate"`

	// DisableRTSCTS turns off RTS/CTS protection (ablation).
	DisableRTSCTS bool `json:"disable_rts_cts"`
	// UseDSR swaps AODV for Dynamic Source Routing (ablation).
	UseDSR bool `json:"use_dsr"`
	// ExpandingRing enables RFC 3561 6.4 expanding-ring route discovery
	// in AODV: TTL-limited RREQ rings before a network-wide flood, so a
	// discovery storm costs O(neighbourhood) instead of O(N)
	// rebroadcasts when the destination is near. Off by default — the
	// paper's scenarios keep their exact historical flood behavior (and
	// golden hashes). Essential at hundreds of nodes.
	ExpandingRing bool `json:"expanding_ring"`

	// RouterAssist enables DRAI stamping/marking at every node. On by
	// default; Muzha flows degrade to hold-the-window without it.
	RouterAssist bool `json:"router_assist"`
	// DRAI is the router policy when RouterAssist is on.
	DRAI DRAIPolicy `json:"drai"`
	// MuzhaLossDiscrimination toggles the marked/unmarked dup-ACK
	// random-loss classification (Section 4.7). On by default.
	MuzhaLossDiscrimination bool `json:"muzha_loss_discrimination"`
	// DRAIClamp makes non-Muzha flows router-assisted hybrids when
	// RouterAssist is on: their data packets carry the AVBW-S option and
	// the echoed path recommendation acts as a deceleration-only window
	// ceiling on top of the variant's own control (core.DRAIClamped).
	// Off by default — the paper's comparisons pit pure end-to-end
	// senders against Muzha, and the golden hashes pin that behavior.
	DRAIClamp bool `json:"drai_clamp"`

	// ThroughputBin is the resolution of per-flow throughput dynamics
	// series (Figures 5.19-5.22). Zero disables the series.
	ThroughputBin time.Duration `json:"throughput_bin_ns"`
	// TraceCwnd records congestion-window traces (Figures 5.2-5.7).
	TraceCwnd bool `json:"trace_cwnd"`
	// TraceCap bounds each per-flow time series (throughput bins and
	// cwnd samples): past the cap the recorder halves its resolution in
	// place, so per-flow memory is O(cap) regardless of Duration. Zero
	// selects the stats package defaults (4096 bins / 16384 cwnd
	// samples), which paper-scale runs never reach.
	TraceCap int `json:"trace_cap"`
	// TraceFlowLimit bounds how many flows keep full traces in the
	// Result. Runs with more flows than the limit record summary-only
	// per-flow rows (scalar counters, no series), keeping Result size
	// O(flows) instead of O(flows x duration). Zero selects the default
	// of DefaultTraceFlowLimit (64); negative means unlimited (every
	// flow keeps its traces).
	TraceFlowLimit int `json:"trace_flow_limit"`

	// Background holds unreactive CBR streams competing with the TCP
	// flows (extension; the paper runs without background traffic).
	Background []BackgroundFlow `json:"background"`

	// Mobility, when non-nil, enables random-waypoint motion.
	Mobility *Mobility `json:"mobility"`

	// Faults is the deterministic fault-injection schedule: node
	// crash/reboot cycles, link blackouts, partitions and bursty-loss
	// phases, all replayed exactly from the same Config and seed.
	Faults []FaultEvent `json:"faults"`

	// Guards bounds the run's wall-clock time, event count and progress;
	// the zero value runs unguarded. Sweeps set these per run so one
	// stuck scenario cannot hang a whole batch.
	Guards RunGuards `json:"guards"`

	// Workers is how many interaction domains simulate at once. Every
	// run partitions its radios into conservative interaction domains
	// (connected components of the dist<=CSRange graph, with flow
	// endpoints coupled and mobile nodes inflated to their whole
	// mobility field) and simulates each as an independent sub-run on
	// max(Workers, 1) goroutines. Results, packet traces and golden
	// event-stream hashes do not depend on the width, so Workers is
	// excluded from Hash(). A topology that forms a single domain (all
	// the paper's chains and crosses) runs as one sub-run with Seed
	// itself. With several domains, Progress may fire from worker
	// goroutines (calls are serialized).
	Workers int `json:"workers"`

	// PacketTrace, when non-nil, receives an NS-2-style packet trace:
	// one line per transport send/receive, forward, drop and congestion
	// mark. Expect on the order of ten thousand lines per simulated
	// second of a saturated chain. Like Progress it only observes: a
	// traced run computes the same Result. A multi-domain run buffers
	// each domain's trace and writes the merged trace, in time order
	// with ties in domain order, when the run ends; packet UIDs are
	// unique within a domain only.
	PacketTrace io.Writer `json:"-"`

	// Progress, when non-nil, receives an in-run progress snapshot every
	// ProgressEvery executed events plus one final snapshot when the run
	// stops. The callback fires on the goroutine executing Run and must
	// be fast; it observes the run without influencing it, so a run is
	// bit-for-bit identical with or without it. The job daemon streams
	// these snapshots to clients.
	Progress func(ProgressUpdate) `json:"-"`
	// ProgressEvery is the Progress callback period in events
	// (default 65536).
	ProgressEvery uint64 `json:"-"`

	// Cancel, when non-nil, aborts the run cooperatively once the
	// channel is closed: the engine notices within one guard period
	// (~1024 events) and Run returns an error wrapping ErrCanceled.
	// Like the wall-clock guard, cancellation only decides whether a
	// run completes, never what a completed run computes.
	Cancel <-chan struct{} `json:"-"`

	// eventHook observes every executed engine event (fire time, sequence
	// number). The (time, seq) stream fingerprints a run's entire control
	// flow; the golden determinism tests hash it to prove engine
	// optimizations change nothing. Test-only, hence unexported.
	eventHook func(sim.Time, uint64)

	// summaryTraces is the resolved TraceFlowLimit decision, computed
	// once in Run against the global flow count so it does not depend
	// on the partition: buildSub's struct copy carries it into every
	// domain, where the local flow count would differ.
	summaryTraces bool
}

// DefaultConfig returns the paper's Table 5.1 parameters: 2 Mbps 802.11
// DCF radios with 250 m range, AODV routing, 50-packet drop-tail queues,
// 1460-byte packets, router assist enabled with the five-level DRAI
// policy.
func DefaultConfig() Config {
	return Config{
		Duration:                30 * time.Second,
		Seed:                    1,
		MSS:                     1460,
		Window:                  32,
		QueueLimit:              50,
		RouterAssist:            true,
		DRAI:                    DefaultDRAIPolicy(),
		MuzhaLossDiscrimination: true,
	}
}

// ProgressUpdate is one snapshot of a running simulation, delivered to
// Config.Progress: how far the virtual clock has advanced and how many
// engine events have executed.
type ProgressUpdate struct {
	// SimTime is the virtual time reached so far.
	SimTime time.Duration
	// Events is the number of engine events executed so far.
	Events uint64
}

// Validate checks the scenario for structural errors — missing
// topology, out-of-range flow endpoints, malformed fault schedules,
// non-finite loss rates — without running it. Run validates internally;
// the job daemon calls this at admission so a broken submission is
// rejected with 400 instead of occupying a worker.
func (c *Config) Validate() error { return c.validate() }

func (c *Config) validate() error {
	if c.Topology.inner == nil {
		return fmt.Errorf("muzha: config needs a topology")
	}
	for _, r := range [...]struct {
		name string
		v    float64
	}{
		{"packet error rate", c.PacketErrorRate},
		{"bit error rate", c.BitErrorRate},
		{"residual loss rate", c.ResidualLossRate},
	} {
		// The negated comparison also rejects NaN, which would otherwise
		// flow into the PHY's random draws and the result encoder.
		if !(r.v >= 0 && r.v <= 1) {
			return fmt.Errorf("muzha: %s must be in [0,1], got %v", r.name, r.v)
		}
	}
	if len(c.Flows) == 0 {
		return fmt.Errorf("muzha: config needs at least one flow")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("muzha: duration must be positive, got %v", c.Duration)
	}
	if c.MSS <= 0 {
		return fmt.Errorf("muzha: MSS must be positive, got %d", c.MSS)
	}
	if c.Window < 1 {
		return fmt.Errorf("muzha: window must be >= 1, got %d", c.Window)
	}
	if c.QueueLimit < 1 {
		return fmt.Errorf("muzha: queue limit must be >= 1, got %d", c.QueueLimit)
	}
	if c.Workers < 0 {
		return fmt.Errorf("muzha: workers must be >= 0, got %d", c.Workers)
	}
	if c.REDMinTh < 0 || c.REDMaxTh < 0 {
		return fmt.Errorf("muzha: RED thresholds must be >= 0, got min %d max %d", c.REDMinTh, c.REDMaxTh)
	}
	if (c.REDMinTh > 0 || c.REDMaxTh > 0) && c.REDMaxTh <= c.REDMinTh {
		return fmt.Errorf("muzha: RED max threshold %d must exceed min threshold %d", c.REDMaxTh, c.REDMinTh)
	}
	if (c.REDMarkECN || c.REDMinTh > 0 || c.REDMaxTh > 0) && !c.UseRED {
		return fmt.Errorf("muzha: RED mark/threshold knobs require UseRED")
	}
	if c.DRAIClamp && !c.RouterAssist {
		return fmt.Errorf("muzha: DRAIClamp requires RouterAssist")
	}
	if m := c.Mobility; m != nil {
		switch m.Model {
		case "", MobilityWaypoint, MobilityManhattan:
		default:
			return fmt.Errorf("muzha: unknown mobility model %q", m.Model)
		}
		if m.GridSpacing < 0 {
			return fmt.Errorf("muzha: mobility grid spacing must be >= 0, got %v", m.GridSpacing)
		}
	}
	if c.TraceCap < 0 {
		return fmt.Errorf("muzha: trace cap must be >= 0, got %d", c.TraceCap)
	}
	n := c.Topology.Nodes()
	for i, b := range c.Background {
		if b.Src < 0 || b.Src >= n || b.Dst < 0 || b.Dst >= n || b.Src == b.Dst {
			return fmt.Errorf("muzha: background flow %d endpoints invalid (%d,%d)", i, b.Src, b.Dst)
		}
		if b.RateBps <= 0 {
			return fmt.Errorf("muzha: background flow %d needs a positive rate", i)
		}
		if b.Start < 0 || b.Start >= c.Duration {
			return fmt.Errorf("muzha: background flow %d start %v outside run", i, b.Start)
		}
	}
	for i, f := range c.Flows {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return fmt.Errorf("muzha: flow %d endpoints (%d,%d) out of range [0,%d)", i, f.Src, f.Dst, n)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("muzha: flow %d has identical endpoints", i)
		}
		if f.Variant != "" && !f.Variant.valid() {
			return fmt.Errorf("muzha: flow %d has unknown variant %q", i, f.Variant)
		}
		if f.Start < 0 || f.Start >= c.Duration {
			return fmt.Errorf("muzha: flow %d start %v outside run duration", i, f.Start)
		}
		if f.Window < 0 || f.MaxBytes < 0 {
			return fmt.Errorf("muzha: flow %d has negative window or size", i)
		}
	}
	if _, err := c.faultSchedule(); err != nil {
		return err
	}
	return nil
}

// flowVariant resolves a flow's effective variant.
func (f Flow) variant() Variant {
	if f.Variant == "" {
		return NewReno
	}
	return f.Variant
}

// nodeID converts a validated endpoint index.
func nodeID(i int) packet.NodeID { return packet.NodeID(i) }
