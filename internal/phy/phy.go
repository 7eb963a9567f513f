// Package phy models the shared wireless medium: disc-radio propagation,
// carrier sensing, collision-on-overlap reception, half-duplex radios and
// random frame loss (a per-packet error model and bursty fading).
//
// The model follows the NS-2 defaults the paper uses: 2 Mbps radios with a
// 250 m transmission range and a 550 m carrier-sense/interference range.
// Signals reach neighbours after speed-of-light propagation delay; a frame
// is received intact iff no other signal overlaps it at the receiver and
// it survives the random loss draw.
package phy

import (
	"fmt"
	"math"
	"slices"

	"muzha/internal/packet"
	"muzha/internal/sim"
	"muzha/internal/topo"
)

// Config holds channel-wide physical parameters.
type Config struct {
	TxRange  float64 // receive range in metres (paper: 250)
	CSRange  float64 // carrier-sense/interference range in metres (NS-2 default: 550)
	DataRate float64 // payload bit rate in bit/s (paper: 2e6)
	// BasicRate is the bit rate of MAC control frames and PLCP headers
	// (802.11 sends these at the basic rate for backwards compatibility).
	BasicRate float64
	// Preamble is the PLCP preamble+header time prepended to every frame
	// (802.11 long preamble: 192 us).
	Preamble sim.Time

	// PacketErrorRate drops each received data/routing frame independently
	// with this probability; MAC control frames are exempt. This is the
	// "random loss" knob of Section 4.7.
	PacketErrorRate float64

	// CaptureRatio is the power ratio above which an in-progress
	// reception survives an overlapping weaker signal (NS-2's 10 dB
	// capture threshold under two-ray ground r^-4 propagation). Signal
	// power is modelled as distance^-PathLossExponent. Zero disables
	// capture: any overlap collides.
	CaptureRatio float64
	// PathLossExponent is the propagation power-law exponent (two-ray
	// ground: 4).
	PathLossExponent float64
}

// DefaultConfig returns the paper's Table 5.1 physical parameters.
func DefaultConfig() Config {
	return Config{
		TxRange:          250,
		CSRange:          550,
		DataRate:         2e6,
		BasicRate:        1e6,
		Preamble:         192 * sim.Microsecond,
		CaptureRatio:     10,
		PathLossExponent: 4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TxRange <= 0:
		return fmt.Errorf("phy: TxRange must be positive, got %g", c.TxRange)
	case c.CSRange < c.TxRange:
		return fmt.Errorf("phy: CSRange (%g) must be >= TxRange (%g)", c.CSRange, c.TxRange)
	case c.DataRate <= 0 || c.BasicRate <= 0:
		return fmt.Errorf("phy: rates must be positive, got data=%g basic=%g", c.DataRate, c.BasicRate)
	case c.PacketErrorRate < 0 || c.PacketErrorRate >= 1:
		return fmt.Errorf("phy: PacketErrorRate must be in [0,1), got %g", c.PacketErrorRate)
	case c.CaptureRatio < 0:
		return fmt.Errorf("phy: CaptureRatio must be >= 0, got %g", c.CaptureRatio)
	case c.CaptureRatio > 0 && c.PathLossExponent <= 0:
		return fmt.Errorf("phy: capture needs a positive PathLossExponent, got %g", c.PathLossExponent)
	}
	return nil
}

// MAC is the upcall interface a radio drives. Implemented by internal/mac.
type MAC interface {
	// OnCarrierBusy fires when external signal energy first appears at
	// the radio (physical carrier sense went busy).
	OnCarrierBusy()
	// OnCarrierIdle fires when the last external signal fades.
	OnCarrierIdle()
	// OnReceive delivers a frame whose signal ended at this radio. ok is
	// false when the frame was corrupted by collision or channel error
	// (the MAC then defers EIFS instead of DIFS).
	OnReceive(pkt *packet.Packet, ok bool)
	// OnTxDone fires when this radio's own transmission leaves the air.
	OnTxDone(pkt *packet.Packet)
}

const lightSpeed = 299_792_458.0 // m/s

// Channel is the shared medium connecting all radios.
type Channel struct {
	sim    *sim.Simulator
	cfg    Config
	radios []*Radio

	// Neighbor-cache invalidation epoch. Every mutation of medium state
	// that could change which radios hear which — SetPosition (mobility),
	// SetLinkBlocked and SetPartition/ClearPartition (fault injection) —
	// bumps it, and a radio rebuilds its cached neighbor list the next
	// time it transmits with a stale epoch. Starts at 1 so a fresh
	// radio's zero-valued cache epoch is always stale.
	epoch uint64

	// grid buckets radios into CSRange-sized cells so a neighbor-cache
	// rebuild scans only the 3x3 cell block around the transmitter
	// (O(neighbors)), not every radio on the channel.
	grid map[gridCell][]*Radio

	// fanouts recycles the per-frame signal cursors, so a transmission
	// schedules zero allocations; rank is fanOut's scratch table.
	fanouts []*fanout
	rank    []int32

	// Fault-injection state (see internal/fault): directional link
	// mutes, partition classes, and the Gilbert–Elliott loss overlay.
	blocked map[[2]int]bool
	group   map[int]int // node -> partition class; nil when unpartitioned
	ge      *geState
}

// gridCell addresses one CSRange x CSRange bucket of the spatial grid.
type gridCell struct{ x, y int }

func (c *Channel) cellOf(pos topo.Position) gridCell {
	return gridCell{
		x: int(math.Floor(pos.X / c.cfg.CSRange)),
		y: int(math.Floor(pos.Y / c.cfg.CSRange)),
	}
}

func (c *Channel) gridInsert(r *Radio, pos topo.Position) {
	k := c.cellOf(pos)
	c.grid[k] = append(c.grid[k], r)
}

func (c *Channel) gridRemove(r *Radio, pos topo.Position) {
	k := c.cellOf(pos)
	s := c.grid[k]
	for i, o := range s {
		if o == r {
			s[i] = s[len(s)-1]
			s[len(s)-1] = nil
			c.grid[k] = s[:len(s)-1]
			return
		}
	}
}

// geState is the Gilbert–Elliott two-state Markov loss process, advanced
// one step per frame while enabled.
type geState struct {
	pGoodBad, pBadGood float64
	lossGood, lossBad  float64
	bad                bool
}

// NewChannel creates the medium. Radios are added with AddRadio.
func NewChannel(s *sim.Simulator, cfg Config) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Channel{sim: s, cfg: cfg, epoch: 1, grid: make(map[gridCell][]*Radio)}, nil
}

// Config returns the channel parameters.
func (c *Channel) Config() Config { return c.cfg }

// AddRadio attaches a radio at pos and returns it. The returned radio's ID
// equals its attach order.
func (c *Channel) AddRadio(pos topo.Position, mac MAC) *Radio {
	r := &Radio{ch: c, id: len(c.radios), pos: pos, mac: mac}
	c.radios = append(c.radios, r)
	c.gridInsert(r, pos)
	c.epoch++
	return r
}

// SetPosition moves a radio; implements topo.PositionSetter for mobility.
// Movement invalidates every radio's neighbor cache (epoch bump); the
// mover is also re-bucketed in the spatial grid.
func (c *Channel) SetPosition(node int, pos topo.Position) {
	if node < 0 || node >= len(c.radios) {
		return
	}
	r := c.radios[node]
	if r.pos == pos {
		return
	}
	if old, next := c.cellOf(r.pos), c.cellOf(pos); old != next {
		c.gridRemove(r, r.pos)
		c.grid[next] = append(c.grid[next], r)
	}
	r.pos = pos
	c.epoch++
}

// --- fault-injection controls (implements fault.Medium) ---

// SetLinkBlocked mutes (or restores) the directional link a->b: frames
// transmitted by a no longer reach b at all, not even as interference.
// Frames already in the air are unaffected.
func (c *Channel) SetLinkBlocked(a, b int, blocked bool) {
	if c.blocked == nil {
		c.blocked = make(map[[2]int]bool)
	}
	if blocked {
		c.blocked[[2]int{a, b}] = true
	} else {
		delete(c.blocked, [2]int{a, b})
	}
	// Uniform invalidation rule: any medium-state mutation bumps the
	// epoch. The cache stores only geometry today (link state is checked
	// per frame), but the blanket rule keeps every future cached
	// predicate correct by construction.
	c.epoch++
}

// SetPartition installs communication classes: frames pass only between
// nodes of the same group. Nodes not listed share one implicit leftover
// group.
func (c *Channel) SetPartition(groups [][]int) {
	m := make(map[int]int, len(c.radios))
	for gi, g := range groups {
		for _, id := range g {
			m[id] = gi + 1 // leftover nodes default to class 0
		}
	}
	c.group = m
	c.epoch++
}

// ClearPartition removes the partition.
func (c *Channel) ClearPartition() {
	c.group = nil
	c.epoch++
}

// SetBurstLoss enables a Gilbert–Elliott bursty-loss overlay, layered on
// top of the uniform PacketErrorRate model. Each phase starts in the good
// state.
func (c *Channel) SetBurstLoss(pGoodBad, pBadGood, lossGood, lossBad float64) {
	c.ge = &geState{pGoodBad: pGoodBad, pBadGood: pBadGood, lossGood: lossGood, lossBad: lossBad}
}

// ClearBurstLoss disables the overlay.
func (c *Channel) ClearBurstLoss() { c.ge = nil }

// linkOpen reports whether frames from node a currently reach node b.
func (c *Channel) linkOpen(a, b int) bool {
	if c.blocked != nil && c.blocked[[2]int{a, b}] {
		return false
	}
	if c.group != nil && c.group[a] != c.group[b] {
		return false
	}
	return true
}

// TxTime returns a frame's airtime: preamble plus payload bits at the
// data rate (control=false) or basic rate (control=true).
func (c *Channel) TxTime(bytes int, control bool) sim.Time {
	rate := c.cfg.DataRate
	if control {
		rate = c.cfg.BasicRate
	}
	bits := float64(bytes * 8)
	return c.cfg.Preamble + sim.Time(math.Round(bits/rate*1e9))
}

func (c *Channel) propDelay(d float64) sim.Time {
	return sim.Time(math.Round(d / lightSpeed * 1e9))
}

// Radio is one node's transceiver. Half-duplex: a transmitting radio
// cannot receive, and vice versa reception in progress is aborted if the
// MAC transmits anyway.
type Radio struct {
	ch  *Channel
	id  int
	pos topo.Position
	mac MAC

	transmitting bool
	down         bool // crashed: radiates nothing, receives nothing
	rxLive       bool // rx holds a reception in progress
	sensed       int  // number of external signals currently at this radio
	rx           reception

	// nb caches, per potential receiver within carrier-sense range, the
	// precomputed propagation delay, received power and in-rx-range flag
	// that Transmit previously derived per frame from geometry. The list
	// is sorted by radio ID, the order in which a frame's signal events
	// take their sequence numbers. byDelay lists nb's indices sorted by
	// (delay, ID), the order in which those signals start and end. Valid
	// while nbEpoch matches the channel's invalidation epoch; built once
	// per topology for static runs, rebuilt O(neighbors) via the spatial
	// grid after movement or fault-state changes.
	nb      []neighbor
	byDelay []int32
	nbEpoch uint64

	// Stats.
	framesSent      uint64
	framesDelivered uint64
	framesCollided  uint64
	framesError     uint64
}

// neighbor is one precomputed neighbor-cache entry. Crash (down) and
// link/partition state are deliberately NOT cached: they are checked per
// frame from live state, so fault injection needs no cache coherence to
// stay bit-identical.
type neighbor struct {
	r     *Radio
	delay sim.Time
	power float64
	inRx  bool
}

// reception is the frame a radio is locked on. It is meaningful only
// while rxLive is set; a finished reception is left in place, not
// cleared, so ending one writes no pointer.
type reception struct {
	pkt      *packet.Packet
	power    float64
	from     int32 // transmitter's radio ID
	collided bool
}

// fanout is one transmitted frame's cursor through its signal events. A
// frame heard by k live receivers has 2k+1 events: a start and an end at
// every receiver and the transmitter's own tx-done. Transmit reserves
// their sequence numbers in one block, in the order one schedule call per
// event would have taken them (receiver i in ID order gets start s0+2i
// and end s0+2i+1, tx-done gets s0+2k), but the fanout keeps at most its
// next event in the queue and fires each next event from that same entry
// while it leads the queue (see Fire). Each step fires the earliest of three
// sorted streams, merged by (at, seq): starts by (delay, ID), the
// tx-done, and ends by (delay, ID). Every callback therefore runs at
// exactly the key it would have had with all 2k+1 events queued up
// front.
type fanout struct {
	from    *Radio
	pkt     *packet.Packet
	air     sim.Time
	done    sim.Time // tx-done key: transmit time + airtime, s0+2k
	doneSeq uint64
	rx      []fanRx // live receivers in (delay, ID) order
	// Cursor: the next start and the next end to fire, whether the
	// tx-done has fired, and which of the three fires at the queued key.
	starts, ends int
	txDone       bool
	step         fanStep
}

// fanRx is one receiver's part of a fanout: its start key (at, seq); its
// end key is (at+air, seq+1). It names the receiver by radio ID, so
// filling a fanout copies no pointer.
type fanRx struct {
	at    sim.Time
	seq   uint64
	power float64
	id    int32
	inRx  bool
}

type fanStep uint8

const (
	stepStart fanStep = iota
	stepEnd
	stepTxDone
)

func (c *Channel) getFanout() *fanout {
	if n := len(c.fanouts); n > 0 {
		f := c.fanouts[n-1]
		c.fanouts[n-1] = nil
		c.fanouts = c.fanouts[:n-1]
		return f
	}
	return &fanout{}
}

// putFanout pools f. Its frame and transmitter stay behind until
// Transmit overwrites them, so pooling writes no pointer.
func (c *Channel) putFanout(f *fanout) {
	f.rx = f.rx[:0]
	f.starts, f.ends, f.txDone = 0, 0, false
	c.fanouts = append(c.fanouts, f)
}

// next returns the key of f's earliest unfired event and which of the
// three streams it belongs to; ok is false when all 2k+1 have fired.
func (f *fanout) next() (at sim.Time, seq uint64, step fanStep, ok bool) {
	at, seq, step = f.done, f.doneSeq, stepTxDone
	if f.txDone {
		at, seq = math.MaxInt64, math.MaxUint64
	}
	if f.starts < len(f.rx) {
		if e := &f.rx[f.starts]; e.at < at || (e.at == at && e.seq < seq) {
			at, seq, step = e.at, e.seq, stepStart
		}
	}
	if f.ends < len(f.rx) {
		e := &f.rx[f.ends]
		if ea := e.at + f.air; ea < at || (ea == at && e.seq+1 < seq) {
			at, seq, step = ea, e.seq+1, stepEnd
		}
	}
	return at, seq, step, seq != math.MaxUint64
}

// Fire runs the signal events of a fanout, starting with the one at the
// queued key. After each event's callback it claims the next key with the
// simulator's FireAt, firing it from this queue entry while it leads the
// queue: a frame's events fall within about a microsecond of each other,
// long before any reply the callbacks schedule. When the claim is
// declined, because a callback scheduled an earlier event, another event
// is due first, or the run's horizon falls before the key, FireAt queues
// the key with the cursor and Fire returns. After the last key the fanout
// returns to the pool before that key's callback runs, since the callback
// may transmit and take it back.
func (f *fanout) Fire() {
	s := f.from.ch.sim
	from, pkt := f.from, f.pkt
	for {
		// Consume the current event.
		var to *Radio
		var power float64
		var inRx bool
		step := f.step
		switch step {
		case stepStart:
			e := &f.rx[f.starts]
			to, power, inRx = from.ch.radios[e.id], e.power, e.inRx
			f.starts++
		case stepEnd:
			to = from.ch.radios[f.rx[f.ends].id]
			f.ends++
		default:
			f.txDone = true
		}
		at, seq, next, ok := f.next()
		if ok {
			f.step = next
		} else {
			from.ch.putFanout(f)
		}
		switch step {
		case stepStart:
			to.signalStart(from, pkt, power, inRx)
		case stepEnd:
			to.signalEnd(from, pkt)
		default:
			from.transmitting = false
			from.mac.OnTxDone(pkt)
		}
		if !ok {
			return
		}
		if !s.FireAt(at, seq, f) {
			return
		}
	}
}

// ID returns the radio's channel index.
func (r *Radio) ID() int { return r.id }

// Position returns the radio's current location.
func (r *Radio) Position() topo.Position { return r.pos }

// CarrierBusy reports physical carrier sense: true while any external
// signal is present. The radio's own transmission is not included; the MAC
// tracks that itself.
func (r *Radio) CarrierBusy() bool { return r.sensed > 0 }

// Transmitting reports whether the radio is on the air.
func (r *Radio) Transmitting() bool { return r.transmitting }

// SetDown silences (or revives) the radio. While down it radiates
// nothing and delivers nothing up; any reception in progress is
// abandoned. Signals already in flight from this radio keep propagating
// (they left the antenna before the crash).
func (r *Radio) SetDown(down bool) {
	r.down = down
	if down {
		r.rxLive = false
	}
}

// Down reports whether the radio is silenced.
func (r *Radio) Down() bool { return r.down }

// Stats returns cumulative counters: frames sent, delivered to this radio
// intact, corrupted by collision, and dropped by channel error.
func (r *Radio) Stats() (sent, delivered, collided, chanError uint64) {
	return r.framesSent, r.framesDelivered, r.framesCollided, r.framesError
}

// rebuildNeighbors recomputes the radio's neighbor cache from the
// spatial grid: every other radio within CSRange, with its propagation
// delay, received power and in-rx-range flag, sorted by radio ID, plus
// the (delay, ID) order of those entries. The computed values are the
// exact same float expressions the per-frame scan evaluated, so cached
// and uncached runs are bit-identical.
func (r *Radio) rebuildNeighbors() {
	c := r.ch
	r.nb = r.nb[:0]
	cs := c.cfg.CSRange
	lo := c.cellOf(topo.Position{X: r.pos.X - cs, Y: r.pos.Y - cs})
	hi := c.cellOf(topo.Position{X: r.pos.X + cs, Y: r.pos.Y + cs})
	for cy := lo.y; cy <= hi.y; cy++ {
		for cx := lo.x; cx <= hi.x; cx++ {
			for _, o := range c.grid[gridCell{x: cx, y: cy}] {
				if o == r {
					continue
				}
				d := topo.Dist(r.pos, o.pos)
				if d > cs {
					continue
				}
				r.nb = append(r.nb, neighbor{
					r:     o,
					delay: c.propDelay(d),
					power: c.rxPower(d),
					inRx:  d <= c.cfg.TxRange,
				})
			}
		}
	}
	slices.SortFunc(r.nb, func(a, b neighbor) int { return a.r.id - b.r.id })
	r.byDelay = r.byDelay[:0]
	for i := range r.nb {
		r.byDelay = append(r.byDelay, int32(i))
	}
	// nb is in ID order, so comparing indices breaks delay ties by ID.
	nb := r.nb
	slices.SortFunc(r.byDelay, func(a, b int32) int {
		if da, db := nb[a].delay, nb[b].delay; da != db {
			if da < db {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	r.nbEpoch = c.epoch
}

// Transmit puts pkt on the air for airtime. The MAC must ensure the radio
// is not already transmitting. Any reception in progress at this radio is
// destroyed (half-duplex).
func (r *Radio) Transmit(pkt *packet.Packet, airtime sim.Time) {
	if r.transmitting {
		panic(fmt.Sprintf("phy: radio %d already transmitting", r.id))
	}
	r.transmitting = true
	r.framesSent++
	// Own transmission stomps any frame being received.
	r.rxLive = false
	c := r.ch
	f := c.getFanout()
	f.from, f.pkt, f.air = r, pkt, airtime
	f.done = c.sim.Now() + airtime
	if r.down {
		// Crashed radio: complete the local transmit cycle so the MAC
		// state machine stays consistent, but radiate nothing — a fanout
		// with no receivers.
		f.doneSeq = c.sim.Reserve(1)
	} else {
		r.fanOut(f)
	}
	// The tx-done is unfired, so there is a first key.
	at, seq, step, _ := f.next()
	f.step = step
	c.sim.AtSeq(at, seq, f)
}

// fanOut reserves the frame's 2k+1 sequence numbers and fills f.rx with
// its k live receivers in (delay, ID) order. Crash and link/partition
// state are read per frame — only geometry is trusted from the cache — so
// fault injection mid-run behaves exactly as the uncached scan did; down
// or muted receivers take no sequence numbers at all.
func (r *Radio) fanOut(f *fanout) {
	c := r.ch
	if r.nbEpoch != c.epoch {
		r.rebuildNeighbors()
	}
	if cap(c.rank) < len(r.nb) {
		c.rank = make([]int32, len(r.nb))
	}
	rank := c.rank[:len(r.nb)]
	faulty := c.blocked != nil || c.group != nil
	live := 0
	for i := range r.nb {
		other := r.nb[i].r
		if other.down || (faulty && !c.linkOpen(r.id, other.id)) {
			rank[i] = -1
			continue
		}
		rank[i] = int32(live)
		live++
	}
	s0 := c.sim.Reserve(2*live + 1)
	f.doneSeq = s0 + 2*uint64(live)
	now := c.sim.Now()
	for _, i := range r.byDelay {
		if rank[i] < 0 {
			continue
		}
		nb := &r.nb[i]
		f.rx = append(f.rx, fanRx{id: int32(nb.r.id), at: now + nb.delay, seq: s0 + 2*uint64(rank[i]), power: nb.power, inRx: nb.inRx})
	}
}

func (r *Radio) signalStart(from *Radio, pkt *packet.Packet, power float64, inRxRange bool) {
	r.sensed++
	if r.sensed == 1 {
		r.mac.OnCarrierBusy()
	}
	if !inRxRange {
		// Interference-only signal: corrupts a reception in progress
		// unless the reception is strong enough to capture over it.
		if r.rxLive && !r.ch.captures(r.rx.power, power) {
			r.rx.collided = true
		}
		return
	}
	switch {
	case r.down:
		// Crashed mid-flight: the signal still occupies the air around
		// the radio (sensed count stays balanced) but is never received.
	case r.transmitting:
		// Half-duplex: frame missed entirely.
	case r.rxLive:
		// Overlap at the receiver. The in-progress frame survives only
		// if it captures over the new arrival (NS-2 semantics: the
		// radio stays locked on the first signal either way, so the new
		// frame is never received).
		if !r.ch.captures(r.rx.power, power) {
			r.rx.collided = true
		}
	default:
		r.rx = reception{from: int32(from.id), pkt: pkt, power: power}
		r.rxLive = true
	}
}

// rxPower returns the received signal power at distance d under the
// configured power-law propagation model. Only ratios matter.
func (c *Channel) rxPower(d float64) float64 {
	if c.cfg.CaptureRatio <= 0 {
		return 1
	}
	if d < 1 {
		d = 1
	}
	return math.Pow(d, -c.cfg.PathLossExponent)
}

// captures reports whether a reception at rxPower survives an overlapping
// signal at intfPower.
func (c *Channel) captures(rxPower, intfPower float64) bool {
	return c.cfg.CaptureRatio > 0 && rxPower >= c.cfg.CaptureRatio*intfPower
}

func (r *Radio) signalEnd(from *Radio, pkt *packet.Packet) {
	// Deliver the frame before reporting carrier-idle so the MAC knows
	// whether the medium went idle after a corrupted frame (EIFS rule).
	r.deliver(from, pkt)
	r.sensed--
	if r.sensed == 0 {
		r.mac.OnCarrierIdle()
	}
}

func (r *Radio) deliver(from *Radio, pkt *packet.Packet) {
	if r.down || !r.rxLive || r.rx.from != int32(from.id) || r.rx.pkt != pkt {
		return // crashed, or this signal was not the one being received
	}
	rx := r.rx
	r.rxLive = false
	if r.transmitting {
		return // started transmitting mid-reception; frame destroyed
	}
	if rx.collided {
		r.framesCollided++
		r.mac.OnReceive(pkt, false)
		return
	}
	if r.ch.lossDraw(pkt) {
		r.framesError++
		r.mac.OnReceive(pkt, false)
		return
	}
	r.framesDelivered++
	r.mac.OnReceive(pkt, true)
}

// TxTime reports the airtime of a frame of the given size; see
// Channel.TxTime.
func (r *Radio) TxTime(bytes int, control bool) sim.Time {
	return r.ch.TxTime(bytes, control)
}

// lossDraw returns true when the channel's random-loss model corrupts pkt.
func (c *Channel) lossDraw(pkt *packet.Packet) bool {
	if g := c.ge; g != nil {
		// Advance the Gilbert–Elliott chain one step per frame, then
		// apply the state's loss rate. Bursty fading corrupts control
		// frames too.
		if g.bad {
			if c.sim.Rand().Float64() < g.pBadGood {
				g.bad = false
			}
		} else if c.sim.Rand().Float64() < g.pGoodBad {
			g.bad = true
		}
		p := g.lossGood
		if g.bad {
			p = g.lossBad
		}
		if p > 0 && c.sim.Rand().Float64() < p {
			return true
		}
	}
	if c.cfg.PacketErrorRate > 0 && pkt.Kind != packet.KindMACControl {
		if c.sim.Rand().Float64() < c.cfg.PacketErrorRate {
			return true
		}
	}
	return false
}
