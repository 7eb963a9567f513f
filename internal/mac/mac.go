// Package mac implements the IEEE 802.11 Distributed Coordination
// Function (DCF): CSMA/CA with slotted binary-exponential backoff,
// optional RTS/CTS virtual carrier sensing (NAV), SIFS-spaced
// control-frame exchanges, EIFS deferral after corrupted frames, and
// retry limits that report link failures to the routing layer.
//
// The model matches the NS-2 802.11 MAC the paper's simulations use:
// every unicast data frame is protected by RTS/CTS (NS-2's default RTS
// threshold of 0), broadcast frames are sent unprotected after backoff,
// and retry exhaustion is the signal AODV interprets as a broken link.
package mac

import (
	"fmt"

	"muzha/internal/packet"
	"muzha/internal/phy"
	"muzha/internal/sim"
)

// Upper is the interface the network layer provides to the MAC.
type Upper interface {
	// OnMACReceive delivers an intact, deduplicated frame addressed to
	// this node (or broadcast).
	OnMACReceive(pkt *packet.Packet)
	// OnTxSuccess reports that pkt was delivered (MAC ACK received, or
	// broadcast transmitted).
	OnTxSuccess(pkt *packet.Packet)
	// OnTxFail reports that pkt was dropped after exhausting MAC
	// retries; routing treats this as a link failure to pkt.MACDst.
	OnTxFail(pkt *packet.Packet)
	// NextFrame hands the MAC the next frame to transmit, or nil when
	// the interface queue is empty.
	NextFrame() *packet.Packet
}

// Config holds DCF timing and retry parameters. Defaults follow 802.11
// DSSS at 2 Mbps, matching the paper's Table 5.1 setup.
type Config struct {
	SlotTime sim.Time
	SIFS     sim.Time
	DIFS     sim.Time
	CWMin    int // initial contention window (slots-1)
	CWMax    int
	// ShortRetryLimit bounds RTS attempts and unprotected unicast data
	// attempts (802.11 SSRC, dot11ShortRetryLimit = 7).
	ShortRetryLimit int
	// LongRetryLimit bounds RTS-protected data attempts
	// (802.11 SLRC, dot11LongRetryLimit = 4).
	LongRetryLimit int
	// RTSThreshold is the frame size in bytes at or above which RTS/CTS
	// is used. 0 protects every unicast frame (the NS-2 default).
	RTSThreshold int
}

// DefaultConfig returns 802.11 DSSS parameters.
func DefaultConfig() Config {
	return Config{
		SlotTime:        20 * sim.Microsecond,
		SIFS:            10 * sim.Microsecond,
		DIFS:            50 * sim.Microsecond,
		CWMin:           31,
		CWMax:           1023,
		ShortRetryLimit: 7,
		LongRetryLimit:  4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SlotTime <= 0 || c.SIFS <= 0 || c.DIFS <= c.SIFS:
		return fmt.Errorf("mac: bad timing: slot=%v sifs=%v difs=%v", c.SlotTime, c.SIFS, c.DIFS)
	case c.CWMin < 1 || c.CWMax < c.CWMin:
		return fmt.Errorf("mac: bad contention window: min=%d max=%d", c.CWMin, c.CWMax)
	case c.ShortRetryLimit < 1 || c.LongRetryLimit < 1:
		return fmt.Errorf("mac: retry limits must be >= 1: short=%d long=%d", c.ShortRetryLimit, c.LongRetryLimit)
	case c.RTSThreshold < 0:
		return fmt.Errorf("mac: negative RTS threshold %d", c.RTSThreshold)
	}
	return nil
}

type state int

const (
	stateIdle state = iota + 1
	stateContend
	stateAwaitCTS
	stateAwaitACK
)

// Stats are cumulative MAC counters.
type Stats struct {
	DataSent   uint64 // data/routing frames put on the air (incl. retries)
	DataRecv   uint64 // intact frames delivered up
	RTSSent    uint64
	CTSSent    uint64
	ACKSent    uint64
	Retries    uint64 // retry attempts (RTS or data)
	Drops      uint64 // frames dropped at retry limit (link failures)
	Duplicates uint64 // duplicate receptions suppressed
}

// DCF is one node's 802.11 MAC instance. All methods must be called from
// simulator context (single-threaded).
type DCF struct {
	sim   *sim.Simulator
	radio *phy.Radio
	cfg   Config
	self  packet.NodeID
	up    Upper

	st           state
	cur          *packet.Packet // frame being delivered
	usingRTS     bool
	cw           int
	backoffSlots int
	ssrc, slrc   int

	navUntil  sim.Time
	useEIFS   bool
	deferT    *sim.Timer   // end of the DIFS/EIFS wait plus every remaining backoff slot
	slotStart sim.Time     // when the armed countdown's first backoff slot begins
	navT      *sim.Timer   // wake-up at NAV expiry
	timeout   *sim.Timer   // CTS/ACK timeout
	respEv    sim.EventRef // SIFS-scheduled response transmission
	respBusy  bool         // respFrame is scheduled or on the air
	lastSeen  map[packet.NodeID]uint64
	eifs      sim.Time
	ctsWait   sim.Time // timeout after RTS leaves the air
	ackWait   sim.Time // timeout after DATA leaves the air
	dataAfter *packet.Packet

	// Event callbacks, bound once in New. Every Schedule in this file
	// passes one of these stored funcs: a closure or method value built
	// per call would cost one heap allocation per event.
	sendRespFn  func()
	dataAfterFn func()

	// rtsFrame and respFrame are this MAC's only control frames, rewritten
	// in place for every exchange instead of allocated. Reuse is safe
	// because a DCF never has two RTSs, or two responses, on the air at
	// once, and a rewrite happens only when a new one starts. The next
	// RTS waits at least DIFS (or the CTS timeout) after the previous
	// one's OnTxDone; the next CTS/ACK answers a whole frame received
	// after the previous response left the air. Both are later than
	// every receiver's signalEnd for the previous copy, which trails
	// OnTxDone by the propagation delay (under 2 µs at the default
	// 550 m carrier-sense range). Receivers read a control frame only
	// inside OnReceive, and phy compares in-flight frames only by
	// identity within one flight, so no reader ever sees a rewrite.
	rtsFrame  packet.Packet
	respFrame packet.Packet

	// Channel-utilization estimator: exact integration of the time the
	// medium is busy (sensed signal or own transmission), folded into an
	// EWMA once per utilWindow. Feeds the Muzha DRAI (available
	// bandwidth estimation, Section 4.3 of the paper).
	busy      bool
	busySince sim.Time
	winStart  sim.Time
	winBusy   sim.Time
	util      float64

	stats Stats
}

// utilWindow is the utilization sampling period; utilGain the EWMA weight
// of each new window.
const (
	utilWindow = 100 * sim.Millisecond
	utilGain   = 0.3
)

// New attaches a DCF MAC to a radio. self is this node's address; up is
// the network layer.
func New(s *sim.Simulator, radio *phy.Radio, self packet.NodeID, up Upper, cfg Config) (*DCF, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctsAir := radio.TxTime(packet.CTSSize, true)
	ackAir := radio.TxTime(packet.MACACKSize, true)
	m := &DCF{
		sim:      s,
		radio:    radio,
		cfg:      cfg,
		self:     self,
		up:       up,
		st:       stateIdle,
		cw:       cfg.CWMin,
		lastSeen: make(map[packet.NodeID]uint64),
		// EIFS = SIFS + ACK airtime + DIFS (802.11-1999 9.2.3.4).
		eifs: cfg.SIFS + ackAir + cfg.DIFS,
		// Timeouts: SIFS turnaround + response airtime + slack for
		// propagation and slot alignment.
		ctsWait: cfg.SIFS + ctsAir + 2*cfg.SlotTime,
		ackWait: cfg.SIFS + ackAir + 2*cfg.SlotTime,
	}
	m.sendRespFn = m.sendResponse
	m.dataAfterFn = m.sendDataAfterCTS
	m.timeout = sim.NewTimer(s, m.onTimeout)
	// A paused countdown and a superseded NAV wake-up stop their timer;
	// the next Reset revives the same queue slot.
	m.deferT = sim.NewTimer(s, m.backoffDone)
	m.navT = sim.NewTimer(s, m.resume)
	m.winStart = s.Now()
	m.busySince = s.Now()
	return m, nil
}

// Utilization returns the smoothed fraction of time the medium around
// this node is busy, in [0,1]. Folding is lazy: each call at least one
// utilWindow after the previous fold blends the window's busy fraction
// into the EWMA.
func (m *DCF) Utilization() float64 {
	now := m.sim.Now()
	if m.busy {
		m.winBusy += now - m.busySince
		m.busySince = now
	}
	if w := now - m.winStart; w >= utilWindow {
		m.util = (1-utilGain)*m.util + utilGain*float64(m.winBusy)/float64(w)
		m.winStart = now
		m.winBusy = 0
	}
	return m.util
}

// refreshBusy re-evaluates the busy state and integrates elapsed busy
// time. Called on every carrier or transmit transition.
func (m *DCF) refreshBusy() {
	b := m.radio.CarrierBusy() || m.radio.Transmitting()
	if b == m.busy {
		return
	}
	now := m.sim.Now()
	if m.busy {
		m.winBusy += now - m.busySince
	}
	m.busy = b
	m.busySince = now
}

// Stats returns a copy of the MAC counters.
func (m *DCF) Stats() Stats { return m.stats }

// Reset wipes all volatile MAC state — the frame in flight, contention
// and retry counters, pending responses, the NAV, and the duplicate
// cache — returning the MAC to a cold-start idle. Used by fault
// injection when the node crashes; cumulative stats survive. Late PHY
// upcalls for frames that were in flight at reset time are ignored by
// the idle state machine.
func (m *DCF) Reset() {
	m.st = stateIdle
	m.cur = nil
	m.dataAfter = nil
	m.usingRTS = false
	m.cw = m.cfg.CWMin
	m.backoffSlots = 0
	m.ssrc, m.slrc = 0, 0
	m.cancelDefer()
	m.timeout.Stop()
	m.respEv.Cancel()
	m.respEv = sim.EventRef{}
	m.respBusy = false
	m.navUntil = 0
	m.useEIFS = false
	clear(m.lastSeen)
	m.refreshBusy()
}

// Idle reports whether the MAC has no frame in flight and is not
// contending.
func (m *DCF) Idle() bool { return m.st == stateIdle && m.cur == nil }

// Kick tells the MAC that the interface queue became non-empty. If the
// MAC is idle it pulls the next frame and begins channel access.
func (m *DCF) Kick() {
	if !m.Idle() {
		return
	}
	if next := m.up.NextFrame(); next != nil {
		m.start(next)
	}
}

func (m *DCF) start(pkt *packet.Packet) {
	m.cur = pkt
	m.usingRTS = pkt.MACDst != packet.Broadcast &&
		pkt.Size+packet.MACHeaderSize >= m.cfg.RTSThreshold
	m.st = stateContend
	m.backoffSlots = m.sim.Rand().Intn(m.cw + 1)
	m.resume()
}

// mediumBusy reports whether channel access must pause: physical carrier,
// our own transmission, a scheduled response, or virtual carrier (NAV).
func (m *DCF) mediumBusy() bool {
	return m.radio.CarrierBusy() || m.radio.Transmitting() || m.respBusy ||
		m.sim.Now() < m.navUntil
}

// resume re-evaluates channel access. Idempotent: safe to call from any
// wake-up source. With the medium idle it arms the backoff countdown as
// one event, as NS-2's backoff timer does: the frame goes out after the
// DIFS (or EIFS) wait plus every remaining slot, unless cancelDefer
// pauses the countdown first. Stations whose countdowns end at the same
// instant fire in the order they armed them.
func (m *DCF) resume() {
	if m.st != stateContend {
		return
	}
	m.cancelDefer()
	if m.mediumBusy() {
		// If only the NAV blocks us, nothing else will wake us up:
		// schedule a recheck at NAV expiry.
		if now := m.sim.Now(); now < m.navUntil {
			m.navT.Reset(m.navUntil - now)
		}
		return
	}
	wait := m.cfg.DIFS
	if m.useEIFS {
		wait = m.eifs
	}
	m.slotStart = m.sim.Now() + wait
	m.deferT.Reset(wait + sim.Time(m.backoffSlots)*m.cfg.SlotTime)
}

// cancelDefer pauses channel access. Every carrier, NAV or response
// pause reaches it. A countdown paused while contending keeps the whole
// idle slots that elapsed before the pause; the slot in progress is
// lost, so the next resume waits DIFS (or EIFS) and then the remaining
// slots.
func (m *DCF) cancelDefer() {
	if m.deferT.Stop() && m.st == stateContend {
		if idle := m.sim.Now() - m.slotStart; idle > 0 {
			m.backoffSlots -= int(idle / m.cfg.SlotTime)
		}
	}
	m.navT.Stop()
}

// backoffDone ends a countdown that ran out with the medium idle
// throughout: every slot has elapsed, so the frame goes out.
func (m *DCF) backoffDone() {
	m.backoffSlots = 0
	if m.st != stateContend || m.mediumBusy() {
		return
	}
	m.transmitCur()
}

func (m *DCF) transmitCur() {
	pkt := m.cur
	if m.usingRTS {
		m.sendRTS(pkt)
		return
	}
	m.sendData(pkt)
}

func (m *DCF) dataAir(pkt *packet.Packet) sim.Time {
	return m.radio.TxTime(pkt.Size+packet.MACHeaderSize, false)
}

func (m *DCF) sendRTS(data *packet.Packet) {
	ctsAir := m.radio.TxTime(packet.CTSSize, true)
	ackAir := m.radio.TxTime(packet.MACACKSize, true)
	dur := 3*m.cfg.SIFS + ctsAir + m.dataAir(data) + ackAir
	m.rtsFrame = packet.Packet{
		Kind:   packet.KindMACControl,
		Ctrl:   packet.CtrlRTS,
		Size:   packet.RTSSize,
		MACSrc: m.self,
		MACDst: data.MACDst,
		MACDur: int64(dur),
	}
	m.st = stateAwaitCTS
	m.stats.RTSSent++
	m.radio.Transmit(&m.rtsFrame, m.radio.TxTime(packet.RTSSize, true))
	m.refreshBusy()
}

func (m *DCF) sendData(pkt *packet.Packet) {
	if pkt.MACDst == packet.Broadcast {
		pkt.MACDur = 0
	} else {
		ackAir := m.radio.TxTime(packet.MACACKSize, true)
		pkt.MACDur = int64(m.cfg.SIFS + ackAir)
	}
	pkt.MACSrc = m.self
	if pkt.MACDst == packet.Broadcast {
		m.st = stateContend // completes at OnTxDone
	} else {
		m.st = stateAwaitACK
	}
	m.stats.DataSent++
	m.radio.Transmit(pkt, m.dataAir(pkt))
	m.refreshBusy()
}

// OnTxDone implements phy.MAC.
func (m *DCF) OnTxDone(pkt *packet.Packet) {
	m.refreshBusy()
	switch {
	case m.respBusy && pkt == &m.respFrame:
		m.respBusy = false
		m.resume()
	case pkt == m.cur && pkt.MACDst == packet.Broadcast:
		m.finish(true)
	case pkt == m.cur && m.st == stateAwaitACK:
		m.timeout.Reset(m.ackWait)
	case pkt.Ctrl == packet.CtrlRTS && m.st == stateAwaitCTS:
		m.timeout.Reset(m.ctsWait)
	}
}

// OnCarrierBusy implements phy.MAC.
func (m *DCF) OnCarrierBusy() {
	m.refreshBusy()
	if m.st == stateContend {
		m.cancelDefer()
	}
}

// OnCarrierIdle implements phy.MAC.
func (m *DCF) OnCarrierIdle() {
	m.refreshBusy()
	m.resume()
}

// OnReceive implements phy.MAC.
func (m *DCF) OnReceive(pkt *packet.Packet, ok bool) {
	if !ok {
		// Corrupted frame: defer EIFS before the next contention round.
		m.useEIFS = true
		return
	}
	m.useEIFS = false
	if pkt.Kind == packet.KindMACControl {
		m.onControl(pkt)
		return
	}
	if pkt.MACDst == m.self {
		m.scheduleResponse(packet.CtrlACK, packet.MACACKSize, pkt.MACSrc, 0)
		if m.lastSeen[pkt.MACSrc] == pkt.UID {
			m.stats.Duplicates++
			return
		}
		m.lastSeen[pkt.MACSrc] = pkt.UID
		m.stats.DataRecv++
		m.up.OnMACReceive(pkt)
		return
	}
	if pkt.MACDst == packet.Broadcast {
		m.stats.DataRecv++
		m.up.OnMACReceive(pkt)
		return
	}
	// Overheard unicast data: honour its NAV reservation (protects the
	// SIFS-spaced MAC ACK).
	m.setNAV(pkt.MACDur)
}

func (m *DCF) onControl(pkt *packet.Packet) {
	switch pkt.Ctrl {
	case packet.CtrlRTS:
		if pkt.MACDst != m.self {
			m.setNAV(pkt.MACDur)
			return
		}
		if m.sim.Now() < m.navUntil {
			return // virtual carrier busy: stay silent (802.11 9.2.5.7)
		}
		ctsAir := m.radio.TxTime(packet.CTSSize, true)
		m.scheduleResponse(packet.CtrlCTS, packet.CTSSize, pkt.MACSrc,
			pkt.MACDur-int64(m.cfg.SIFS+ctsAir))
	case packet.CtrlCTS:
		if pkt.MACDst != m.self {
			m.setNAV(pkt.MACDur)
			return
		}
		if m.st != stateAwaitCTS || m.cur == nil {
			return
		}
		m.timeout.Stop()
		// Send the data frame one SIFS after the CTS.
		m.st = stateAwaitACK
		data := m.cur
		ackAir := m.radio.TxTime(packet.MACACKSize, true)
		data.MACSrc = m.self
		data.MACDur = int64(m.cfg.SIFS + ackAir)
		m.dataAfter = data
		m.sim.Schedule(m.cfg.SIFS, m.dataAfterFn)
	case packet.CtrlACK:
		if pkt.MACDst != m.self || m.st != stateAwaitACK {
			return
		}
		m.timeout.Stop()
		m.finish(true)
	}
}

func (m *DCF) sendDataAfterCTS() {
	data := m.dataAfter
	m.dataAfter = nil
	if data == nil || data != m.cur || m.st != stateAwaitACK {
		return
	}
	if m.radio.Transmitting() {
		// Should not happen (we stay silent between CTS and data), but
		// fail safe: count as a lost exchange via the ACK timeout.
		m.timeout.Reset(m.ackWait)
		return
	}
	m.stats.DataSent++
	m.radio.Transmit(data, m.dataAir(data))
	m.refreshBusy()
}

// scheduleResponse queues a SIFS-spaced control response (CTS or ACK)
// to dst. While a response is pending, this node's own contention is
// suppressed.
func (m *DCF) scheduleResponse(ctrl packet.Ctrl, size int, dst packet.NodeID, dur int64) {
	if m.respBusy {
		// Already answering another exchange; drop this response. The
		// peer will retry. respFrame may still be on the air, so it is
		// rewritten only past this check.
		return
	}
	m.respFrame = packet.Packet{
		Kind:   packet.KindMACControl,
		Ctrl:   ctrl,
		Size:   size,
		MACSrc: m.self,
		MACDst: dst,
		MACDur: dur,
	}
	m.respBusy = true
	if m.st == stateContend {
		m.cancelDefer()
	}
	m.respEv = m.sim.Schedule(m.cfg.SIFS, m.sendRespFn)
}

// sendResponse puts the pending response on the air one SIFS after the
// frame it answers.
func (m *DCF) sendResponse() {
	m.respEv = sim.EventRef{}
	if m.radio.Transmitting() {
		m.respBusy = false
		return
	}
	resp := &m.respFrame
	switch resp.Ctrl {
	case packet.CtrlCTS:
		m.stats.CTSSent++
	case packet.CtrlACK:
		m.stats.ACKSent++
	}
	m.radio.Transmit(resp, m.radio.TxTime(resp.Size, true))
	m.refreshBusy()
}

func (m *DCF) setNAV(durNanos int64) {
	if durNanos <= 0 {
		return
	}
	until := m.sim.Now() + sim.Time(durNanos)
	if until <= m.navUntil {
		return
	}
	m.navUntil = until
	if m.st == stateContend {
		m.cancelDefer()
		m.navT.Reset(m.navUntil - m.sim.Now())
	}
}

// onTimeout fires when an expected CTS or ACK did not arrive.
func (m *DCF) onTimeout() {
	switch m.st {
	case stateAwaitCTS:
		m.ssrc++
		m.stats.Retries++
		if m.ssrc >= m.cfg.ShortRetryLimit {
			m.finish(false)
			return
		}
	case stateAwaitACK:
		if m.usingRTS {
			m.slrc++
			m.stats.Retries++
			if m.slrc >= m.cfg.LongRetryLimit {
				m.finish(false)
				return
			}
		} else {
			m.ssrc++
			m.stats.Retries++
			if m.ssrc >= m.cfg.ShortRetryLimit {
				m.finish(false)
				return
			}
		}
	default:
		return
	}
	// Retry: double the contention window and re-contend.
	m.cw = min(2*m.cw+1, m.cfg.CWMax)
	m.st = stateContend
	m.backoffSlots = m.sim.Rand().Intn(m.cw + 1)
	m.resume()
}

// finish completes delivery of the current frame and pulls the next one.
func (m *DCF) finish(ok bool) {
	pkt := m.cur
	m.cur = nil
	m.dataAfter = nil
	m.st = stateIdle
	m.cw = m.cfg.CWMin
	m.ssrc, m.slrc = 0, 0
	m.cancelDefer()
	m.timeout.Stop()
	if ok {
		m.up.OnTxSuccess(pkt)
	} else {
		m.stats.Drops++
		m.up.OnTxFail(pkt)
	}
	if next := m.up.NextFrame(); next != nil {
		m.start(next)
	}
}

var _ phy.MAC = (*DCF)(nil)
