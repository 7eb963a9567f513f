package core

import (
	"muzha/internal/packet"
	"muzha/internal/sim"
	"muzha/internal/tcp"
)

// Muzha is the TCP Muzha sender-side congestion control (Chapter 4,
// Table 4.1). Unlike the classical variants it never probes with slow
// start: the session starts directly in congestion avoidance (CA) and,
// once per RTT, applies the multi-level rate adjustment recommended by
// the routers along the path (the MRAI echoed in ACKs, acted on per
// Table 5.2). Loss handling distinguishes congestion from random loss via
// router congestion marks:
//
//   - three duplicate ACKs carrying a congestion mark: congestion —
//     halve CWND and enter FF (fast retransmit & recovery);
//   - three unmarked duplicate ACKs: random loss — retransmit without
//     touching CWND;
//   - retransmission timeout: CWND = 1, remain in CA.
//
// Deviation from the thesis text: the thesis says "three marked duplicate
// ACKs" without defining whether all three must be marked; we classify
// the loss as congestion-induced if any of the three is marked, which is
// robust to marking jitter at the onset of congestion.
type Muzha struct {
	// MarkedMeansCongestion enables the Section 4.7 random-loss
	// discrimination: halve only when the dup ACKs carry a router
	// congestion mark. When disabled (ablation), every dup-ACK loss is
	// treated as congestion, like classical TCP.
	MarkedMeansCongestion bool
	// MinOperatingWindow is the window (segments) below which the sender
	// probes +1 per RTT even without a router acceleration grant. Router
	// recommendations reflect total load, so a flow sharing a bottleneck
	// with a loss-probing competitor would otherwise be pinned at one
	// segment — where every loss is a full RTO stall — by congestion the
	// competitor causes. Below this floor dup-ACK recovery barely works
	// anyway, so the minimal probe restores liveness without overriding
	// the routers in the operating range.
	MinOperatingWindow float64

	ff         tcp.Recovery // the FF (fast retransmit & recovery) phase
	exitCwnd   float64      // window to restore when FF completes
	minMRAI    int          // minimum MRAI echoed since the last adjustment
	markedSeen bool         // any marked dup ACK in the current dup-ACK run
	lastAdjust sim.Time
}

// NewMuzha returns the Muzha congestion-control variant.
func NewMuzha() *Muzha {
	return &Muzha{MarkedMeansCongestion: true, MinOperatingWindow: 4}
}

// NewMuzhaSender wires a complete TCP Muzha sender: the Muzha variant
// plus AVBW-S stamping on every outgoing segment.
func NewMuzhaSender(s *sim.Simulator, send func(*packet.Packet), cfg tcp.SenderConfig) (*tcp.Sender, error) {
	cfg.StampAVBW = true
	return tcp.NewSender(s, send, cfg, NewMuzha())
}

// OnNewAck implements tcp.Variant: CA-phase window adjustment driven by
// router recommendations, once per RTT.
func (m *Muzha) OnNewAck(s *tcp.Sender, ack *packet.Packet, _ int64) {
	m.markedSeen = false
	m.noteMRAI(ack)

	if m.ff.Active() {
		// NewReno-style loss recovery, inherited per Section 4.8: a
		// partial acknowledgement resends the next hole and stays in
		// FF; the full one completes FF and deflates the inflated
		// window back to the value decided at entry (halved for
		// congestion loss, unchanged for random loss).
		if m.ff.OnNewAck(s, ack) {
			s.SetCwnd(m.exitCwnd)
		}
		return
	}

	rtt := s.SRTT()
	if rtt <= 0 {
		rtt = 10 * sim.Millisecond
	}
	if s.Now()-m.lastAdjust < rtt {
		return
	}
	m.lastAdjust = s.Now()
	before := s.Cwnd()
	if m.minMRAI > 0 {
		next := ApplyDRAI(before, m.minMRAI)
		if m.minMRAI <= DRAIModerateDecel && next < m.MinOperatingWindow && before >= next {
			// Deceleration recommendations stop at the minimum
			// operating window; only losses and timeouts go below it.
			next = m.MinOperatingWindow
			if before < next {
				next = before
			}
		}
		s.SetCwnd(next)
		m.minMRAI = 0
	}
	if s.Cwnd() <= before && before < m.MinOperatingWindow {
		// No acceleration granted while below the minimum operating
		// window: probe up to the floor at slow-start speed to stay
		// live (see MinOperatingWindow).
		next := before * 2
		if next > m.MinOperatingWindow {
			next = m.MinOperatingWindow
		}
		s.SetCwnd(next)
	}
}

// OnDupAck implements tcp.Variant: the marked/unmarked dup-ACK
// discrimination of Section 4.7.
func (m *Muzha) OnDupAck(s *tcp.Sender, ack *packet.Packet, n int) {
	m.noteMRAI(ack)
	if ack.TCP.Echo.Marked {
		m.markedSeen = true
	}
	// During FF each extra dup ACK inflates the window to keep the ACK
	// clock alive (inherited from NewReno, Section 4.8); the window
	// deflates to exitCwnd when FF completes.
	if !m.ff.OnDupAck(s, n) {
		return
	}
	m.exitCwnd = s.Cwnd()
	if !m.MarkedMeansCongestion || m.markedSeen {
		// Congestion loss: fast respond and halve (Table 4.1 row 2).
		// Without discrimination every loss lands here.
		m.exitCwnd = s.Cwnd() / 2
		if m.exitCwnd < 1 {
			m.exitCwnd = 1
		}
	}
	// Random loss: retransmit only, window untouched (Table 4.1 row 3).
	// Either way, during FF the operative window is exitCwnd plus the
	// three dup ACKs already seen.
	s.SetCwnd(m.exitCwnd + 3)
	m.markedSeen = false
}

// OnTimeout implements tcp.Variant: CWND collapses to one segment and
// the sender stays in (re-enters) CA — Muzha has no slow-start phase
// (Table 4.1 row 4).
func (m *Muzha) OnTimeout(s *tcp.Sender) {
	m.ff.Leave()
	m.minMRAI = 0
	s.SetCwnd(1)
}

// noteMRAI folds an ACK's echoed path recommendation into the running
// per-RTT minimum (each echo is itself the minimum along the forward
// path, per the AVBW-S min-stamping).
func (m *Muzha) noteMRAI(ack *packet.Packet) {
	if mrai := ack.TCP.Echo.MRAI; mrai > 0 {
		if m.minMRAI == 0 || mrai < m.minMRAI {
			m.minMRAI = mrai
		}
	}
}

var _ tcp.Variant = (*Muzha)(nil)
