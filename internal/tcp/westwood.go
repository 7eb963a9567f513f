package tcp

import (
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// Westwood implements TCP Westwood (Mascolo et al., GLOBECOM 2001):
// NewReno mechanics with an eligible-rate estimate maintained from ACK
// arrivals. On loss, instead of blind halving, the slow-start threshold
// is set to the estimated bandwidth-delay product (BWE x RTTmin) — the
// "faster recovery" that makes Westwood robust to non-congestive loss.
type Westwood struct {
	bwe     float64 // smoothed bandwidth estimate, bytes/s
	lastAck sim.Time
	minRTT  sim.Time
	rec     Recovery
}

// NewWestwood returns the Westwood variant.
func NewWestwood() *Westwood { return &Westwood{} }

// sampleBandwidth folds one ACK arrival into the low-pass-filtered
// bandwidth estimate.
func (w *Westwood) sampleBandwidth(s *Sender, acked int64) {
	now := s.Now()
	if w.lastAck > 0 {
		dt := (now - w.lastAck).Seconds()
		if dt > 0 {
			sample := float64(acked) / dt
			// First-order low-pass filter (the paper's discrete Tustin
			// approximation reduces to an EWMA at ACK granularity).
			const gain = 0.1
			if w.bwe == 0 {
				w.bwe = sample
			} else {
				w.bwe = (1-gain)*w.bwe + gain*sample
			}
		}
	}
	w.lastAck = now
	if rtt := s.LastRTT(); rtt > 0 && (w.minRTT == 0 || rtt < w.minRTT) {
		w.minRTT = rtt
	}
}

// erePipe returns the eligible window in segments: BWE x RTTmin / MSS,
// floored at two segments. Zero when no estimate exists yet.
func (w *Westwood) erePipe(s *Sender) float64 {
	if w.bwe == 0 || w.minRTT == 0 {
		return 0
	}
	seg := w.bwe * w.minRTT.Seconds() / float64(s.MSS())
	if seg < 2 {
		seg = 2
	}
	return seg
}

// OnNewAck implements Variant.
func (w *Westwood) OnNewAck(s *Sender, ack *packet.Packet, acked int64) {
	w.sampleBandwidth(s, acked)
	if w.rec.Active() {
		if w.rec.OnNewAck(s, ack) {
			s.SetCwnd(s.Ssthresh())
		}
		return
	}
	slowStartOrAvoid(s)
}

// OnDupAck implements Variant.
func (w *Westwood) OnDupAck(s *Sender, _ *packet.Packet, n int) {
	if !w.rec.OnDupAck(s, n) {
		return
	}
	if pipe := w.erePipe(s); pipe > 0 {
		// Faster recovery: shrink only to the measured pipe size.
		s.SetSsthresh(pipe)
	} else {
		s.SetSsthresh(halfFlight(s))
	}
	if s.Cwnd() > s.Ssthresh() {
		s.SetCwnd(s.Ssthresh() + 3)
	}
}

// OnTimeout implements Variant.
func (w *Westwood) OnTimeout(s *Sender) {
	w.rec.Leave()
	if pipe := w.erePipe(s); pipe > 0 {
		s.SetSsthresh(pipe)
	} else {
		s.SetSsthresh(halfFlight(s))
	}
	s.SetCwnd(1)
}

var _ Variant = (*Westwood)(nil)
