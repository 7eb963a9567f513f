package tcp

import (
	"muzha/internal/packet"
	"muzha/internal/sim"
)

// Jersey implements TCP Jersey (Xu, Tian & Ansari, JSAC 2004), the
// router-assisted comparison point the thesis discusses in Section 3.2.
// Two components:
//
//   - ABE (available bandwidth estimation): a time-sliding-window
//     estimator of the achieved rate from ACK arrivals, converted to an
//     optimal window ownd = ABE x RTT / MSS.
//   - CW (congestion warning): routers mark every packet once their
//     queue passes a threshold (this simulator's router marking); the
//     sender that sees a marked ACK performs rate control — window :=
//     ownd — without waiting for loss, and losses accompanied by marks
//     are treated as congestion while unmarked losses only trigger
//     retransmission with the window pinned to ownd.
type Jersey struct {
	abe        float64 // bytes/s, TSW-estimated
	lastUpdate sim.Time
	rec        Recovery
	lastRate   sim.Time // last CW-triggered rate control
}

// NewJersey returns the Jersey variant.
func NewJersey() *Jersey { return &Jersey{} }

// updateABE folds acked bytes into the time-sliding-window rate
// estimator (the paper's equation 4 with RTT-scale smoothing).
func (j *Jersey) updateABE(s *Sender, acked int64) {
	now := s.Now()
	rtt := s.SRTT()
	if rtt <= 0 {
		rtt = 100 * sim.Millisecond
	}
	if j.lastUpdate == 0 {
		j.lastUpdate = now
		return
	}
	dt := (now - j.lastUpdate).Seconds()
	j.lastUpdate = now
	if dt <= 0 {
		return
	}
	window := rtt.Seconds()
	sample := float64(acked) / dt
	// TSW: weight by elapsed time against one RTT of memory.
	w := dt / (dt + window)
	j.abe = (1-w)*j.abe + w*sample
}

// ownd returns the ABE-derived optimal window in segments (>= 2), or 0
// when no estimate exists.
func (j *Jersey) ownd(s *Sender) float64 {
	rtt := s.SRTT()
	if j.abe == 0 || rtt <= 0 {
		return 0
	}
	seg := j.abe * rtt.Seconds() / float64(s.MSS())
	if seg < 2 {
		seg = 2
	}
	return seg
}

// OnNewAck implements Variant.
func (j *Jersey) OnNewAck(s *Sender, ack *packet.Packet, acked int64) {
	j.updateABE(s, acked)
	if j.rec.Active() {
		if j.rec.OnNewAck(s, ack) {
			s.SetCwnd(s.Ssthresh())
		}
		return
	}
	// Congestion warning: a marked ACK triggers rate control at most
	// once per RTT.
	if ack.TCP.Echo.Marked {
		if rtt := s.SRTT(); rtt > 0 && s.Now()-j.lastRate >= rtt {
			j.lastRate = s.Now()
			if w := j.ownd(s); w > 0 && w < s.Cwnd() {
				s.SetSsthresh(w)
				s.SetCwnd(w)
				return
			}
		}
	}
	slowStartOrAvoid(s)
}

// OnDupAck implements Variant.
func (j *Jersey) OnDupAck(s *Sender, _ *packet.Packet, n int) {
	if !j.rec.OnDupAck(s, n) {
		return
	}
	// Rate-based recovery: the window target is the estimated optimal
	// window, not a blind half.
	if w := j.ownd(s); w > 0 {
		s.SetSsthresh(w)
	} else {
		s.SetSsthresh(halfFlight(s))
	}
	s.SetCwnd(s.Ssthresh() + 3)
}

// OnTimeout implements Variant.
func (j *Jersey) OnTimeout(s *Sender) {
	j.rec.Leave()
	if w := j.ownd(s); w > 0 {
		s.SetSsthresh(w)
	} else {
		s.SetSsthresh(halfFlight(s))
	}
	s.SetCwnd(1)
}

var _ Variant = (*Jersey)(nil)
