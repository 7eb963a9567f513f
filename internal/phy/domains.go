package phy

import (
	"math"
	"sort"

	"muzha/internal/topo"
)

// Conservative spatial decomposition.
//
// Two radios farther apart than CSRange can never interact in this
// channel model: Transmit fans out only to neighbors within CSRange,
// carrier sense only counts signals whose source is within CSRange,
// and the neighbor cache itself is rebuilt from the CSRange cell grid.
// The dist<=CSRange interaction graph therefore partitions the radio
// set into connected components ("domains") whose event timelines are
// causally independent for the whole run — the strongest possible
// conservative lookahead window (infinite), with no cross-domain
// synchronization barrier needed at all.
//
// Mobility is handled conservatively: a waypoint-mobile radio may roam
// anywhere inside its mobility field, so its interaction footprint is
// the axis-aligned box covering the field rectangle and its initial
// position, and it is linked to every radio (static or mobile) within
// CSRange of that box. Re-partitioning under SetPosition is thereby
// pre-paid: no reachable position can ever join two distinct domains.
//
// Callers may also demand extra coupling (e.g. a transport flow whose
// endpoints must share one timeline even if physically out of range)
// via DomainInput.Couple.

// DomainInput describes the static interaction geometry of one run.
type DomainInput struct {
	// Positions holds every radio's initial position; index == node ID.
	Positions []topo.Position
	// CSRange is the carrier-sense/interference radius in metres.
	CSRange float64
	// FieldW/FieldH span the waypoint-mobility rectangle [0,W]x[0,H].
	// Only consulted when Mobile is non-empty.
	FieldW, FieldH float64
	// Mobile lists node indices that roam the mobility field.
	Mobile []int
	// Couple lists node index pairs that must share a domain
	// regardless of geometry (flow endpoints, CBR endpoints).
	Couple [][2]int
}

// Domains returns the conservative interaction domains of in as a
// partition of node indices. Each domain is sorted ascending and the
// domains themselves are ordered by their smallest member, so the
// result is a pure function of the input — the parallel engine's
// determinism leans on that.
func Domains(in DomainInput) [][]int {
	n := len(in.Positions)
	if n == 0 {
		return nil
	}
	u := newUnionFind(n)

	cs := in.CSRange
	if cs <= 0 {
		cs = DefaultConfig().CSRange
	}

	mobile := make([]bool, n)
	for _, m := range in.Mobile {
		if m >= 0 && m < n {
			mobile[m] = true
		}
	}

	// Static-static edges via the same CSRange cell bucketing the
	// channel uses: only the 3x3 cell neighborhood can hold a radio
	// within CSRange.
	cells := make(map[gridCell][]int, n)
	for i, p := range in.Positions {
		if mobile[i] {
			continue
		}
		c := gridCell{x: int(math.Floor(p.X / cs)), y: int(math.Floor(p.Y / cs))}
		cells[c] = append(cells[c], i)
	}
	for c, ids := range cells {
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range cells[gridCell{x: c.x + dx, y: c.y + dy}] {
					for _, i := range ids {
						if i < j && topo.Dist(in.Positions[i], in.Positions[j]) <= cs {
							u.union(i, j)
						}
					}
				}
			}
		}
	}

	// Mobile radios: conservative footprint is the box covering the
	// mobility field plus the initial position (the first leg of the
	// walk travels from that position into the field). Link a mobile
	// to anything within CSRange of its box; boxes all contain the
	// field, so mobiles always share a domain with each other.
	if len(in.Mobile) > 0 {
		lastMobile := -1
		for i := range in.Positions {
			if !mobile[i] {
				continue
			}
			if lastMobile >= 0 {
				u.union(lastMobile, i)
			}
			lastMobile = i
			box := mobileBox(in, in.Positions[i])
			for j, p := range in.Positions {
				if j != i && !mobile[j] && box.dist(p) <= cs {
					u.union(i, j)
				}
			}
		}
	}

	for _, pr := range in.Couple {
		a, b := pr[0], pr[1]
		if a >= 0 && a < n && b >= 0 && b < n {
			u.union(a, b)
		}
	}

	return u.components()
}

// InterDomainGap returns the smallest pairwise distance between radios
// of distinct domains, or +Inf for fewer than two domains. It is a
// diagnostic: by construction the gap always exceeds CSRange, which is
// what makes the per-domain lookahead unbounded.
func InterDomainGap(in DomainInput, domains [][]int) float64 {
	gap := math.Inf(1)
	dom := make([]int, len(in.Positions))
	for di, d := range domains {
		for _, i := range d {
			dom[i] = di
		}
	}
	for i := range in.Positions {
		for j := i + 1; j < len(in.Positions); j++ {
			if dom[i] != dom[j] {
				if d := topo.Dist(in.Positions[i], in.Positions[j]); d < gap {
					gap = d
				}
			}
		}
	}
	return gap
}

// aabb is an axis-aligned box, used for the mobile-radio footprint.
type aabb struct{ x0, y0, x1, y1 float64 }

func mobileBox(in DomainInput, start topo.Position) aabb {
	b := aabb{
		x0: math.Min(0, start.X),
		y0: math.Min(0, start.Y),
		x1: math.Max(in.FieldW, start.X),
		y1: math.Max(in.FieldH, start.Y),
	}
	return b
}

// dist is the Euclidean distance from p to the box (0 when inside).
func (b aabb) dist(p topo.Position) float64 {
	dx := math.Max(math.Max(b.x0-p.X, 0), p.X-b.x1)
	dy := math.Max(math.Max(b.y0-p.Y, 0), p.Y-b.y1)
	return math.Hypot(dx, dy)
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// components returns the disjoint sets, each sorted ascending, ordered
// by smallest member.
func (u *unionFind) components() [][]int {
	byRoot := make(map[int][]int)
	for i := range u.parent {
		r := u.find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	out := make([][]int, 0, len(byRoot))
	for _, c := range byRoot {
		sort.Ints(c)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
