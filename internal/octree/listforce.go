package octree

import (
	"math"

	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/soa"
)

// AccelerationsList performs the paper's CALCULATEFORCE step with
// traversal and evaluation *separated*. Bodies are processed in groups of
// consecutive bodies (the "multiple-walk" optimization of Hamada et al.,
// the paper's related work, Section VI): one stackless walk per group
// (Figure 3) collects every accepted far-field node and every near-field
// leaf body into flat soa lists, and a second pass evaluates each body of
// the group against those lists in tight loops that touch no tree state —
// the interaction-list batching of Tokuue & Ishiyama and Bédorf et al.
// Results (G-scaled) are written to the system's Acc arrays.
//
// An accepted node enters the monopole soa.List as a point mass at its
// center of mass, or, with Config.Quadrupole, the soa.QuadList with its
// quadrupole tensor. Near-field leaf bodies always go to the monopole
// list. Group bodies appear in their own near field; the self term
// contributes exactly zero under the kernel convention, so no index test
// is needed (see package soa).
//
// The opening test must hold for every body in the group, so it is made
// conservative: a node of cell size s is approximated only when s < θ·d,
// where d is the distance from the node's center of mass to the group's
// bounding box. The error is therefore never worse than per-body
// Barnes-Hut at equal θ (a group of one is exactly per-body Barnes-Hut),
// and θ = 0 is exact. Groups are runs of groupSize bodies in array order
// (default 32), so the walk profits greatly from Config.PresortMorton;
// core enables it unconditionally.
func (t *Tree) AccelerationsList(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, groupSize int) {
	n := s.N()
	if groupSize <= 0 {
		groupSize = 32
	}
	eps2 := p.Eps2()
	theta2 := p.Theta * p.Theta
	sizeAt := t.cellSizes()
	quad := t.cfg.Quadrupole

	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass
	numGroups := (n + groupSize - 1) / groupSize

	group := func(g int) {
		b0 := g * groupSize
		b1 := min(b0+groupSize, n)

		// Group bounding box.
		gMinX, gMinY, gMinZ := math.Inf(1), math.Inf(1), math.Inf(1)
		gMaxX, gMaxY, gMaxZ := math.Inf(-1), math.Inf(-1), math.Inf(-1)
		for b := b0; b < b1; b++ {
			gMinX = math.Min(gMinX, posX[b])
			gMinY = math.Min(gMinY, posY[b])
			gMinZ = math.Min(gMinZ, posZ[b])
			gMaxX = math.Max(gMaxX, posX[b])
			gMaxY = math.Max(gMaxY, posY[b])
			gMaxZ = math.Max(gMaxZ, posZ[b])
		}

		// Squared distance from a point to the group box (zero inside).
		boxDist2 := func(x, y, z float64) float64 {
			var d2 float64
			if v := gMinX - x; v > 0 {
				d2 += v * v
			} else if v := x - gMaxX; v > 0 {
				d2 += v * v
			}
			if v := gMinY - y; v > 0 {
				d2 += v * v
			} else if v := y - gMaxY; v > 0 {
				d2 += v * v
			}
			if v := gMinZ - z; v > 0 {
				d2 += v * v
			} else if v := z - gMaxZ; v > 0 {
				d2 += v * v
			}
			return d2
		}

		// Walk: collect the interaction lists.
		list := soa.GetList()
		var qlist *soa.QuadList
		if quad {
			qlist = soa.GetQuadList()
		}
		node := int32(0)
		for node >= 0 {
			tok := t.child[node]
			if tok >= 0 {
				cx, cy, cz := t.comX[node], t.comY[node], t.comZ[node]
				size := sizeAt[t.depthOf(node)]
				if size*size < theta2*boxDist2(cx, cy, cz) {
					if quad {
						qlist.Add(cx, cy, cz, t.m[node],
							t.qxx[node], t.qyy[node], t.qzz[node],
							t.qxy[node], t.qxz[node], t.qyz[node])
					} else {
						list.Add(cx, cy, cz, t.m[node])
					}
					node = t.advance(node)
				} else {
					node = tok
				}
				continue
			}
			for src := leafBody(tok); src >= 0; src = t.next[src] {
				list.Add(posX[src], posY[src], posZ[src], mass[src])
			}
			node = t.advance(node)
		}

		// Evaluate: every group body against the same lists.
		for b := b0; b < b1; b++ {
			ax, ay, az := list.Accel(posX[b], posY[b], posZ[b], eps2)
			if quad {
				qx, qy, qz := qlist.Accel(posX[b], posY[b], posZ[b], eps2)
				ax, ay, az = ax+qx, ay+qy, az+qz
			}
			s.AccX[b] = p.G * ax
			s.AccY[b] = p.G * ay
			s.AccZ[b] = p.G * az
		}
		soa.PutList(list)
		if quad {
			soa.PutQuadList(qlist)
		}
	}
	// One group per grain: the runtime's body-sized default grain would
	// leave every N ≤ 2048 pass on a single worker.
	r.ForGrain(pol, numGroups, 1, func(lo, hi int) {
		for g := lo; g < hi; g++ {
			group(g)
		}
	})
}
