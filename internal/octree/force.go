package octree

import (
	"math"

	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
)

// cellSizes returns the cell edge length per depth: size(d) = rootSize/2^d.
func (t *Tree) cellSizes() (sizeAt [260]float64) {
	sz := 2 * t.rootHalf
	for d := range sizeAt {
		sizeAt[d] = sz
		sz *= 0.5
	}
	return sizeAt
}

// advance returns the DFS successor of node once its subtree is finished
// (the "backward step" of Figure 3): the next sibling if one remains in the
// group, otherwise the parent's successor, climbing via the per-group
// parent offsets. It returns -1 after the root.
//
// The traversal is stackless because every sibling group is allocated
// after its parent: child offsets are strictly greater than the parent's,
// so the successor can always be computed from the current node index
// alone.
func (t *Tree) advance(node int32) int32 {
	for node != 0 {
		if (node-1)%8 != 7 {
			return node + 1 // next sibling
		}
		node = t.parentOf(node)
	}
	return -1
}

// Potential estimates each body's gravitational potential energy with a
// per-body stackless walk under the classic Barnes-Hut opening criterion
// (a node of cell size s whose center of mass lies at distance d is
// approximated when s < θ·d), writing φᵢ (the potential per unit mass,
// G-scaled) into out. Total potential energy is ½·Σ mᵢφᵢ. Used for
// O(N log N) energy diagnostics where the exact O(N²) sum would dominate
// the runtime.
func (t *Tree) Potential(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, out []float64) {
	n := s.N()
	eps2 := p.Eps2()
	theta2 := p.Theta * p.Theta
	sizeAt := t.cellSizes()

	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	r.ForGrain(pol, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi, yi, zi := posX[i], posY[i], posZ[i]
			var phi float64

			node := int32(0)
			for node >= 0 {
				tok := t.child[node]
				if tok >= 0 {
					dx := t.comX[node] - xi
					dy := t.comY[node] - yi
					dz := t.comZ[node] - zi
					d2 := dx*dx + dy*dy + dz*dz
					size := sizeAt[t.depthOf(node)]
					if size*size < theta2*d2 {
						phi -= t.m[node] / math.Sqrt(d2+eps2)
						node = t.advance(node)
					} else {
						node = tok
					}
					continue
				}
				for b := leafBody(tok); b >= 0; b = t.next[b] {
					if int(b) == i {
						continue
					}
					dx := posX[b] - xi
					dy := posY[b] - yi
					dz := posZ[b] - zi
					r2 := dx*dx + dy*dy + dz*dz + eps2
					if r2 > 0 {
						phi -= mass[b] / math.Sqrt(r2)
					}
				}
				node = t.advance(node)
			}

			out[i] = p.G * phi
		}
	})
}
