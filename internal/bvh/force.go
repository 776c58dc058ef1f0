package bvh

import (
	"math"

	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
)

// extent returns the longest edge of node i's bounding box.
func (t *Tree) extent(i int) float64 {
	ex := t.maxX[i] - t.minX[i]
	if ey := t.maxY[i] - t.minY[i]; ey > ex {
		ex = ey
	}
	if ez := t.maxZ[i] - t.minZ[i]; ez > ex {
		ex = ez
	}
	return ex
}

// skipNext returns the node visited after finishing the subtree rooted at
// node: the right sibling if node is a left child, otherwise the first
// right sibling found climbing toward the root; 0 when the traversal is
// complete. This is the multi-level jump the balanced layout affords.
func skipNext(node int) int {
	for node != 1 && node&1 == 1 {
		node >>= 1
	}
	if node == 1 {
		return 0
	}
	return node + 1
}

// Potential estimates each body's gravitational potential (per unit mass,
// G-scaled) with a per-body skip-list walk under the center-distance
// opening criterion, for O(N log N) energy diagnostics. Total potential
// energy is ½·Σ mᵢφᵢ.
func (t *Tree) Potential(r *par.Runtime, pol par.Policy, s *body.System, p grav.Params, out []float64) {
	n := s.N()
	eps2 := p.Eps2()
	theta2 := p.Theta * p.Theta
	numLeaves := t.numLeaves
	leafSize := t.cfg.LeafSize

	posX, posY, posZ, mass := s.PosX, s.PosY, s.PosZ, s.Mass

	r.ForGrain(pol, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi, yi, zi := posX[i], posY[i], posZ[i]
			var phi float64

			node := 1
			for node != 0 {
				if t.count[node] == 0 {
					node = skipNext(node)
					continue
				}
				if node >= numLeaves {
					j := node - numLeaves
					b0 := j * leafSize
					b1 := min(b0+leafSize, n)
					for b := b0; b < b1; b++ {
						if b == i {
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
					node = skipNext(node)
					continue
				}
				dx := t.comX[node] - xi
				dy := t.comY[node] - yi
				dz := t.comZ[node] - zi
				d2 := dx*dx + dy*dy + dz*dz
				size := t.extent(node)
				if size*size < theta2*d2 {
					phi -= t.m[node] / math.Sqrt(d2+eps2)
					node = skipNext(node)
				} else {
					node = 2 * node
				}
			}

			out[i] = p.G * phi
		}
	})
}
