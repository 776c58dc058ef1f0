// Package soa holds the flat structure-of-arrays machinery of the force
// hot path: interaction lists and the tight kernel that evaluates them.
//
// The tree solvers separate *traversal* from *evaluation*: one walk per
// body group collects every accepted far-field node (as a point mass at
// its center of mass) and every near-field leaf body into a List — four
// dense float64 slices — and a second pass evaluates each body of the
// group against the list in a branch-free inner loop the compiler can keep
// in registers and vectorize. With octree quadrupoles, accepted nodes go
// to a QuadList instead — ten columns, with its own kernel — while the
// near field stays in the List. This is the interaction-list batching of
// Tokuue & Ishiyama's many-core tree code and Bédorf et al.'s GPU octree
// (and of the SpeedCodeBench flat-array reference), adapted to the
// repository's grav.Params contract: the kernel excludes G (callers hoist
// it) and takes ε² pre-squared.
//
// Self-interactions need no index test in the batched loop: a zero offset
// contributes exactly zero under the kernel convention (softened: f·d with
// d = 0; unsoftened: the r² == 0 guard), so a group body appearing in its
// own near field is harmless. This is what lets the inner loop drop the
// `source == target` branch a per-body walk needs.
package soa

import (
	"math"
	"sync"
)

// List is a flat interaction list: the far-field pseudo-particles and
// near-field bodies one group of targets interacts with, in structure-of-
// arrays layout. The zero value is ready to use; Reset keeps capacity
// across walks.
type List struct {
	X, Y, Z, M []float64
}

// Reset empties the list, retaining capacity.
func (l *List) Reset() {
	l.X, l.Y, l.Z, l.M = l.X[:0], l.Y[:0], l.Z[:0], l.M[:0]
}

// Len returns the number of interactions collected.
func (l *List) Len() int { return len(l.X) }

// Add appends one source: a body, or an accepted node's center of mass.
func (l *List) Add(x, y, z, m float64) {
	l.X = append(l.X, x)
	l.Y = append(l.Y, y)
	l.Z = append(l.Z, z)
	l.M = append(l.M, m)
}

// AddBodies bulk-appends the contiguous body range [lo, hi) of flat
// component arrays — the near-field fast path for leaves covering body
// ranges.
func (l *List) AddBodies(xs, ys, zs, ms []float64, lo, hi int) {
	l.X = append(l.X, xs[lo:hi]...)
	l.Y = append(l.Y, ys[lo:hi]...)
	l.Z = append(l.Z, zs[lo:hi]...)
	l.M = append(l.M, ms[lo:hi]...)
}

// Accel returns the acceleration the whole list induces at (xi, yi, zi),
// excluding the factor G per the grav.Accumulate contract.
func (l *List) Accel(xi, yi, zi, eps2 float64) (ax, ay, az float64) {
	return Accel(l.X, l.Y, l.Z, l.M, 0, len(l.X), xi, yi, zi, eps2)
}

// Accel is the shared tight kernel: the acceleration (excluding G) that
// sources [lo, hi) of the flat arrays xs/ys/zs/ms induce at (xi, yi, zi).
// With softening the loop is branch-free — r² ≥ ε² > 0 makes the guard of
// grav.Accumulate provably dead, so it is hoisted into the eps2 == 0
// variant instead of being tested per interaction.
func Accel(xs, ys, zs, ms []float64, lo, hi int, xi, yi, zi, eps2 float64) (ax, ay, az float64) {
	xs, ys, zs, ms = xs[lo:hi], ys[lo:hi], zs[lo:hi], ms[lo:hi]
	if eps2 > 0 {
		for j := range xs {
			dx := xs[j] - xi
			dy := ys[j] - yi
			dz := zs[j] - zi
			r2 := dx*dx + dy*dy + dz*dz + eps2
			inv := 1 / math.Sqrt(r2)
			f := ms[j] * inv * inv * inv
			ax += f * dx
			ay += f * dy
			az += f * dz
		}
		return
	}
	for j := range xs {
		dx := xs[j] - xi
		dy := ys[j] - yi
		dz := zs[j] - zi
		r2 := dx*dx + dy*dy + dz*dz
		if r2 == 0 {
			continue
		}
		inv := 1 / math.Sqrt(r2)
		f := ms[j] * inv * inv * inv
		ax += f * dx
		ay += f * dy
		az += f * dz
	}
	return
}

// pool recycles lists across group walks. The parallel runtime exposes no
// worker identity to loop bodies, so per-walk scratch goes through a
// sync.Pool instead of per-worker arenas.
var pool = sync.Pool{New: func() any { return new(List) }}

// GetList returns an empty list from the pool.
func GetList() *List {
	l := pool.Get().(*List)
	l.Reset()
	return l
}

// PutList returns a list to the pool.
func PutList(l *List) { pool.Put(l) }

// QuadList is the far-field interaction list of quadrupole-moment sources:
// accepted nodes carrying their mass, center of mass and traceless
// quadrupole tensor Q = Σ m·(3·r⊗r − |r|²·I) about that center, in ten
// structure-of-arrays columns. It sits beside a List (which keeps the
// near-field bodies and is unchanged), so configurations without
// quadrupoles never touch it. The zero value is ready to use.
type QuadList struct {
	X, Y, Z, M                   []float64
	Qxx, Qyy, Qzz, Qxy, Qxz, Qyz []float64
}

// Reset empties the list, retaining capacity.
func (l *QuadList) Reset() {
	l.X, l.Y, l.Z, l.M = l.X[:0], l.Y[:0], l.Z[:0], l.M[:0]
	l.Qxx, l.Qyy, l.Qzz = l.Qxx[:0], l.Qyy[:0], l.Qzz[:0]
	l.Qxy, l.Qxz, l.Qyz = l.Qxy[:0], l.Qxz[:0], l.Qyz[:0]
}

// Add appends one accepted node: its center of mass, mass and quadrupole
// components.
func (l *QuadList) Add(x, y, z, m, qxx, qyy, qzz, qxy, qxz, qyz float64) {
	l.X = append(l.X, x)
	l.Y = append(l.Y, y)
	l.Z = append(l.Z, z)
	l.M = append(l.M, m)
	l.Qxx = append(l.Qxx, qxx)
	l.Qyy = append(l.Qyy, qyy)
	l.Qzz = append(l.Qzz, qzz)
	l.Qxy = append(l.Qxy, qxy)
	l.Qxz = append(l.Qxz, qxz)
	l.Qyz = append(l.Qyz, qyz)
}

// Accel returns the acceleration (excluding G) the list's sources induce
// at (xi, yi, zi): monopole plus quadrupole term of each. With the offset
// d = com − x and r² = |d|² + ε², the field of one source is
//
//	a = m·d/r³ − Q·d/r⁵ + (5/2)·(dᵀQd)·d/r⁷
//
// (from Φ = −G·m/r − G·(dᵀQd)/(2r⁵)). Accepted nodes lie strictly
// outside their targets' group box, so r² == 0 cannot occur in practice;
// the guard keeps the unsoftened kernel total anyway.
func (l *QuadList) Accel(xi, yi, zi, eps2 float64) (ax, ay, az float64) {
	n := len(l.X)
	xs, ys, zs, ms := l.X[:n], l.Y[:n], l.Z[:n], l.M[:n]
	qxx, qyy, qzz := l.Qxx[:n], l.Qyy[:n], l.Qzz[:n]
	qxy, qxz, qyz := l.Qxy[:n], l.Qxz[:n], l.Qyz[:n]
	for j := range xs {
		dx := xs[j] - xi
		dy := ys[j] - yi
		dz := zs[j] - zi
		r2 := dx*dx + dy*dy + dz*dz + eps2
		if r2 == 0 {
			continue
		}
		inv := 1 / math.Sqrt(r2)
		inv2 := inv * inv
		inv3 := inv2 * inv
		inv5 := inv3 * inv2
		qdx := qxx[j]*dx + qxy[j]*dy + qxz[j]*dz
		qdy := qxy[j]*dx + qyy[j]*dy + qyz[j]*dz
		qdz := qxz[j]*dx + qyz[j]*dy + qzz[j]*dz
		f := ms[j]*inv3 + 2.5*(dx*qdx+dy*qdy+dz*qdz)*inv5*inv2
		ax += f*dx - qdx*inv5
		ay += f*dy - qdy*inv5
		az += f*dz - qdz*inv5
	}
	return
}

var quadPool = sync.Pool{New: func() any { return new(QuadList) }}

// GetQuadList returns an empty quadrupole list from the pool.
func GetQuadList() *QuadList {
	l := quadPool.Get().(*QuadList)
	l.Reset()
	return l
}

// PutQuadList returns a quadrupole list to the pool.
func PutQuadList(l *QuadList) { quadPool.Put(l) }
