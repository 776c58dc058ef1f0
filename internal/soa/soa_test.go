package soa

import (
	"math"
	"math/rand/v2"
	"testing"

	"nbody/internal/grav"
)

// refAccel is the reference: grav.Accumulate over every list entry.
func refAccel(l *List, xi, yi, zi, eps2 float64) (ax, ay, az float64) {
	for j := range l.X {
		grav.Accumulate(l.X[j]-xi, l.Y[j]-yi, l.Z[j]-zi, l.M[j], eps2, &ax, &ay, &az)
	}
	return
}

func randomList(rng *rand.Rand, n int) *List {
	l := new(List)
	for i := 0; i < n; i++ {
		l.Add(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()+0.1)
	}
	return l
}

func TestAccelMatchesGravKernel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, eps2 := range []float64{0, 1e-6} {
		l := randomList(rng, 257)
		for trial := 0; trial < 10; trial++ {
			xi, yi, zi := rng.Float64(), rng.Float64(), rng.Float64()
			ax, ay, az := l.Accel(xi, yi, zi, eps2)
			rx, ry, rz := refAccel(l, xi, yi, zi, eps2)
			if math.Abs(ax-rx) > 1e-12 || math.Abs(ay-ry) > 1e-12 || math.Abs(az-rz) > 1e-12 {
				t.Fatalf("eps2=%v: Accel = (%v,%v,%v), reference = (%v,%v,%v)", eps2, ax, ay, az, rx, ry, rz)
			}
		}
	}
}

// The batched loop must not need a self-exclusion branch: a source at the
// target's own position contributes exactly zero, softened or not.
func TestAccelSelfTermIsZero(t *testing.T) {
	for _, eps2 := range []float64{0, 1e-4} {
		l := new(List)
		l.Add(0.5, -0.25, 1.0, 3.0) // the "self" source
		ax, ay, az := l.Accel(0.5, -0.25, 1.0, eps2)
		if ax != 0 || ay != 0 || az != 0 {
			t.Fatalf("eps2=%v: self term contributed (%v,%v,%v), want zero", eps2, ax, ay, az)
		}
	}
}

func TestAccelRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	l := randomList(rng, 64)
	// Summing two halves must equal the whole.
	ax1, ay1, az1 := Accel(l.X, l.Y, l.Z, l.M, 0, 30, 0.1, 0.2, 0.3, 1e-6)
	ax2, ay2, az2 := Accel(l.X, l.Y, l.Z, l.M, 30, 64, 0.1, 0.2, 0.3, 1e-6)
	ax, ay, az := l.Accel(0.1, 0.2, 0.3, 1e-6)
	if math.Abs(ax1+ax2-ax) > 1e-12 || math.Abs(ay1+ay2-ay) > 1e-12 || math.Abs(az1+az2-az) > 1e-12 {
		t.Fatalf("range split (%v,%v,%v) != whole (%v,%v,%v)", ax1+ax2, ay1+ay2, az1+az2, ax, ay, az)
	}
}

func TestListResetAndAddBodies(t *testing.T) {
	l := GetList()
	defer PutList(l)
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 6, 7, 8}
	zs := []float64{9, 10, 11, 12}
	ms := []float64{13, 14, 15, 16}
	l.AddBodies(xs, ys, zs, ms, 1, 3)
	if l.Len() != 2 || l.X[0] != 2 || l.M[1] != 15 {
		t.Fatalf("AddBodies: got %+v", l)
	}
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Reset left %d entries", l.Len())
	}
}

// refQuadAccel is the quadrupole reference: the expansion written term by
// term as a per-source accumulation, in a different association order
// from the batched kernel.
func refQuadAccel(l *QuadList, xi, yi, zi, eps2 float64) (ax, ay, az float64) {
	for j := range l.X {
		dx, dy, dz := l.X[j]-xi, l.Y[j]-yi, l.Z[j]-zi
		r2 := dx*dx + dy*dy + dz*dz + eps2
		if r2 == 0 {
			continue
		}
		inv := 1 / math.Sqrt(r2)
		inv3 := inv * inv * inv
		inv5 := inv3 * inv * inv
		inv7 := inv5 * inv * inv
		qdx := l.Qxx[j]*dx + l.Qxy[j]*dy + l.Qxz[j]*dz
		qdy := l.Qxy[j]*dx + l.Qyy[j]*dy + l.Qyz[j]*dz
		qdz := l.Qxz[j]*dx + l.Qyz[j]*dy + l.Qzz[j]*dz
		dqd := dx*qdx + dy*qdy + dz*qdz
		ax += l.M[j]*inv3*dx - qdx*inv5 + 2.5*dqd*dx*inv7
		ay += l.M[j]*inv3*dy - qdy*inv5 + 2.5*dqd*dy*inv7
		az += l.M[j]*inv3*dz - qdz*inv5 + 2.5*dqd*dz*inv7
	}
	return
}

// quadOf returns the mass, center of mass and traceless quadrupole tensor
// Q = Σ m·(3·r⊗r − |r|²·I) of point masses, computed from the definition.
func quadOf(xs, ys, zs, ms []float64) (cx, cy, cz, m float64, q [6]float64) {
	for i := range xs {
		m += ms[i]
		cx += ms[i] * xs[i]
		cy += ms[i] * ys[i]
		cz += ms[i] * zs[i]
	}
	cx, cy, cz = cx/m, cy/m, cz/m
	for i := range xs {
		rx, ry, rz := xs[i]-cx, ys[i]-cy, zs[i]-cz
		r2 := rx*rx + ry*ry + rz*rz
		q[0] += ms[i] * (3*rx*rx - r2)
		q[1] += ms[i] * (3*ry*ry - r2)
		q[2] += ms[i] * (3*rz*rz - r2)
		q[3] += ms[i] * 3 * rx * ry
		q[4] += ms[i] * 3 * rx * rz
		q[5] += ms[i] * 3 * ry * rz
	}
	return
}

func TestQuadAccelMatchesExpansion(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	l := new(QuadList)
	for i := 0; i < 129; i++ {
		l.Add(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()+0.1,
			rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5,
			rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()-0.5)
	}
	for _, eps2 := range []float64{0, 1e-6} {
		for trial := 0; trial < 10; trial++ {
			xi, yi, zi := rng.Float64()+2, rng.Float64(), rng.Float64()
			ax, ay, az := l.Accel(xi, yi, zi, eps2)
			rx, ry, rz := refQuadAccel(l, xi, yi, zi, eps2)
			scale := math.Abs(rx) + math.Abs(ry) + math.Abs(rz)
			if math.Abs(ax-rx)+math.Abs(ay-ry)+math.Abs(az-rz) > 1e-13*scale {
				t.Fatalf("eps2=%v: Accel = (%v,%v,%v), reference = (%v,%v,%v)", eps2, ax, ay, az, rx, ry, rz)
			}
		}
	}
}

// A quadrupole source must reproduce a distant cluster's field far better
// than the same source's monopole alone — checked against direct
// summation over the cluster's bodies, with Q built from its definition.
func TestQuadAccelApproximatesCluster(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	const k = 16
	xs, ys, zs, ms := make([]float64, k), make([]float64, k), make([]float64, k), make([]float64, k)
	for i := range xs {
		xs[i], ys[i], zs[i] = rng.Float64()*2-1, rng.Float64()-0.5, rng.Float64()*0.5
		ms[i] = rng.Float64() + 0.5
	}
	cx, cy, cz, m, q := quadOf(xs, ys, zs, ms)
	quad := new(QuadList)
	quad.Add(cx, cy, cz, m, q[0], q[1], q[2], q[3], q[4], q[5])
	mono := new(List)
	mono.Add(cx, cy, cz, m)

	for _, target := range [][3]float64{{12, 1, -3}, {-4, 9, 5}, {0.5, -0.5, -15}} {
		ex, ey, ez := Accel(xs, ys, zs, ms, 0, k, target[0], target[1], target[2], 0)
		mx, my, mz := mono.Accel(target[0], target[1], target[2], 0)
		qx, qy, qz := quad.Accel(target[0], target[1], target[2], 0)
		monoErr := math.Hypot(math.Hypot(mx-ex, my-ey), mz-ez)
		quadErr := math.Hypot(math.Hypot(qx-ex, qy-ey), qz-ez)
		if !(quadErr < monoErr/5) {
			t.Errorf("target %v: quadrupole error %g not well below monopole error %g", target, quadErr, monoErr)
		}
	}
}

func TestQuadAccelZeroOffsetAndReset(t *testing.T) {
	l := GetQuadList()
	defer PutQuadList(l)
	l.Add(0.5, -0.25, 1.0, 3.0, 1, -2, 1, 0.5, 0.25, -0.5)
	for _, eps2 := range []float64{0, 1e-4} {
		if ax, ay, az := l.Accel(0.5, -0.25, 1.0, eps2); ax != 0 || ay != 0 || az != 0 {
			t.Fatalf("eps2=%v: zero offset contributed (%v,%v,%v), want zero", eps2, ax, ay, az)
		}
	}
	l.Reset()
	if len(l.X) != 0 || len(l.Qyz) != 0 {
		t.Fatalf("Reset left %d entries", len(l.X))
	}
}
