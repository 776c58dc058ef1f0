package octree

import (
	"math"
	"testing"

	"nbody/internal/allpairs"
	"nbody/internal/body"
	"nbody/internal/grav"
	"nbody/internal/par"
	"nbody/internal/vec"
	"nbody/internal/workload"
)

// relErrorsByID returns each body's relative force error |a − a_ref| /
// |a_ref| against the unpermuted reference ref, indexed by body ID (tree
// solvers with presort permute the system).
func relErrorsByID(ref, s *body.System) []float64 {
	n := s.N()
	want := make([][3]float64, n)
	for i := 0; i < n; i++ {
		want[ref.ID[i]] = [3]float64{ref.AccX[i], ref.AccY[i], ref.AccZ[i]}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		w := want[s.ID[i]]
		dx, dy, dz := s.AccX[i]-w[0], s.AccY[i]-w[1], s.AccZ[i]-w[2]
		mag2 := w[0]*w[0] + w[1]*w[1] + w[2]*w[2]
		out[s.ID[i]] = math.Sqrt((dx*dx + dy*dy + dz*dz) / (mag2 + 1e-12))
	}
	return out
}

// meanSqRelError is the mean squared relative force error of s against
// the all-pairs reference ref.
func meanSqRelError(ref, s *body.System) float64 {
	var sum float64
	for _, e := range relErrorsByID(ref, s) {
		sum += e * e
	}
	return sum / float64(s.N())
}

// listForces builds a Morton-presorted tree over a clone of base (the
// configuration core uses), evaluates the list force pass, and returns the
// clone.
func listForces(t *testing.T, r *par.Runtime, cfg Config, base *body.System, p grav.Params, groupSize int) *body.System {
	t.Helper()
	cfg.PresortMorton = true
	s := base.Clone()
	tree := buildTree(t, cfg, s, r)
	tree.ComputeMoments(r, s)
	tree.AccelerationsList(r, par.ParUnseq, s, p, groupSize)
	return s
}

func TestGroupedExactWhenThetaZero(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	for _, n := range []int{2, 63, 500} {
		for _, groupSize := range []int{1, 8, 100} {
			s := randomSystem(n, uint64(n)+301)
			ref := s.Clone()
			p := grav.Params{G: 1, Eps: 1e-3, Theta: 0}
			allpairs.AllPairs(r, par.ParUnseq, ref, p)

			tree := buildTree(t, Config{}, s, r)
			tree.ComputeMoments(r, s)
			tree.AccelerationsList(r, par.ParUnseq, s, p, groupSize)
			for i := 0; i < n; i++ {
				if s.Acc(i).Sub(ref.Acc(i)).Norm() > 1e-10*(1+ref.Acc(i).Norm()) {
					t.Fatalf("n=%d group=%d body %d: %v vs %v", n, groupSize, i, s.Acc(i), ref.Acc(i))
				}
			}
		}
	}
}

// The conservative group criterion must never be less accurate than the
// per-body traversal at equal θ. A group of one body is exactly per-body
// Barnes-Hut (its box is a point), so it serves as the per-body baseline.
func TestGroupedConservativeAccuracy(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	p := grav.Params{G: 1, Eps: 1e-3, Theta: 0.7}

	base := randomSystem(3000, 307)
	ref := base.Clone()
	allpairs.AllPairs(r, par.ParUnseq, ref, p)

	for _, quad := range []bool{false, true} {
		perBody := meanSqRelError(ref, listForces(t, r, Config{Quadrupole: quad}, base, p, 1))
		grouped := meanSqRelError(ref, listForces(t, r, Config{Quadrupole: quad}, base, p, 32))
		if grouped > perBody*1.01 {
			t.Errorf("quadrupole=%v: grouped error %g exceeds per-body error %g — criterion not conservative", quad, grouped, perBody)
		}
	}
}

func TestGroupedWithChains(t *testing.T) {
	// Coincident bodies (chained leaves) through the group path.
	r := par.NewRuntime(4, par.Dynamic)
	s := randomSystem(50, 311)
	for i := 0; i < 10; i++ {
		s.SetPos(i, s.Pos(20)) // force chains
	}
	ref := s.Clone()
	p := grav.Params{G: 1, Eps: 1e-2, Theta: 0}
	allpairs.AllPairs(r, par.ParUnseq, ref, p)
	tree := buildTree(t, Config{MaxDepth: 6}, s, r)
	tree.ComputeMoments(r, s)
	tree.AccelerationsList(r, par.ParUnseq, s, p, 16)
	for i := 0; i < s.N(); i++ {
		if s.Acc(i).Sub(ref.Acc(i)).Norm() > 1e-9*(1+ref.Acc(i).Norm()) {
			t.Fatalf("body %d: %v vs %v", i, s.Acc(i), ref.Acc(i))
		}
	}
}

func TestGroupedEmptyAndDefaults(t *testing.T) {
	r := par.NewRuntime(2, par.Dynamic)
	s := randomSystem(0, 313)
	tree := New(Config{})
	if err := tree.Build(r, s, tree.RootBox()); err != nil {
		// empty build with empty box is fine either way
		t.Skip("empty build unsupported shape")
	}
	tree.ComputeMoments(r, s)
	tree.AccelerationsList(r, par.ParUnseq, s, grav.DefaultParams(), 0) // default group size path
}

// Quadrupole lists must cut the monopole lists' error at least in half at
// equal θ, and be no less accurate than the per-body quadrupole walk they
// replaced. The walk is gone, so its error is pinned: each bound is the lower of the walk's
// quadrupole error and the list's monopole error, both measured at the
// commit that still had the walk (mean squared relative error against
// direct summation, ε = 1e-3, G = 1).
func TestQuadrupoleImprovesAccuracy(t *testing.T) {
	r := par.NewRuntime(0, par.Dynamic)
	cases := []struct {
		name  string
		sys   *body.System
		theta float64
		// walkQuad and listMono are the pinned measurements.
		walkQuad, listMono float64
	}{
		{"random(2000,53)", randomSystem(2000, 53), 0.7, 4.37e-5, 2.76e-5},
		{"random(2000,53)", randomSystem(2000, 53), 0.5, 2.71e-6, 3.99e-6},
		{"galaxy(1e4,1)", workload.GalaxyCollision(10_000, 1), 0.5, 2.00e-8, 1.35e-7},
		{"plummer(1e4,1)", workload.Plummer(10_000, 1), 0.5, 7.55e-7, 8.93e-7},
	}
	for _, tc := range cases {
		p := grav.Params{G: 1, Eps: 1e-3, Theta: tc.theta}
		ref := tc.sys.Clone()
		allpairs.AllPairs(r, par.ParUnseq, ref, p)

		mono := meanSqRelError(ref, listForces(t, r, Config{}, tc.sys, p, 0))
		quad := meanSqRelError(ref, listForces(t, r, Config{Quadrupole: true}, tc.sys, p, 0))
		if quad > mono/2 {
			t.Errorf("%s θ=%g: quadrupole error %.3g not well below monopole %.3g", tc.name, tc.theta, quad, mono)
		}
		if bound := min(tc.walkQuad, tc.listMono); quad > bound {
			t.Errorf("%s θ=%g: quadrupole error %.3g above the pinned bound %.3g", tc.name, tc.theta, quad, bound)
		}
	}
}

// Degenerate inputs through the quadrupole lists: coincident bodies
// (chained leaves), N ≤ 2, and massless bodies must give finite forces,
// exact at θ = 0.
func TestQuadrupoleDegenerateInputs(t *testing.T) {
	r := par.NewRuntime(4, par.Dynamic)

	coincident := randomSystem(40, 401)
	for i := 0; i < 12; i++ {
		coincident.SetPos(i, coincident.Pos(30))
	}
	single := body.NewSystem(1)
	single.Set(0, 2, vec.New(1, 2, 3), vec.Zero)
	massless := randomSystem(200, 403)
	for i := 0; i < 200; i += 2 {
		massless.Mass[i] = 0
	}
	allMassless := randomSystem(64, 405)
	for i := range allMassless.Mass {
		allMassless.Mass[i] = 0
	}
	systems := map[string]*body.System{
		"coincident":   coincident,
		"n=1":          single,
		"n=2":          randomSystem(2, 407),
		"massless":     massless,
		"all-massless": allMassless,
	}

	for name, base := range systems {
		for _, theta := range []float64{0, 0.5} {
			for _, groupSize := range []int{1, 0} {
				p := grav.Params{G: 1, Eps: 1e-2, Theta: theta}
				ref := base.Clone()
				allpairs.AllPairs(r, par.ParUnseq, ref, p)
				s := base.Clone()
				tree := buildTree(t, Config{Quadrupole: true, MaxDepth: 6}, s, r)
				tree.ComputeMoments(r, s)
				tree.AccelerationsList(r, par.ParUnseq, s, p, groupSize)
				for i := 0; i < s.N(); i++ {
					if !s.Acc(i).IsFinite() {
						t.Fatalf("%s θ=%g group=%d body %d: acceleration %v", name, theta, groupSize, i, s.Acc(i))
					}
					if theta == 0 && s.Acc(i).Sub(ref.Acc(i)).Norm() > 1e-9*(1+ref.Acc(i).Norm()) {
						t.Fatalf("%s group=%d body %d: %v vs all-pairs %v", name, groupSize, i, s.Acc(i), ref.Acc(i))
					}
				}
			}
		}
	}
}
