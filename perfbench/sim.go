package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"nbody/internal/body"
	"nbody/internal/bounds"
	"nbody/internal/bvh"
	"nbody/internal/core"
	"nbody/internal/grav"
	"nbody/internal/metrics"
	"nbody/internal/octree"
	"nbody/internal/par"
	"nbody/internal/soa"
	"nbody/internal/workload"
)

const (
	simN  = 100_000
	simDT = 1e-5
	// setupReps is how many times each workload sets up per run; setup_s
	// is their median.
	setupReps = 5
	// energyStep is the fixed step count energy drift is measured over.
	energyStep = 10

	// Accuracy gates for galaxy-1e5-sim, set from the seed's values with
	// headroom (seed 1: force_rel_l2 = 6.5e-4, energy drift over 10 steps
	// = 2.4e-5, at θ = 0.5).
	maxForceRelL2   = 3e-3
	maxEnergyDrift  = 2e-4
	forceSample     = 1024
	simLatencyLimit = 600 * time.Millisecond // goodput limit per step
)

// gateMinN is the smallest system the par ≥ seq gate applies to: below
// it a force pass lasts a few milliseconds and the fleet's N = 2048 reads
// about 1.0x, so the gate would only measure noise.
const gateMinN = 10_000

// stepCap bounds a timed loop that must reach a sample floor.
const stepCap = 120 * time.Second

func runSim(ctx context.Context, e *env) (*report, error) {
	r := newReport()
	cfg := core.Config{Algorithm: core.Octree, DT: simDT}

	// Setup: workload generation, core.New and one warm-up step.
	var sim *core.Sim
	var setups []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		sys := workload.GalaxyCollision(simN, e.seed)
		s, err := core.New(cfg, sys)
		if err != nil {
			return nil, err
		}
		if err := s.Step(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sim = s
		// Free the previous set-up's simulation now, so peak RSS reflects
		// one simulation rather than when the collector happened to run.
		runtime.GC()
	}
	r.set("setup_s", median(setups), "s")

	// The warm-up step's force pass against an independent direct sum.
	relL2 := forceError(sim.System(), cfg.Params, forceSample, e.nproc)
	r.set("force_rel_l2", relL2, "ratio")
	r.check("force_rel_l2", relL2 <= maxForceRelL2, "%.4g <= %g over %d sampled bodies", relL2, maxForceRelL2, forceSample)

	e0, err := energyOf(cfg, workload.GalaxyCollision(simN, e.seed))
	if err != nil {
		return nil, err
	}
	runtime.GC()

	cls := r.class("step")
	var drift float64
	var gaps []float64 // closed loop: time from one step's return to the next call
	measure := func(window time.Duration, need int, tr *Tracer) ([]float64, time.Duration, metrics.Breakdown, error) {
		before := *sim.Breakdown()
		var lat []float64
		var busy time.Duration
		start := time.Now()
		prevEnd := start
		for time.Since(start) < window || len(lat) < need {
			if time.Since(start) > stepCap || ctx.Err() != nil {
				return nil, 0, before, fmt.Errorf("stopped after %d steps", len(lat))
			}
			req := tr.NewReq()
			sp := tr.Begin("core.Step", 0, req)
			t := time.Now()
			gaps = append(gaps, ms(t.Sub(prevEnd)))
			err := sim.Step()
			prevEnd = time.Now()
			d := prevEnd.Sub(t)
			tr.End(sp)
			cls.record(err)
			if err != nil {
				return nil, 0, before, err
			}
			lat = append(lat, ms(d))
			busy += d
			if sim.StepCount() == energyStep {
				e1, err := energyOf(cfg, sim.System().Clone())
				if err != nil {
					return nil, 0, before, err
				}
				drift = math.Abs((e1 - e0) / e0)
			}
		}
		after := *sim.Breakdown()
		var phases metrics.Breakdown
		for _, p := range metrics.Phases() {
			phases.Add(p, after.Elapsed(p)-before.Elapsed(p))
		}
		return lat, busy, phases, nil
	}

	need := samplesFor(0.9)
	if e.trace {
		// Untraced then traced halves of the window; their difference is
		// the tracing overhead. The per-layer numbers need no tail.
		half := e.window() / 2
		plain, _, _, err := measure(half, 20, nil)
		if err != nil {
			return nil, err
		}
		e.tr = newTracer()
		lat, busy, phases, err := measure(half, 20, e.tr)
		if err != nil {
			return nil, err
		}
		r.set("trace.overhead_pct", 100*(median(lat)/median(plain)-1), "%")
		stepMs := median(lat)
		r.set("core.step_ms", stepMs, "ms")
		r.set("core.self_ms", ms(busy-phases.Total())/float64(len(lat)), "ms")
		sys := sim.System().Clone()
		if err := kernelLadder(ctx, e, r, sys, core.Octree, cfg.Params); err != nil {
			return nil, err
		}
		snap, err := encodeSnapshot(sys)
		if err != nil {
			return nil, err
		}
		if err := probeServed(ctx, e, r, snap, probeSpec{algo: "octree", n: simN, dt: simDT, steps: 1, coreStepMs: stepMs}); err != nil {
			return nil, err
		}
		setClosedLoop(r, gaps)
	} else {
		lat, busy, _, err := measure(e.window(), need, nil)
		if err != nil {
			return nil, err
		}
		p90, err := tailPercentile(lat, 0.9)
		if err != nil {
			return nil, err
		}
		p50 := median(lat)
		r.set("step_ms_p50", p50, "ms")
		r.set("step_ms_p90", p90, "ms")
		r.set("req_ms_p50", p50, "ms")
		r.set("req_ms_tmean", trimmedMean(lat, reqTrim), "ms")
		r.set("bodies_steps_per_s", float64(simN)*float64(len(lat))/busy.Seconds(), "bodies_steps/s")
		good := 0
		for _, l := range lat {
			if l <= ms(simLatencyLimit) {
				good++
			}
		}
		r.set("goodput_rps", float64(good)/busy.Seconds(), "req/s")
		r.note("%d timed steps after 1 warm-up; step p90 has %d samples beyond it", len(lat), len(lat)-int(math.Ceil(0.9*float64(len(lat)))))
	}
	r.set("energy_drift_rel", drift, "ratio")
	r.check("energy_drift_rel", drift > 0 && drift <= maxEnergyDrift, "|E%d-E0|/|E0| = %.4g <= %g", energyStep, drift, maxEnergyDrift)
	if err := sim.System().Validate(); err != nil {
		r.check("final_state_finite", false, "%v", err)
	} else {
		r.check("final_state_finite", true, "%d bodies after %d steps", simN, sim.StepCount())
	}
	rss, err := hwmMB(0)
	if err != nil {
		return nil, err
	}
	r.set("rss_peak_mb", rss, "MB")
	return r, nil
}

// setClosedLoop fills the load-generator metrics of a closed loop: each
// call is due the moment the previous one returns, so lateness is the gap
// between the two, and nothing is ever held back.
func setClosedLoop(r *report, gaps []float64) {
	r.set("loadgen.contention", 0, "count")
	r.set("loadgen.late_ms_p99", quantile(gaps, 0.99), "ms")
}

// energyOf is the total energy of sys under cfg, from the program's own
// tree-approximated diagnostics (a fresh Sim, so the timed one's tree is
// never touched).
func energyOf(cfg core.Config, sys *body.System) (float64, error) {
	s, err := core.New(cfg, sys)
	if err != nil {
		return 0, err
	}
	return s.Diagnostics(false).TotalEnergy, nil
}

// forceError compares sys's accelerations on a fixed stride sample of
// bodies against a direct sum over every body, written here
// independently of the program, and returns the RMS of the per-body
// relative error |a - a_ref| / |a_ref|.
func forceError(sys *body.System, p grav.Params, sample, workers int) float64 {
	if p == (grav.Params{}) {
		p = grav.DefaultParams()
	}
	n := sys.N()
	sample = min(sample, n)
	eps2 := p.Eps * p.Eps
	rel := make([]float64, sample)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < sample; k += workers {
				i := k * (n / sample)
				xi, yi, zi := sys.PosX[i], sys.PosY[i], sys.PosZ[i]
				var ax, ay, az float64
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					dx, dy, dz := sys.PosX[j]-xi, sys.PosY[j]-yi, sys.PosZ[j]-zi
					r2 := dx*dx + dy*dy + dz*dz + eps2
					f := sys.Mass[j] / (r2 * math.Sqrt(r2))
					ax += f * dx
					ay += f * dy
					az += f * dz
				}
				ax, ay, az = p.G*ax, p.G*ay, p.G*az
				ex, ey, ez := sys.AccX[i]-ax, sys.AccY[i]-ay, sys.AccZ[i]-az
				rel[k] = (ex*ex + ey*ey + ez*ez) / (ax*ax + ay*ay + az*az)
			}
		}()
	}
	wg.Wait()
	return math.Sqrt(mean(rel))
}

// kernelLadder times the in-process layers on a copy of the workload's
// bodies: bounds, both trees' structure and force passes, the SoA
// kernel, and seq-vs-par force. Each call is a span; the metric is the
// median span of its kind.
func kernelLadder(ctx context.Context, e *env, r *report, sys *body.System, algo core.Algorithm, p grav.Params) error {
	if p == (grav.Params{}) {
		p = grav.DefaultParams()
	}
	rt := par.Default()
	tr := e.tr
	const reps = 3
	timed := func(name string, f func()) float64 {
		var xs []float64
		for i := 0; i < reps; i++ {
			sp := tr.Begin(name, 0, tr.NewReq())
			t := time.Now()
			f()
			xs = append(xs, ms(time.Since(t)))
			tr.End(sp)
		}
		return median(xs)
	}

	s := sys.Clone()
	var box bounds.AABB
	r.set("bounds.bbox_ms", timed("bounds.OfPositions", func() {
		box = bounds.OfPositions(rt, par.ParUnseq, s.PosX, s.PosY, s.PosZ)
	}), "ms")

	// The octree as core configures it on the flat layout.
	ot := octree.New(octree.Config{PresortMorton: true})
	var buildErr error
	r.set("octree.build_ms", timed("octree.Build", func() {
		if err := ot.Build(rt, s, box); err != nil {
			buildErr = err
		}
	}), "ms")
	if buildErr != nil {
		return buildErr
	}
	r.set("octree.moments_ms", timed("octree.ComputeMoments", func() { ot.ComputeMoments(rt, s) }), "ms")
	r.set("octree.force_ms", timed("octree.AccelerationsList", func() { ot.AccelerationsList(rt, par.ParUnseq, s, p, 0) }), "ms")
	st := ot.Stats()
	r.set("octree.nodes", float64(st.Nodes), "count")
	r.set("octree.max_depth", float64(st.MaxDepth), "count")

	bt := bvh.New(bvh.Config{})
	r.set("bvh.sort_ms", timed("bvh.Sort", func() { bt.Sort(rt, par.Par, s, box) }), "ms")
	r.set("bvh.build_ms", timed("bvh.BuildNoSort", func() { bt.BuildNoSort(rt, par.Par, s) }), "ms")
	r.set("bvh.force_ms", timed("bvh.AccelerationsList", func() { bt.AccelerationsList(rt, par.ParUnseq, s, p, 0) }), "ms")

	// par ≥ seq: the workload's own force pass on one worker under seq
	// against all workers under par.
	force := func(r *par.Runtime, pol par.Policy) func() {
		if algo == core.BVH {
			return func() { bt.AccelerationsList(r, pol, s, p, 0) }
		}
		return func() { ot.AccelerationsList(r, pol, s, p, 0) }
	}
	seq := timed("par.force.seq", force(par.NewRuntime(1, rt.Scheduler()), par.Seq))
	parT := timed("par.force.par", force(rt, par.ParUnseq))
	speedup := seq / parT
	r.set("par.force_speedup", speedup, "x")
	switch {
	case e.nproc < 2:
		r.note("par.force_speedup unresolved on a 1-core host (%.3fx measured, no parallel hardware)", speedup)
	case s.N() >= gateMinN:
		r.check("par_ge_seq", speedup >= 1, "force %s: seq %.3f ms / par %.3f ms = %.3fx on %d cores", algo, seq, parT, speedup, e.nproc)
	}

	ns, gflops := soaKernel(ctx, s, p.Eps*p.Eps)
	r.set("soa.ns_per_interaction", ns, "ns")
	r.set("soa.gflops", gflops, "GFLOP/s")
	// Each interaction reads one source's x, y, z and mass: 4 float64s.
	r.set("soa.bytes_per_interaction", 32, "B")
	return nil
}

// flopsPerInteraction counts the SoA kernel's arithmetic per source: 3
// subtractions, 3 multiplies and 3 adds for r², one sqrt, one divide,
// 3 multiplies for m/r³, and 3 multiply-adds (6 flops) into the sum.
const flopsPerInteraction = 20

// soaListLen is the fixed interaction-list length the kernel is timed on,
// about the length of one group's list in a θ = 0.5 walk.
const soaListLen = 1024

// soaKernel times soa.Accel on one core over lists of soaListLen sources
// taken from the workload's own (curve-sorted) positions, for targets
// spread over the system, and returns ns per interaction and GFLOP/s.
func soaKernel(ctx context.Context, s *body.System, eps2 float64) (nsPer, gflops float64) {
	n := s.N()
	l := soa.GetList()
	defer soa.PutList(l)
	l.Reset()
	src := min(soaListLen, n)
	l.AddBodies(s.PosX, s.PosY, s.PosZ, s.Mass, 0, src)
	const targets = 256
	var sink float64
	var per []float64
	deadline := time.Now().Add(300 * time.Millisecond)
	for len(per) < 5 || time.Now().Before(deadline) {
		if ctx.Err() != nil {
			break
		}
		t := time.Now()
		for k := 0; k < targets; k++ {
			i := k * (n / targets)
			ax, ay, az := l.Accel(s.PosX[i], s.PosY[i], s.PosZ[i], eps2)
			sink += ax + ay + az
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(targets*src))
	}
	soaSink = sink
	nsPer = median(per)
	return nsPer, flopsPerInteraction / nsPer
}

// soaSink keeps the timed kernel calls from being optimized away.
var soaSink float64
