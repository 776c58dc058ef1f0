package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"nbody/client"
	"nbody/internal/body"
	"nbody/internal/core"
	"nbody/internal/snapshot"
	"nbody/internal/workload"
)

const (
	serveN          = 10_000
	serveDT         = 1e-5
	serveReqSteps   = 5
	serveLatencyLim = 500 * time.Millisecond // goodput limit per 5-step request
	// serveEnergyStep is the fixed step count the served energy drift is
	// taken at: the snapshot after the ninth timed request.
	serveEnergyStep = 50
	// maxServeDrift bounds the served run's energy drift over
	// serveEnergyStep steps (seeds 1-8: 1.5e-3 to 1.8e-3 at N = 10⁴).
	maxServeDrift = 5e-3
	// agreeTol bounds the largest position difference, relative to the
	// system's extent, between the served session and an in-process
	// core.Sim after the same steps. Both run the same deterministic code,
	// so the seed agrees exactly; the tolerance only absorbs a future
	// change of reduction order.
	agreeTol = 1e-9
)

func encodeSnapshot(sys *body.System) ([]byte, error) {
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, sys, snapshot.Meta{}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// download fetches and decodes a session's snapshot, returning the raw
// bytes too.
func download(ctx context.Context, c *client.Client, id string) (*body.System, []byte, error) {
	rc, err := c.DownloadSnapshot(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	defer rc.Close()
	raw, err := io.ReadAll(rc)
	if err != nil {
		return nil, nil, fmt.Errorf("reading snapshot: %w", err)
	}
	sys, _, err := snapshot.Read(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, fmt.Errorf("decoding snapshot: %w", err)
	}
	return sys, raw, nil
}

// maxPosDiff is the largest position difference between bodies of the
// same ID, relative to a's extent; +Inf when the ID sets differ.
func maxPosDiff(a, b *body.System) float64 {
	if a.N() != b.N() {
		return math.Inf(1)
	}
	idx := make(map[int32]int, b.N())
	for j, id := range b.ID {
		idx[id] = j
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	var worst float64
	for i, id := range a.ID {
		j, ok := idx[id]
		if !ok {
			return math.Inf(1)
		}
		for _, d := range [3]float64{a.PosX[i] - b.PosX[j], a.PosY[i] - b.PosY[j], a.PosZ[i] - b.PosZ[j]} {
			worst = max(worst, math.Abs(d))
		}
		lo, hi = min(lo, a.PosX[i]), max(hi, a.PosX[i])
	}
	return worst / (hi - lo)
}

func runServe(ctx context.Context, e *env) (*report, error) {
	r := newReport()
	cfg := core.Config{Algorithm: core.BVH, DT: serveDT}
	sessCfg := &client.SessionConfig{Algorithm: "bvh", DT: serveDT}
	cls := r.class("step")

	// Setup: generation, server boot to /readyz, the snapshot upload and
	// the first 5-step request.
	var (
		srv    *proc
		c      *client.Client
		id     string
		init   *body.System
		setups []float64
	)
	defer func() { srv.stop() }()
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		sys := workload.GalaxyCollision(serveN, e.seed)
		raw, err := encodeSnapshot(sys)
		if err != nil {
			return nil, err
		}
		p, err := e.launch(ctx, fmt.Sprintf("serve-%d", k), "nbody-serve")
		if err != nil {
			return nil, err
		}
		srv.stop()
		srv = p
		if c, err = newClient(p.url, e.nproc); err != nil {
			return nil, err
		}
		s, err := c.CreateSessionFromSnapshot(ctx, bytes.NewReader(raw), client.SnapshotParams{Config: sessCfg})
		cls.record(err)
		if err != nil {
			return nil, fmt.Errorf("upload: %w", err)
		}
		_, err = c.Step(ctx, s.ID, serveReqSteps)
		cls.record(err)
		if err != nil {
			return nil, fmt.Errorf("first step: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		id, init = s.ID, sys
	}
	r.set("setup_s", median(setups), "s")

	// The served state after the first request against an in-process
	// core.Sim advanced by the same steps.
	got, _, err := download(ctx, c, id)
	r.class("snapshot").record(err)
	if err != nil {
		return nil, err
	}
	ref, err := core.New(cfg, init.Clone())
	if err != nil {
		return nil, err
	}
	if err := ref.Run(serveReqSteps); err != nil {
		return nil, err
	}
	diff := maxPosDiff(ref.System(), got)
	r.check("served_matches_core", diff <= agreeTol, "max |Δx|/extent = %.3g <= %g after %d steps", diff, agreeTol, serveReqSteps)
	e0, err := energyOf(cfg, init.Clone())
	if err != nil {
		return nil, err
	}

	var drift float64
	steps := serveReqSteps
	type sample struct{ lat, elapsed float64 }
	measure := func(window time.Duration, need int, tr *Tracer) (out []sample, gaps []float64, wall time.Duration, err error) {
		start := time.Now()
		var paused time.Duration
		prevEnd := start
		for time.Since(start) < window || len(out) < need {
			if time.Since(start) > stepCap || ctx.Err() != nil {
				return nil, nil, 0, fmt.Errorf("stopped after %d requests", len(out))
			}
			req := tr.NewReq()
			sp := tr.Begin("client.Step", 0, req)
			t := time.Now()
			gaps = append(gaps, ms(t.Sub(prevEnd)))
			res, err := c.Step(ctx, id, serveReqSteps)
			prevEnd = time.Now()
			tr.End(sp)
			cls.record(err)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("step request %d: %w", len(out), err)
			}
			steps += res.Completed
			out = append(out, sample{ms(prevEnd.Sub(t)), 1000 * res.ElapsedSeconds})
			if steps == serveEnergyStep {
				t := time.Now()
				sys, _, err := download(ctx, c, id)
				r.class("snapshot").record(err)
				if err != nil {
					return nil, nil, 0, err
				}
				e1, err := energyOf(cfg, sys)
				if err != nil {
					return nil, nil, 0, err
				}
				drift = math.Abs((e1 - e0) / e0)
				paused += time.Since(t)
				prevEnd = time.Now()
			}
		}
		return out, gaps, time.Since(start) - paused, nil
	}

	if e.trace {
		half := e.window() / 2
		plain, _, _, err := measure(half, 20, nil)
		if err != nil {
			return nil, err
		}
		e.tr = newTracer()
		out, gaps, _, err := measure(half, 20, e.tr)
		if err != nil {
			return nil, err
		}
		lat := make([]float64, len(out))
		plainLat := make([]float64, len(plain))
		var over []float64
		var elapsed float64
		for i, s := range out {
			lat[i] = s.lat
			over = append(over, s.lat-s.elapsed)
			elapsed += s.elapsed
		}
		for i, s := range plain {
			plainLat[i] = s.lat
		}
		r.set("trace.overhead_pct", 100*(median(lat)/median(plainLat)-1), "%")
		serveStep := elapsed / float64(len(out)*serveReqSteps)
		r.set("http.overhead_ms", median(over), "ms")
		setClosedLoop(r, gaps)

		sys, _, err := download(ctx, c, id)
		if err != nil {
			return nil, err
		}
		coreMs, selfMs, err := coreSteps(ctx, e.tr, cfg, sys)
		if err != nil {
			return nil, err
		}
		r.set("core.step_ms", coreMs, "ms")
		r.set("core.self_ms", selfMs, "ms")
		if err := kernelLadder(ctx, e, r, sys, core.BVH, cfg.Params); err != nil {
			return nil, err
		}
		snap, err := encodeSnapshot(sys)
		if err != nil {
			return nil, err
		}
		if err := probeServed(ctx, e, r, snap, probeSpec{algo: "bvh", n: serveN, dt: serveDT, steps: serveReqSteps, coreStepMs: coreMs}); err != nil {
			return nil, err
		}
		// The lone session's own rung 2 replaces the probe's.
		r.set("serve.step_ms", serveStep, "ms")
		r.set("serve.over_core", serveStep/coreMs, "x")
		r.note("serve.over_core = %.3f ms/step served (default flags) / %.3f ms/step bare core.Sim (BVH, N=%d, all cores)", serveStep, coreMs, serveN)
		vm, err := fetchV1Metrics(ctx, srv.url)
		if err != nil {
			return nil, err
		}
		r.set("serve.shed", float64(vm.StepsRejected), "count")
	} else {
		out, _, wall, err := measure(e.window(), samplesFor(0.9), nil)
		if err != nil {
			return nil, err
		}
		var stepMs, reqMs []float64
		good := 0
		for _, s := range out {
			stepMs = append(stepMs, s.lat/serveReqSteps)
			reqMs = append(reqMs, s.lat)
			if s.lat <= ms(serveLatencyLim) {
				good++
			}
		}
		p90, err := tailPercentile(stepMs, 0.9)
		if err != nil {
			return nil, err
		}
		r.set("step_ms_p50", median(stepMs), "ms")
		r.set("step_ms_p90", p90, "ms")
		r.set("req_ms_p50", median(reqMs), "ms")
		r.set("req_ms_tmean", trimmedMean(reqMs, reqTrim), "ms")
		r.set("bodies_steps_per_s", float64(serveN*serveReqSteps*len(out))/wall.Seconds(), "bodies_steps/s")
		r.set("goodput_rps", float64(good)/wall.Seconds(), "req/s")
		r.note("%d timed %d-step requests (closed loop, 1 client); step p90 has %d samples beyond it", len(out), serveReqSteps, len(out)-int(math.Ceil(0.9*float64(len(out)))))
	}
	r.set("energy_drift_rel", drift, "ratio")
	r.check("energy_drift_rel", drift > 0 && drift <= maxServeDrift, "|E%d-E0|/|E0| = %.4g <= %g", serveEnergyStep, drift, maxServeDrift)

	final, _, err := download(ctx, c, id)
	r.class("snapshot").record(err)
	if err != nil {
		r.check("final_snapshot", false, "%v", err)
	} else if err := final.Validate(); err != nil {
		r.check("final_snapshot", false, "%v", err)
	} else {
		r.check("final_snapshot", final.N() == serveN, "downloaded, decoded, %d finite bodies after %d steps", final.N(), steps)
	}
	rss, err := srv.hwmMB()
	if err != nil {
		return nil, err
	}
	r.set("rss_peak_mb", rss, "MB")
	return r, nil
}

// coreSteps is rung 1 of the ladder: one warm-up and 20 timed steps of a
// bare core.Sim with cfg on every core, on a copy of sys. It returns the median step time and the mean time per
// step outside the phase spans of Sim.Breakdown.
func coreSteps(ctx context.Context, tr *Tracer, cfg core.Config, sys *body.System) (stepMs, selfMs float64, err error) {
	sim, err := core.New(cfg, sys.Clone())
	if err != nil {
		return 0, 0, err
	}
	if err := sim.Step(); err != nil {
		return 0, 0, err
	}
	before := sim.Breakdown().Total()
	var lat []float64
	var busy time.Duration
	for len(lat) < 20 {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		sp := tr.Begin("core.Step", 0, tr.NewReq())
		t := time.Now()
		if err := sim.Step(); err != nil {
			return 0, 0, err
		}
		d := time.Since(t)
		tr.End(sp)
		lat = append(lat, ms(d))
		busy += d
	}
	phases := sim.Breakdown().Total() - before
	return median(lat), ms(busy-phases) / float64(len(lat)), nil
}

// probeSpec sizes the served ladder probe for a workload.
type probeSpec struct {
	algo       string
	n          int
	dt         float64
	steps      int     // steps per probe request
	coreStepMs float64 // rung 1 at the same size, for serve.over_core
}

// probeServed measures the served rungs a workload does not exercise
// itself, on a probe deployment of its own: one nbody-serve with default
// flags and a state directory, behind one nbody-router. It uploads the
// workload's bodies, steps them, reads them back directly and through
// the router, watches, runs a small job and one pipelined request, then
// reads the servers' exported metrics.
func probeServed(ctx context.Context, e *env, r *report, snap []byte, ps probeSpec) error {
	shard, err := e.launch(ctx, "probe-shard", "nbody-serve", "-shard-id", "p", "-state-dir", filepath.Join(e.runDir, "state", "probe"))
	if err != nil {
		return err
	}
	defer shard.stop()
	rt, err := e.launch(ctx, "probe-router", "nbody-router", "-shard", "p="+shard.url)
	if err != nil {
		return err
	}
	defer rt.stop()
	viaRouter, err := newClient(rt.url, e.nproc)
	if err != nil {
		return err
	}
	direct, err := newClient(shard.url, e.nproc)
	if err != nil {
		return err
	}
	m0, err := promSamples(ctx, shard.url)
	if err != nil {
		return err
	}
	v0, err := fetchV1Metrics(ctx, shard.url)
	if err != nil {
		return err
	}
	cls := r.class("probe")
	cfg := &client.SessionConfig{Algorithm: ps.algo, DT: ps.dt}
	s, err := viaRouter.CreateSessionFromSnapshot(ctx, bytes.NewReader(snap), client.SnapshotParams{Config: cfg})
	cls.record(err)
	if err != nil {
		return fmt.Errorf("probe upload: %w", err)
	}
	requests := 1

	// Rung 2 and 3: server step time against client latency.
	var stepMs, over []float64
	for i := 0; i < 3; i++ {
		sp := e.tr.Begin("probe.client.Step", 0, e.tr.NewReq())
		t := time.Now()
		res, err := viaRouter.Step(ctx, s.ID, ps.steps)
		lat := ms(time.Since(t))
		e.tr.End(sp)
		cls.record(err)
		requests++
		if err != nil {
			return fmt.Errorf("probe step: %w", err)
		}
		stepMs = append(stepMs, 1000*res.ElapsedSeconds/float64(res.Completed))
		over = append(over, lat-1000*res.ElapsedSeconds)
	}
	r.set("serve.step_ms", median(stepMs), "ms")
	r.set("serve.over_core", median(stepMs)/ps.coreStepMs, "x")
	r.set("http.overhead_ms", median(over), "ms")

	// Rung 4: the same small idempotent GET through the router and direct.
	var hop, snapMs []float64
	for i := 0; i < 10; i++ {
		var pair [2]float64
		for k, c := range []*client.Client{viaRouter, direct} {
			sp := e.tr.Begin("probe.client.Session", 0, e.tr.NewReq())
			t := time.Now()
			_, err := c.Session(ctx, s.ID)
			pair[k] = ms(time.Since(t))
			e.tr.End(sp)
			cls.record(err)
			requests++
			if err != nil {
				return fmt.Errorf("probe session get: %w", err)
			}
		}
		hop = append(hop, pair[0]-pair[1])
	}
	r.set("router.hop_ms", median(hop), "ms")
	for i := 0; i < 5; i++ {
		sp := e.tr.Begin("probe.snapshot.get", 0, e.tr.NewReq())
		t := time.Now()
		_, _, err := download(ctx, direct, s.ID)
		snapMs = append(snapMs, ms(time.Since(t)))
		e.tr.End(sp)
		cls.record(err)
		requests++
		if err != nil {
			return fmt.Errorf("probe snapshot: %w", err)
		}
	}
	r.set("snapshot.get_ms_p50", median(snapMs), "ms")

	first, err := watchFirst(ctx, e.tr, viaRouter, s.ID, 2*ps.steps, ps.steps)
	cls.record(err)
	requests++
	if err != nil {
		return fmt.Errorf("probe watch: %w", err)
	}
	r.set("watch.first_event_ms_p50", first, "ms")

	// exec: no workload session is pipelined today, so one pipelined
	// request keeps the executor's busy time a measured reading.
	ps2, err := viaRouter.CreateSessionFromSnapshot(ctx, bytes.NewReader(snap), client.SnapshotParams{Config: &client.SessionConfig{Algorithm: ps.algo, DT: ps.dt, Pipeline: client.Bool(true)}})
	cls.record(err)
	requests++
	if err != nil {
		return fmt.Errorf("probe pipelined upload: %w", err)
	}
	_, err = viaRouter.Step(ctx, ps2.ID, ps.steps)
	cls.record(err)
	requests++
	if err != nil {
		return fmt.Errorf("probe pipelined step: %w", err)
	}

	job, err := viaRouter.SubmitJob(ctx, client.JobSpec{Workload: "galaxy", N: ps.n, Seed: e.seed, Steps: 2 * ps.steps, Class: client.JobClassLow,
		Config: cfg})
	cls.record(err)
	requests++
	if err != nil {
		return fmt.Errorf("probe job: %w", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	job, err = viaRouter.WaitJob(wctx, job.ID, 20*time.Millisecond)
	cancel()
	if err != nil {
		return fmt.Errorf("probe job wait: %w", err)
	}
	if job.State != "succeeded" {
		return fmt.Errorf("probe job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	r.set("jobs.wait_ms_p50", ms(job.Started.Sub(job.Created)), "ms")
	r.set("jobs.run_ms_p50", ms(job.Finished.Sub(job.Started)), "ms")

	m1, err := promSamples(ctx, shard.url)
	if err != nil {
		return err
	}
	v1, err := fetchV1Metrics(ctx, shard.url)
	if err != nil {
		return err
	}
	setStore(r, m0, m1, requests)
	r.set("exec.busy_s", v1.execBusy()-v0.execBusy(), "s")
	r.set("serve.shed", float64(v1.StepsRejected-v0.StepsRejected), "count")
	return nil
}

// setStore derives the store rung from two scrapes of a shard's
// nbody_checkpoint_seconds histogram.
func setStore(r *report, m0, m1 map[string]float64, requests int) {
	n := m1["nbody_checkpoint_seconds_count"] - m0["nbody_checkpoint_seconds_count"]
	sum := m1["nbody_checkpoint_seconds_sum"] - m0["nbody_checkpoint_seconds_sum"]
	meanMs := 0.0
	if n > 0 {
		meanMs = 1000 * sum / n
	}
	r.set("store.checkpoint_ms_mean", meanMs, "ms")
	r.set("store.checkpoints_per_req", n/float64(requests), "count/req")
}

// watchFirst opens a watch stream of steps steps with an event every
// every, drains it, and returns the time to its first event in ms.
func watchFirst(ctx context.Context, tr *Tracer, c *client.Client, id string, steps, every int) (float64, error) {
	sp := tr.Begin("client.Watch", 0, tr.NewReq())
	defer tr.End(sp)
	t := time.Now()
	w, err := c.Watch(ctx, id, client.WatchOptions{Steps: steps, Every: every, MaxReconnects: -1})
	if err != nil {
		return 0, err
	}
	defer w.Close()
	first := -1.0
	for {
		_, err := w.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if first < 0 {
			first = ms(time.Since(t))
		}
	}
	if first < 0 {
		return 0, fmt.Errorf("watch %s produced no event", id)
	}
	return first, nil
}
