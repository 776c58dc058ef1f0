package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"

	"nbody/client"
	"nbody/internal/body"
	"nbody/internal/core"
	"nbody/internal/snapshot"
	"nbody/internal/workload"
)

const (
	// fleetRate is the open-loop arrival rate, about half the rate the
	// seed sustains without shedding on the 2-core reference host.
	fleetRate = 35.0
	// fleetLatencyLimit is the goodput latency limit on a request, about
	// twice the seed's p99 at fleetRate.
	fleetLatencyLimit = 500 * time.Millisecond
	fleetSessions     = 16
	fleetReqSteps     = 5
	fleetWatchSteps   = 10
	fleetWatchEvery   = 5
	fleetJobSteps     = 50
	fleetJobN         = 512
	// fleetStepN is the session size step_ms is taken on. A step on a
	// 512-body session costs about a fifth of one on a 2048-body session,
	// so over both sizes the median would fall in the gap between two
	// modes, where it jumps with the mix.
	fleetStepN  = 2048
	fleetChurnN = 512
	// fleetGrace is how long queued operations may still be sent after
	// the window closes before they count as contention.
	fleetGrace = 2 * time.Second
	// fleetScheduleSeed fixes the arrival order (see schedule in runFleet).
	fleetScheduleSeed = 1
)

// Request classes of the fleet mix and their shares of arrivals.
const (
	opStep     = "step"
	opSnapshot = "snapshot"
	opWatch    = "watch"
	opJob      = "job"
	opChurn    = "churn"
)

// fleetMix is one block of 20 arrivals. The schedule is a sequence of
// blocks, each shuffled by the seed, so every run sends the mix's exact
// shares: 70% step, 10% snapshot, 10% watch, 5% job, 5% churn.
var fleetMix = []struct {
	class    string
	perBlock int
}{{opStep, 14}, {opSnapshot, 2}, {opWatch, 2}, {opJob, 1}, {opChurn, 1}}

// fleetSession is one of the long-lived sessions the mix targets.
type fleetSession struct {
	id, workload, algo string
	n                  int
	dt                 float64
}

// fleetSpecs is the session matrix: N ∈ {512, 2048} × {octree, bvh} ×
// {plummer, galaxy}, twice over.
func fleetSpecs() []fleetSession {
	out := make([]fleetSession, fleetSessions)
	for i := range out {
		s := fleetSession{n: []int{512, 2048}[i%2], algo: []string{"octree", "bvh"}[(i/2)%2]}
		if (i/4)%2 == 0 {
			s.workload, s.dt = "plummer", 1e-3
		} else {
			s.workload, s.dt = "galaxy", 1e-5
		}
		out[i] = s
	}
	return out
}

// fleetProbeSession is the session whose bodies (galaxy, N = 2048,
// octree) the traced run's in-process ladder and probe deployment use.
const fleetProbeSession = 5

// fleetSystem generates session i's bodies.
func fleetSystem(seed uint64, i int) (*body.System, error) {
	s := fleetSpecs()[i]
	return workload.ByName(s.workload, s.n, seed*1000+uint64(i))
}

// fleet is one booted deployment: two durable shards behind a router.
type fleet struct {
	shards   map[string]*proc
	router   *proc
	c        *client.Client
	sessions []fleetSession
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	stopAll(f.router, f.shards["a"], f.shards["b"])
}

func (f *fleet) procs() []*proc { return []*proc{f.shards["a"], f.shards["b"], f.router} }

// bootFleet starts the shards and router, uploads the sessions and steps
// each once. Everything it does is setup time.
func bootFleet(ctx context.Context, e *env, k int, snaps [][]byte) (*fleet, error) {
	workers := strconv.Itoa(max(1, e.nproc/2))
	f := &fleet{shards: map[string]*proc{}}
	for _, name := range []string{"a", "b"} {
		p, err := e.launch(ctx, fmt.Sprintf("fleet%d-%s", k, name), "nbody-serve", "-shard-id", name,
			"-workers", workers, "-job-workers", "1")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards[name] = p
	}
	rt, err := e.launch(ctx, fmt.Sprintf("fleet%d-router", k), "nbody-router",
		"-shard", "a="+f.shards["a"].url, "-shard", "b="+f.shards["b"].url)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = rt
	if f.c, err = newClient(rt.url, e.nproc); err != nil {
		f.stop()
		return nil, err
	}
	f.sessions = fleetSpecs()
	for i := range f.sessions {
		s := &f.sessions[i]
		info, err := f.c.CreateSessionFromSnapshot(ctx, bytes.NewReader(snaps[i]), client.SnapshotParams{Config: &client.SessionConfig{Algorithm: s.algo, DT: s.dt}})
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("fleet upload %d: %w", i, err)
		}
		s.id = info.ID
		if _, err := f.c.Step(ctx, s.id, fleetReqSteps); err != nil {
			f.stop()
			return nil, fmt.Errorf("fleet first step %d: %w", i, err)
		}
	}
	return f, nil
}

// fleetOp is what one scheduled operation does.
type fleetOp struct {
	class  string
	target int
}

// fleetObs is what one operation observed beyond its outcome.
type fleetObs struct {
	elapsedMs float64 // server-reported run time (step)
	sendMs    float64 // latency from send (snapshot get, step)
	firstMs   float64 // time to first watch event from send
	bodySteps float64
	steps     int
	session   int // session index a step or watch ran on
}

// sessionPool hands out sessions exclusively to step and watch
// operations, so the generator never makes two runs collide on one
// session (the server would answer 409).
type sessionPool struct {
	mu   sync.Mutex
	busy []bool
}

// acquire returns want if free, else the next free session, else -1.
func (p *sessionPool) acquire(want int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := 0; k < len(p.busy); k++ {
		i := (want + k) % len(p.busy)
		if !p.busy[i] {
			p.busy[i] = true
			return i
		}
	}
	return -1
}

func (p *sessionPool) release(i int) {
	p.mu.Lock()
	p.busy[i] = false
	p.mu.Unlock()
}

func runFleet(ctx context.Context, e *env) (*report, error) {
	r := newReport()
	specs := fleetSpecs()
	genSnaps := func() ([][]byte, error) {
		out := make([][]byte, len(specs))
		for i := range specs {
			sys, err := fleetSystem(e.seed, i)
			if err != nil {
				return nil, err
			}
			if out[i], err = encodeSnapshot(sys); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	var f *fleet
	defer func() { f.stop() }()
	var setups []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		snaps, err := genSnaps()
		if err != nil {
			return nil, err
		}
		nf, err := bootFleet(ctx, e, k, snaps)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		f.stop()
		f = nf
	}
	r.set("setup_s", median(setups), "s")
	c := f.c

	churnSys := workload.Plummer(fleetChurnN, e.seed)
	churnSnap, err := encodeSnapshot(churnSys)
	if err != nil {
		return nil, err
	}
	// Upload-then-download round trip through the router.
	if err := roundTrip(ctx, c, churnSnap, r); err != nil {
		return nil, err
	}

	scrapeV1 := func() (map[string]v1Metrics, error) {
		out := map[string]v1Metrics{}
		for name, p := range f.shards {
			m, err := fetchV1Metrics(ctx, p.url)
			if err != nil {
				return nil, err
			}
			out[name] = m
		}
		return out, nil
	}

	// The schedule is the same on every run: the seed varies the bodies,
	// not the traffic, whose order would otherwise move the latency
	// medians from seed to seed. The traced run's untraced and traced
	// halves therefore send the same operations in the same order. Each
	// class walks the sessions in one fixed order, so every session gets
	// its share of every class.
	schedule := func(n int) []fleetOp {
		rng := rand.New(rand.NewPCG(fleetScheduleSeed, 0xf1ee7))
		var block []string
		for _, m := range fleetMix {
			for k := 0; k < m.perBlock; k++ {
				block = append(block, m.class)
			}
		}
		order := rng.Perm(fleetSessions)
		next := map[string]int{}
		ops := make([]fleetOp, 0, n+len(block))
		for len(ops) < n {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			for _, class := range block {
				ops = append(ops, fleetOp{class: class, target: order[next[class]%fleetSessions]})
				next[class]++
			}
		}
		return ops[:n]
	}

	pool := &sessionPool{busy: make([]bool, fleetSessions)}
	var jobMu sync.Mutex
	var jobIDs []string
	var apiErrs []*client.APIError
	type window struct {
		ops  []fleetOp
		obs  []fleetObs
		recs []opRecord
		dur  time.Duration
	}
	drive := func(dur time.Duration, tr *Tracer) window {
		n := int(fleetRate * dur.Seconds())
		w := window{ops: schedule(n), obs: make([]fleetObs, n), dur: dur}
		w.recs = openLoop(ctx, fleetRate, dur, fleetGrace, e.nproc, func(ctx context.Context, i int, due time.Time) error {
			op, ob := w.ops[i], &w.obs[i]
			req := tr.NewReq()
			parent := tr.BeginAt("fleet."+op.class, due, 0, req)
			defer tr.End(parent)
			sp := tr.Begin("client."+op.class, parent.id(), req)
			defer tr.End(sp)
			sent := time.Now()
			switch op.class {
			case opStep, opWatch:
				idx := pool.acquire(op.target)
				if idx < 0 {
					return errContention
				}
				defer pool.release(idx)
				s := f.sessions[idx]
				ob.session = idx
				if op.class == opStep {
					res, err := c.Step(ctx, s.id, fleetReqSteps)
					ob.sendMs = ms(time.Since(sent))
					ob.elapsedMs = 1000 * res.ElapsedSeconds
					ob.bodySteps = float64(s.n * res.Completed)
					ob.steps = res.Completed
					return err
				}
				first, err := watchFirst(ctx, nil, c, s.id, fleetWatchSteps, fleetWatchEvery)
				ob.firstMs = first
				if err == nil {
					ob.bodySteps = float64(s.n * fleetWatchSteps)
				}
				return err
			case opSnapshot:
				_, _, err := download(ctx, c, f.sessions[op.target].id)
				ob.sendMs = ms(time.Since(sent))
				return err
			case opJob:
				wl := []string{"plummer", "galaxy"}[op.target%2]
				dt := map[string]float64{"plummer": 1e-3, "galaxy": 1e-5}[wl]
				job, err := c.SubmitJob(ctx, client.JobSpec{Workload: wl, N: fleetJobN, Seed: e.seed*1000 + uint64(i), Steps: fleetJobSteps,
					Class: client.JobClassLow, Config: &client.SessionConfig{Algorithm: []string{"octree", "bvh"}[(op.target/2)%2], DT: dt}})
				if err == nil {
					jobMu.Lock()
					jobIDs = append(jobIDs, job.ID)
					jobMu.Unlock()
				}
				return err
			default: // opChurn
				s, err := c.CreateSessionFromSnapshot(ctx, bytes.NewReader(churnSnap), client.SnapshotParams{Config: &client.SessionConfig{Algorithm: "octree", DT: 1e-3}})
				if err != nil {
					return err
				}
				return c.DeleteSession(ctx, s.ID)
			}
		})
		for _, rec := range w.recs {
			r.class(w.ops[rec.Index].class).record(rec.Err)
			var ae *client.APIError
			if errors.As(rec.Err, &ae) {
				apiErrs = append(apiErrs, ae)
			}
		}
		return w
	}

	reqLat := func(w window) (all []float64) {
		for _, rec := range w.recs {
			if !errors.Is(rec.Err, errContention) {
				all = append(all, ms(rec.Latency()))
			}
		}
		return all
	}

	v10, err := scrapeV1()
	if err != nil {
		return nil, err
	}
	var w window
	if e.trace {
		plain := drive(e.window()/2, nil)
		e.tr = newTracer()
		w = drive(e.window()/2, e.tr)
		r.set("trace.overhead_pct", 100*(median(reqLat(w))/median(reqLat(plain))-1), "%")
	} else {
		w = drive(e.window(), nil)
	}
	sent := 0
	for _, rec := range w.recs {
		if !errors.Is(rec.Err, errContention) {
			sent++
		}
	}

	// Let the submitted jobs finish, then read their records.
	jobs, err := collectJobs(ctx, c, jobIDs, r)
	if err != nil {
		return nil, err
	}

	// End-to-end metrics over the (last) window.
	all := reqLat(w)
	var stepMs, snapMs, firstMs, over, late []float64
	var bodySteps, elapsed float64
	completed := 0
	stepsOn := make([]int, fleetSessions) // steps served per session, step class
	good := 0
	for i, rec := range w.recs {
		if errors.Is(rec.Err, errContention) {
			continue
		}
		late = append(late, ms(rec.Late()))
		ob := w.obs[i]
		if rec.Err == nil && rec.Latency() <= fleetLatencyLimit {
			good++
		}
		if rec.Err != nil {
			continue
		}
		bodySteps += ob.bodySteps
		switch w.ops[i].class {
		case opStep:
			if f.sessions[ob.session].n == fleetStepN {
				stepMs = append(stepMs, ms(rec.Latency())/fleetReqSteps)
			}
			over = append(over, ob.sendMs-ob.elapsedMs)
			elapsed += ob.elapsedMs
			completed += ob.steps
			stepsOn[ob.session] += ob.steps
		case opSnapshot:
			snapMs = append(snapMs, ob.sendMs)
		case opWatch:
			firstMs = append(firstMs, ob.firstMs)
		}
	}
	// Rates are per second of wall time from the first due time to the
	// last completion, so a backlog that outlasts the window counts.
	var end time.Time
	for _, rec := range w.recs {
		if rec.Done.After(end) {
			end = rec.Done
		}
	}
	secs := end.Sub(w.recs[0].Due).Seconds()
	r.set("req_ms_p50", median(all), "ms")
	r.set("req_ms_tmean", trimmedMean(all, reqTrim), "ms")
	r.set("bodies_steps_per_s", bodySteps/secs, "bodies_steps/s")
	r.set("goodput_rps", float64(good)/secs, "req/s")
	r.set("job_turnaround_ms_p50", median(jobs.turnaround), "ms")
	if !e.trace {
		p99, err99 := tailPercentile(all, 0.99)
		p90, err90 := tailPercentile(stepMs, 0.9)
		r.check("tail_samples", err99 == nil && err90 == nil, "req p99: %v; step p90: %v", errOrOK(err99), errOrOK(err90))
		r.set("req_ms_p99", p99, "ms")
		r.set("step_ms_p50", median(stepMs), "ms")
		r.set("step_ms_p90", p90, "ms")
		r.note("open loop at %.0f req/s for %v: %d requests sent, %d step requests; latency limit %v", fleetRate, w.dur, sent, len(stepMs), fleetLatencyLimit)
	}

	// Error envelopes: every error seen, plus one provoked on purpose.
	_, perr := c.Session(ctx, "rs-perfbench-missing")
	var pe *client.APIError
	if errors.As(perr, &pe) {
		apiErrs = append(apiErrs, pe)
	}
	bad := 0
	for _, ae := range apiErrs {
		if ae.Code == "" {
			bad++
		}
	}
	r.check("error_envelopes", pe != nil && pe.Status == 404 && pe.Code == client.CodeSessionNotFound && bad == 0,
		"%d error bodies, %d without a /v1 envelope; provoked 404 code %q", len(apiErrs), bad, codeOf(pe))

	if e.trace {
		// Rungs the fleet does not exercise itself (the store, the router
		// hop and the executor) come from the probe deployment; the rest
		// from the fleet's own traced window, overriding the probe's.
		// Rung 1 is every session's bare core.Sim step, weighted by the
		// steps the window served on it, so serve.over_core compares the
		// same work.
		var coreTotal, selfTotal, probeCoreMs float64
		for i, s := range f.sessions {
			sys, err := fleetSystem(e.seed, i)
			if err != nil {
				return nil, err
			}
			algo, err := core.ParseAlgorithm(s.algo)
			if err != nil {
				return nil, err
			}
			stepMs, selfMs, err := coreSteps(ctx, e.tr, core.Config{Algorithm: algo, DT: s.dt}, sys)
			if err != nil {
				return nil, err
			}
			coreTotal += stepMs * float64(stepsOn[i])
			selfTotal += selfMs * float64(stepsOn[i])
			if i == fleetProbeSession {
				probeCoreMs = stepMs
			}
		}
		r.set("core.step_ms", coreTotal/float64(completed), "ms")
		r.set("core.self_ms", selfTotal/float64(completed), "ms")

		ps := f.sessions[fleetProbeSession]
		sys, err := fleetSystem(e.seed, fleetProbeSession)
		if err != nil {
			return nil, err
		}
		cfg := core.Config{Algorithm: core.Octree, DT: ps.dt}
		if err := kernelLadder(ctx, e, r, sys, core.Octree, cfg.Params); err != nil {
			return nil, err
		}
		snap, err := encodeSnapshot(sys)
		if err != nil {
			return nil, err
		}
		if err := probeServed(ctx, e, r, snap, probeSpec{algo: ps.algo, n: ps.n, dt: ps.dt, steps: fleetReqSteps, coreStepMs: probeCoreMs}); err != nil {
			return nil, err
		}
		v11, err := scrapeV1()
		if err != nil {
			return nil, err
		}
		var shed int64
		for name := range f.shards {
			shed += v11[name].StepsRejected - v10[name].StepsRejected
		}
		serveStep := elapsed / float64(completed)
		r.set("serve.shed", float64(shed), "count")
		r.set("serve.step_ms", serveStep, "ms")
		r.set("serve.over_core", elapsed/coreTotal, "x")
		r.set("http.overhead_ms", median(over), "ms")
		r.set("snapshot.get_ms_p50", median(snapMs), "ms")
		r.set("watch.first_event_ms_p50", median(firstMs), "ms")
		r.set("jobs.wait_ms_p50", median(jobs.wait), "ms")
		r.set("jobs.run_ms_p50", median(jobs.run), "ms")
		r.set("loadgen.late_ms_p99", quantile(late, 0.99), "ms")
		r.set("loadgen.contention", float64(r.total().Contention), "count")
	}

	var rss float64
	for _, p := range f.procs() {
		mb, err := p.hwmMB()
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	r.set("rss_peak_mb", rss, "MB")
	return r, nil
}

func codeOf(e *client.APIError) string {
	if e == nil {
		return ""
	}
	return e.Code
}

// roundTrip uploads snap, downloads it straight back and requires the
// bytes to be identical, then deletes the session.
func roundTrip(ctx context.Context, c *client.Client, snap []byte, r *report) error {
	s, err := c.CreateSessionFromSnapshot(ctx, bytes.NewReader(snap), client.SnapshotParams{Config: &client.SessionConfig{Algorithm: "octree", DT: 1e-3}})
	if err != nil {
		return fmt.Errorf("round-trip upload: %w", err)
	}
	_, raw, err := download(ctx, c, s.ID)
	if err != nil {
		return fmt.Errorf("round-trip download: %w", err)
	}
	r.check("snapshot_round_trip", bytes.Equal(raw, snap), "upload %d bytes, download %d bytes, identical=%v", len(snap), len(raw), bytes.Equal(raw, snap))
	return c.DeleteSession(ctx, s.ID)
}

type jobTimes struct{ turnaround, wait, run []float64 }

// collectJobs waits (bounded) for every submitted job to finish, reads
// each record's timestamps, and downloads each finished job's snapshot.
func collectJobs(ctx context.Context, c *client.Client, ids []string, r *report) (jobTimes, error) {
	var jt jobTimes
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	bad := 0
	for _, id := range ids {
		job, err := c.WaitJob(wctx, id, 20*time.Millisecond)
		if err != nil {
			return jt, fmt.Errorf("waiting for job %s: %w", id, err)
		}
		if job.State != "succeeded" {
			bad++
			continue
		}
		jt.turnaround = append(jt.turnaround, ms(job.Finished.Sub(job.Created)))
		jt.wait = append(jt.wait, ms(job.Started.Sub(job.Created)))
		jt.run = append(jt.run, ms(job.Finished.Sub(job.Started)))
		if err := checkJobSnapshot(ctx, c, id); err != nil {
			bad++
		}
	}
	r.check("job_artifacts", bad == 0 && len(ids) > 0, "%d jobs submitted, %d not succeeded or without a decodable snapshot", len(ids), bad)
	return jt, nil
}

func errOrOK(err error) string {
	if err != nil {
		return err.Error()
	}
	return "ok"
}

// checkJobSnapshot downloads a finished job's snapshot artifact and
// requires it to decode to a finite system.
func checkJobSnapshot(ctx context.Context, c *client.Client, id string) error {
	rc, err := c.JobSnapshot(ctx, id)
	if err != nil {
		return err
	}
	defer rc.Close()
	sys, _, err := snapshot.Read(rc)
	if err != nil {
		return err
	}
	return sys.Validate()
}
