package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"nbody/client"
	"nbody/internal/jobs"
	"nbody/internal/obs"
	"nbody/internal/par"
	"nbody/internal/serve"
)

// newSmokeServer boots an in-process nbody-serve handler with the jobs
// API mounted.
func newSmokeServer(t *testing.T) *httptest.Server {
	t.Helper()
	cfg := serve.Config{
		MaxSessions:        32,
		MaxBodies:          10_000,
		IdleTTL:            time.Hour,
		StepSlots:          2,
		MaxQueue:           2,
		MaxStepsPerRequest: 100_000,
		Runtime:            par.NewRuntime(2, par.Dynamic),
		Obs:                obs.Nop(),
	}
	m, err := serve.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jm, err := jobs.NewManager(jobs.Config{
		Runner:   serve.NewJobRunner(m),
		Workers:  1,
		MaxQueue: 4,
		Obs:      cfg.Obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		jm.Close(ctx)
		m.Close(ctx)
	})
	srv := httptest.NewServer(serve.NewHandlerWithJobs(m, jm))
	t.Cleanup(srv.Close)
	return srv
}

// TestRunInvariants drives a short mixed load against a live in-process
// service and checks the report's accounting: every dispatched request is
// classified exactly once, so sent ≥ ok + shed + failed + contention
// holds with equality once all workers drained.
func TestRunInvariants(t *testing.T) {
	srv := newSmokeServer(t)
	c, err := client.New(srv.URL, client.WithRetries(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}

	cfg := genConfig{
		RPS:        300,
		Duration:   700 * time.Millisecond,
		Workers:    16,
		Mix:        map[string]int{classStep: 8, classJob: 1, classWatch: 1},
		Sessions:   4,
		N:          32,
		DT:         1e-3,
		StepBatch:  2,
		WatchSteps: 4,
		WatchEvery: 2,
		JobSteps:   10,
		JobClass:   "low",
		Seed:       1,
	}
	rep, err := run(context.Background(), []tenantClient{{c: c}}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Totals.Sent == 0 {
		t.Fatal("no requests dispatched")
	}
	if got := rep.Totals.OK + rep.Totals.Shed + rep.Totals.Failed + rep.Totals.Contention; rep.Totals.Sent < got {
		t.Errorf("totals: sent %d < ok+shed+failed+contention %d", rep.Totals.Sent, got)
	} else if rep.Totals.Sent != got {
		t.Errorf("totals: sent %d != ok+shed+failed+contention %d — some request finished unclassified", rep.Totals.Sent, got)
	}
	for cl, row := range rep.Classes {
		if row.Sent != row.OK+row.Shed+row.Failed+row.Contention {
			t.Errorf("class %s: sent %d != ok %d + shed %d + failed %d + contention %d", cl, row.Sent, row.OK, row.Shed, row.Failed, row.Contention)
		}
		if row.Sent > 0 && (row.P50Ms < 0 || row.P99Ms < row.P50Ms || row.MaxMs < row.P99Ms) {
			t.Errorf("class %s: inconsistent latency quantiles %+v", cl, row)
		}
		if row.ShedRate < 0 || row.ShedRate > 1 {
			t.Errorf("class %s: shed_rate %v out of [0,1]", cl, row.ShedRate)
		}
	}
	if rep.Classes[classStep].Sent == 0 {
		t.Error("step class saw no traffic despite weight 8")
	}
	if rep.Totals.Server5xx != 0 {
		t.Errorf("server answered %d 5xx during smoke load", rep.Totals.Server5xx)
	}
	// The SDK list iterator must still work against the post-run state
	// (jobs legitimately leave artifact sessions behind).
	for _, err := range c.Sessions(context.Background(), 0) {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestParseMix covers the mix flag grammar.
func TestParseMix(t *testing.T) {
	mix, err := parseMix("step=8, job=1,watch=0")
	if err != nil {
		t.Fatal(err)
	}
	if mix[classStep] != 8 || mix[classJob] != 1 || mix[classWatch] != 0 {
		t.Errorf("mix = %v", mix)
	}
	for _, bad := range []string{"", "step", "step=x", "step=-1", "warp=1"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

// TestPickClassDistribution sanity-checks the weighted draw: a class with
// all the weight always wins, a zero-weight class never does.
func TestPickClassDistribution(t *testing.T) {
	classes, weights, total := mixSlices(map[string]int{classStep: 3, classJob: 0, classWatch: 1})
	if total != 4 || len(classes) != 2 {
		t.Fatalf("mixSlices = %v %v %d", classes, weights, total)
	}
	for _, cl := range classes {
		if cl == classJob {
			t.Fatal("zero-weight class survived mixSlices")
		}
	}
}

// TestContentionIsNotFailure checks the classification of a client-side
// pool-exhaustion arrival: it counts as contention in the class and tenant
// rows — never as failed — and contributes no latency sample.
func TestContentionIsNotFailure(t *testing.T) {
	var cs classStats
	var tc tenantCounters
	for _, err := range []error{nil, errPoolExhausted, fmt.Errorf("wrapped: %w", errPoolExhausted), errors.New("boom")} {
		cs.sent++
		cs.record(time.Millisecond, err)
		tc.record(err)
	}
	if cs.ok != 1 || cs.contention != 2 || cs.failed != 1 || cs.shed != 0 {
		t.Errorf("class counters ok=%d contention=%d failed=%d shed=%d, want 1/2/1/0", cs.ok, cs.contention, cs.failed, cs.shed)
	}
	if len(cs.latencies) != 2 {
		t.Errorf("%d latency samples, want 2 (contention never reached the server)", len(cs.latencies))
	}
	if tc.sent != 4 || tc.ok != 1 || tc.contention != 2 || tc.failed != 1 {
		t.Errorf("tenant counters sent=%d ok=%d contention=%d failed=%d, want 4/1/2/1", tc.sent, tc.ok, tc.contention, tc.failed)
	}
}
