package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p90, err := tailPercentile(xs, 0.9)
	if err != nil {
		t.Fatalf("100 samples, p90: %v", err)
	}
	if p90 != 90 {
		t.Fatalf("p90 = %v, want 90 (nearest rank)", p90)
	}
	if _, err := tailPercentile(xs[:99], 0.9); err == nil {
		t.Fatal("99 samples leave 9 beyond p90; want an error")
	}
	if _, err := tailPercentile(xs, 0.99); err == nil {
		t.Fatal("100 samples leave 1 beyond p99; want an error")
	}
	if got := samplesFor(0.9); got != 100 {
		t.Fatalf("samplesFor(0.9) = %d, want 100", got)
	}
	if got := samplesFor(0.99); got != 1000 {
		t.Fatalf("samplesFor(0.99) = %d, want 1000", got)
	}
}

// A server that stalls once must charge the stall to every request that
// was due while it lasted: latency counts from the due time, not from
// when the generator got round to sending.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	const rate = 100.0 // one request due every 10 ms
	recs := openLoop(context.Background(), rate, 200*time.Millisecond, time.Second, 1, func(ctx context.Context, i int, due time.Time) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	if len(recs) != 20 {
		t.Fatalf("scheduled %d operations, want 20", len(recs))
	}
	// Operation 5 was due 50 ms in, while the first request still held
	// the only worker until ~300 ms: it waited ~250 ms before it was sent.
	r5 := recs[5]
	if r5.Err != nil {
		t.Fatal(r5.Err)
	}
	if r5.Latency() < stall-60*time.Millisecond {
		t.Fatalf("op 5 latency %v does not include the stall (%v)", r5.Latency(), stall)
	}
	if r5.Late() < stall-60*time.Millisecond {
		t.Fatalf("op 5 was sent %v late, want about %v", r5.Late(), stall-50*time.Millisecond)
	}
	if send := r5.Done.Sub(r5.Sent); send > r5.Latency()/2 {
		t.Fatalf("op 5 spent %v after sending, most of its latency should be the wait", send)
	}
}

func TestOpenLoopCountsUnsentAsContention(t *testing.T) {
	// Op 0 holds the only worker past the window (grace 0), so the four
	// ops due behind it are never sent.
	recs := openLoop(context.Background(), 50, 100*time.Millisecond, 0, 1, func(ctx context.Context, i int, due time.Time) error {
		if i == 0 {
			time.Sleep(150 * time.Millisecond)
		}
		return nil
	})
	var o Outcomes
	for _, r := range recs {
		o.record(r.Err)
	}
	if o.Contention == 0 || o.OK != 1 {
		t.Fatalf("outcomes %+v: want op 0 ok and the ops queued behind it past the window held as contention", o)
	}
	if o.failedShare() != 0 {
		t.Fatalf("failed share %v: contention must not count as failure", o.failedShare())
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	parent := Span{ID: 1, Start: ms(0), End: ms(100)}
	children := []Span{
		{Parent: 1, Start: ms(10), End: ms(30)},
		{Parent: 1, Start: ms(20), End: ms(50)}, // overlaps the first: counted once
		{Parent: 1, Start: ms(80), End: ms(90)},
		{Parent: 1, Start: ms(95), End: ms(120)}, // clipped to the parent
	}
	// Covered: [10,50) + [80,90) + [95,100) = 55 ms.
	if got := selfTime(parent, children); got != ms(45) {
		t.Fatalf("self time %v, want 45ms", got)
	}
	if got := selfTime(parent, nil); got != ms(100) {
		t.Fatalf("self time without children %v, want 100ms", got)
	}
	sum := summarize(append([]Span{parent}, children...))
	if sum[0].Name != "" || sum[0].Count != 5 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestHistoryAppendKeepsEarlierEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	for i, key := range []string{"abc/2c", "def/2c"} {
		e := historyEntry{Key: key, Workload: "galaxy-1e5-sim", Seed: uint64(i), Metrics: map[string]metric{"step_ms_p50": {float64(i), "ms"}}}
		if err := appendHistory(path, e); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2:\n%s", len(lines), raw)
	}
	for i, want := range []string{"abc/2c", "def/2c"} {
		var e historyEntry
		if err := json.Unmarshal([]byte(lines[i]), &e); err != nil {
			t.Fatal(err)
		}
		if e.Key != want || e.Seed != uint64(i) {
			t.Fatalf("line %d = %+v, want key %s seed %d", i, e, want, i)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing should be NaN")
	}
}

func TestTrimmedMean(t *testing.T) {
	// Ten samples, 10% trimmed: the 1 and the 1000 go, the mean of 2..9 stays.
	xs := []float64{1000, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := trimmedMean(xs, 0.1); got != 5.5 {
		t.Fatalf("trimmedMean = %v, want 5.5", got)
	}
	if got := trimmedMean([]float64{3, 1, 2}, 0.1); got != 2 {
		t.Fatalf("trimmedMean of 3 samples = %v, want their mean 2", got)
	}
	if !math.IsNaN(trimmedMean(nil, 0.1)) {
		t.Fatal("trimmed mean of nothing should be NaN")
	}
}
