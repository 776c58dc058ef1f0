package main

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"nbody/client"
)

// errContention marks an operation the generator held back and never
// sent: no free session to target, or still queued when the run closed.
// It is the load generator's own limit, not a server failure.
var errContention = errors.New("contention: held client-side, never sent")

// Outcomes counts what happened to the operations of one class.
type Outcomes struct {
	Attempted  int `json:"attempted"`
	OK         int `json:"ok"`
	Shed       int `json:"shed"`
	Failed     int `json:"failed"`
	Contention int `json:"contention"`
}

// record classifies err into o. Shed is a 429 refusal; failed is every
// other error that reached (or tried to reach) the server: 5xx, other
// statuses, transport and decode errors. Contention never reached it.
func (o *Outcomes) record(err error) {
	o.Attempted++
	var ae *client.APIError
	switch {
	case err == nil:
		o.OK++
	case errors.Is(err, errContention):
		o.Contention++
	case errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests:
		o.Shed++
	default:
		o.Failed++
	}
}

func (o *Outcomes) add(p Outcomes) {
	o.Attempted += p.Attempted
	o.OK += p.OK
	o.Shed += p.Shed
	o.Failed += p.Failed
	o.Contention += p.Contention
}

// failedShare is (shed + failed) ÷ attempted, contention excluded from
// both sides: an operation never sent cannot have failed at the server.
func (o Outcomes) failedShare() float64 {
	sent := o.Attempted - o.Contention
	if sent == 0 {
		return 0
	}
	return float64(o.Shed+o.Failed) / float64(sent)
}

// opRecord is one open-loop operation: when it was due, when a worker
// sent it, and when it finished.
type opRecord struct {
	Index int
	Due   time.Time
	Sent  time.Time
	Done  time.Time
	Err   error
}

// Latency counts from the due time, so a stall charges every operation
// that was due while it lasted, not only the one that hit it.
func (r opRecord) Latency() time.Duration { return r.Done.Sub(r.Due) }

// Late is how late the generator sent the operation.
func (r opRecord) Late() time.Duration { return r.Sent.Sub(r.Due) }

// openLoop sends operation i at start + i/rate for dur, on at most
// workers goroutines, regardless of how earlier operations fared.
// Operations still unsent grace after the window closes are recorded
// with errContention. It returns every operation scheduled, by index.
func openLoop(ctx context.Context, rate float64, dur, grace time.Duration, workers int, op func(ctx context.Context, i int, due time.Time) error) []opRecord {
	n := int(rate * dur.Seconds())
	recs := make([]opRecord, n)
	start := time.Now()
	for i := range recs {
		recs[i] = opRecord{Index: i, Due: start.Add(time.Duration(float64(i) / rate * float64(time.Second)))}
	}
	cutoff := start.Add(dur + grace)
	// Buffered to the number of sends so the dispatcher never waits on
	// a busy worker: a backlog shows as lateness, not as a slower clock.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &recs[i]
				r.Sent = time.Now()
				if ctx.Err() != nil || r.Sent.After(cutoff) {
					r.Err, r.Done = errContention, r.Sent
					continue
				}
				r.Err = op(ctx, i, r.Due)
				r.Done = time.Now()
			}
		}()
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
dispatch:
	for i := range recs {
		if d := time.Until(recs[i].Due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				for j := i; j < n; j++ {
					queue <- j
				}
				break dispatch
			}
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return recs
}

// classNames returns the keys of m sorted.
func classNames(m map[string]*Outcomes) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
