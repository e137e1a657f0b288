package main

import (
	"container/heap"
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one scheduled session or segment: its offset from the
// start of the timed window.
type arrival struct {
	At time.Duration
	// Predicate seeds the session with a structured predicate query
	// instead of the plain §5.3 heuristic.
	Predicate bool
}

// sessionSchedule places n = round(rate·window) session arrivals in
// [0, window): the window is cut into n equal slots and each arrival
// falls uniformly at random within its own slot. The offered rate is
// exact and the arrival times are random, but bursts are bounded: a
// Poisson schedule's clumps made the tail latency of a 20-second run
// differ by up to 2× between seeds, far beyond any usable regression
// bound. When predFrac > 0, every 1/predFrac-th arrival carries a
// predicate seed. The schedule is a pure function of its arguments.
func sessionSchedule(seed int64, rate float64, window time.Duration, predFrac float64) []arrival {
	n := int(rate*window.Seconds() + 0.5)
	rng := rand.New(rand.NewSource(seed))
	every := 0
	if predFrac > 0 {
		every = int(1/predFrac + 0.5)
	}
	out := make([]arrival, n)
	slot := float64(window) / float64(n)
	for i := range out {
		at := time.Duration((float64(i) + rng.Float64()) * slot)
		out[i] = arrival{At: at, Predicate: every > 0 && i%every == 0}
	}
	return out
}

// cameraSchedule is a camera's cadence: one fixed-length segment every
// 1/rate, the first half a period into the window. It fixes when the
// vision work arrives, so runs differ only in the sessions' slotted
// arrivals.
func cameraSchedule(rate float64, window time.Duration) []arrival {
	period := time.Duration(float64(time.Second) / rate)
	var out []arrival
	for at := period / 2; at < window; at += period {
		out = append(out, arrival{At: at})
	}
	return out
}

// stepper performs the requests of scheduled sessions. Step issues
// request i of session s and reports whether the session has another;
// a failed step ends its session. Steps of one session never overlap.
type stepper interface {
	Step(ctx context.Context, s, i int) (more bool, err error)
}

// sample is one timed request. Latency counts from Due, the moment the
// request was due to be sent, so a stall is charged to every request
// queued behind it; Sent−Due is how late the generator ran.
type sample struct {
	Session, Step   int
	Due, Sent, Done time.Time
	Err             error
}

// Latency is the request's due-to-response time.
func (s sample) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Late is how long after its due time the request was sent.
func (s sample) Late() time.Duration { return s.Sent.Sub(s.Due) }

// generator is an open-loop session load generator: sessions arrive on a fixed
// schedule whatever the system's state, and within a session the next
// request is due one think time after the previous response arrived. At
// most senders requests are in flight; a due request waits for a free
// sender, and that wait is part of its latency.
type generator struct {
	senders int
	think   time.Duration

	inflight    atomic.Int64
	maxInflight atomic.Int64
}

// due is one pending request.
type due struct {
	at      time.Time
	session int
	step    int
}

type dueHeap []due

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h dueHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)        { *h = append(*h, x.(due)) }
func (h *dueHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// run drives every scheduled session to completion, with offsets taken
// from start, and returns one sample per request issued.
func (g *generator) run(ctx context.Context, start time.Time, sched []arrival, st stepper) []sample {
	var (
		mu        sync.Mutex
		pending   dueHeap
		samples   []sample
		remaining = len(sched)
	)
	for i, a := range sched {
		pending = append(pending, due{at: start.Add(a.At), session: i})
	}
	heap.Init(&pending)
	wake := make(chan struct{}, 1)
	work := make(chan due)
	var wg sync.WaitGroup
	for w := 0; w < g.senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range work {
				sent := time.Now()
				n := g.inflight.Add(1)
				for {
					m := g.maxInflight.Load()
					if n <= m || g.maxInflight.CompareAndSwap(m, n) {
						break
					}
				}
				more, err := st.Step(ctx, d.session, d.step)
				done := time.Now()
				g.inflight.Add(-1)
				mu.Lock()
				samples = append(samples, sample{Session: d.session, Step: d.step, Due: d.at, Sent: sent, Done: done, Err: err})
				if more && err == nil {
					heap.Push(&pending, due{at: done.Add(g.think), session: d.session, step: d.step + 1})
				} else {
					remaining--
				}
				mu.Unlock()
				select {
				case wake <- struct{}{}:
				default:
				}
			}
		}()
	}

	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		mu.Lock()
		if remaining == 0 || ctx.Err() != nil {
			mu.Unlock()
			break
		}
		if pending.Len() == 0 {
			mu.Unlock()
			<-wake
			continue
		}
		next := pending[0]
		if wait := time.Until(next.at); wait > 0 {
			mu.Unlock()
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-wake:
				if !timer.Stop() {
					<-timer.C
				}
			}
			continue
		}
		heap.Pop(&pending)
		mu.Unlock()
		// Blocks while every sender is busy: the request's lateness
		// accrues, counted from next.at.
		work <- next
	}
	close(work)
	wg.Wait()
	sort.Slice(samples, func(a, b int) bool { return samples[a].Due.Before(samples[b].Due) })
	return samples
}
