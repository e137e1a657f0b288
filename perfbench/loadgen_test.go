package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a := sessionSchedule(7, 10, 3*time.Second, 0.5)
	b := sessionSchedule(7, 10, 3*time.Second, 0.5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different schedules")
	}
	if c := sessionSchedule(8, 10, 3*time.Second, 0.5); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same schedule")
	}
	if len(a) != 30 {
		t.Fatalf("%d arrivals, want rate·window = 30", len(a))
	}
	preds := 0
	for i, arr := range a {
		if arr.At < 0 || arr.At >= 3*time.Second {
			t.Fatalf("arrival %d at %v is outside the window", i, arr.At)
		}
		if i > 0 && arr.At < a[i-1].At {
			t.Fatalf("arrivals out of order at %d", i)
		}
		if arr.Predicate {
			preds++
		}
	}
	if preds != 15 {
		t.Fatalf("%d predicate sessions, want half of 30", preds)
	}
}

// getStepper issues one GET per session.
type getStepper struct{ url string }

func (g getStepper) Step(ctx context.Context, s, i int) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url, nil)
	if err != nil {
		return false, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	return false, nil
}

// TestLatencyCountsFromDueTime stalls the first request and checks that
// the requests due during the stall are charged for it: their latency
// runs from their due time, not from when the one sender got to them.
func TestLatencyCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()

	sched := []arrival{{At: 0}, {At: 50 * time.Millisecond}, {At: 100 * time.Millisecond}, {At: 150 * time.Millisecond}}
	g := &generator{senders: 1}
	start := time.Now()
	samples := g.run(context.Background(), start, sched, getStepper{srv.URL})
	if len(samples) != len(sched) {
		t.Fatalf("%d samples, want %d", len(samples), len(sched))
	}
	for i, s := range samples {
		if s.Err != nil {
			t.Fatalf("request %d: %v", i, s.Err)
		}
		if want := start.Add(sched[i].At); !s.Due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, s.Due.Sub(start), sched[i].At)
		}
		if floor := stall - sched[i].At; s.Latency() < floor {
			t.Errorf("request %d latency %v, want at least %v (stall from its due time)", i, s.Latency(), floor)
		}
		if i > 0 {
			if floor := stall - sched[i].At; s.Late() < floor {
				t.Errorf("request %d sent %v late, want at least %v", i, s.Late(), floor)
			}
			if service := s.Done.Sub(s.Sent); s.Latency() < service+s.Late() {
				t.Errorf("request %d latency %v excludes its wait for a sender", i, s.Latency())
			}
		}
	}
	if got := g.maxInflight.Load(); got != 1 {
		t.Fatalf("max in flight %d, want 1 (one sender)", got)
	}
}
