package server

import (
	"context"
	"testing"
)

// TestLoadGen32Sessions is the acceptance gate: 32 concurrent
// closed-loop sessions against one server (run under -race), zero
// dropped rounds and zero empty rankings.
func TestLoadGen32Sessions(t *testing.T) {
	const sessions, rounds = 32, 3
	rec := synthRecord(t, 21, 4, 4, 16)
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec), MaxSessions: sessions})
	lg := &LoadGen{
		Client:   client,
		Clip:     rec.Name,
		Sessions: sessions,
		Rounds:   rounds,
		TopK:     4,
		Judge:    judge,
	}
	rep, err := lg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedRounds != 0 {
		t.Fatalf("%d dropped rounds (errors: %v)", rep.DroppedRounds, rep.Errors)
	}
	if want := sessions * rounds; rep.RoundsServed != want {
		t.Fatalf("served %d rounds, want %d", rep.RoundsServed, want)
	}
	if rep.EmptyRankings != 0 {
		t.Fatalf("%d empty rankings", rep.EmptyRankings)
	}
	if rep.ServerStats == nil {
		t.Fatal("report lost the server stats snapshot")
	}
	if rep.ServerStats.SessionsCreated != sessions {
		t.Fatalf("server saw %d sessions, want %d", rep.ServerStats.SessionsCreated, sessions)
	}
	if rep.ServerStats.RoundsServed != int64(sessions*rounds) {
		t.Fatalf("server served %d rounds, want %d", rep.ServerStats.RoundsServed, sessions*rounds)
	}
	// Every session deleted itself: the store must be empty again.
	if rep.ServerStats.SessionsLive != 0 {
		t.Fatalf("%d sessions leaked", rep.ServerStats.SessionsLive)
	}
	for _, op := range []string{"query", "feedback", "ranking"} {
		if rep.Latency[op].Count == 0 {
			t.Fatalf("no latency samples for %q", op)
		}
	}
}

// TestLoadGenPredicateMix drives the demo catalog with the canned
// predicate mix: every session seeds from a structured query, no
// round drops, round-0 recall against the staged incidents is already
// ≥ 0.9, and MIL feedback never loses ground.
func TestLoadGenPredicateMix(t *testing.T) {
	const sessions, rounds = 6, 4
	rec := synthRecord(t, 1, 6, 6, 36) // the demo catalog mix
	judge, err := JudgeFromRecord(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, client := newTestServer(t, Config{DB: testCatalog(t, rec), MaxSessions: sessions})
	lg := &LoadGen{
		Client:        client,
		Clip:          rec.Name,
		Sessions:      sessions,
		Rounds:        rounds,
		TopK:          10,
		Judge:         judge,
		Predicates:    DemoPredicates(),
		TotalRelevant: RelevantVSCount(rec, judge),
	}
	if lg.TotalRelevant != 6 {
		t.Fatalf("demo catalog reports %d relevant VSs, want 6", lg.TotalRelevant)
	}
	rep, err := lg.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedRounds != 0 || rep.EmptyRankings != 0 {
		t.Fatalf("dropped %d, empty %d (errors: %v)", rep.DroppedRounds, rep.EmptyRankings, rep.Errors)
	}
	if len(rep.RoundRecall) != rounds {
		t.Fatalf("round recall has %d entries, want %d: %v", len(rep.RoundRecall), rounds, rep.RoundRecall)
	}
	if rep.RoundRecall[0] < 0.9 {
		t.Fatalf("predicate round-0 recall %.2f below 0.9: %v", rep.RoundRecall[0], rep.RoundRecall)
	}
	for r := 1; r < rounds; r++ {
		if rep.RoundRecall[r] < rep.RoundRecall[r-1] {
			t.Fatalf("feedback lost recall at round %d: %v", r, rep.RoundRecall)
		}
	}
}

// TestLoadGenValidation: the generator refuses to run without its
// client or judge.
func TestLoadGenValidation(t *testing.T) {
	if _, err := (&LoadGen{}).Run(context.Background()); err == nil {
		t.Fatal("nil client accepted")
	}
	if _, err := (&LoadGen{Client: &Client{}}).Run(context.Background()); err == nil {
		t.Fatal("nil judge accepted")
	}
}
