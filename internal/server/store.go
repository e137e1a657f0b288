package server

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"milvideo/internal/mil"
	"milvideo/internal/retrieval"
	"milvideo/internal/window"
)

// ErrSessionNotFound is returned for unknown, expired or evicted
// session ids — the HTTP layer maps it to 404, so feedback after
// eviction fails loudly instead of resurrecting stale state.
var ErrSessionNotFound = errors.New("server: session not found")

// session is one interactive retrieval session: the paper's feedback
// loop with the user on the far side of an HTTP connection.
type session struct {
	id         string
	clip       string
	engineName string
	engine     retrieval.Engine
	db         []window.VS
	topK       int

	// Live sessions track the ingest daemon's feed: every round
	// re-resolves db (and rebuilds engine around base, for indexed
	// sessions) from a fresh catalog snapshot, so the ranking covers
	// whatever was committed and retained by then. base and cand (the
	// candidate-set size C, 0 for exact ranking) are the per-round
	// reconstruction inputs; db is then mutable and read under mu (for
	// pinned sessions it never changes after creation).
	live bool
	base retrieval.Engine
	cand int

	// mu serializes rounds within the session: feedback for one
	// session is strictly ordered even when clients misbehave, while
	// re-ranks of different sessions proceed concurrently.
	mu     sync.Mutex
	labels map[int]mil.Label
	round  int // completed rounds (0 after the initial ranking ran... see server.go)
	last   *RoundResponse

	// lastUsed and elem are guarded by the store's mutex.
	lastUsed time.Time
	elem     *list.Element
}

// newSessionID draws a 128-bit random id.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// sessionStore holds live sessions with TTL expiry and LRU eviction
// under a capacity cap. All fields are guarded by mu; the sessions'
// own round state is not (see session.mu).
type sessionStore struct {
	mu       sync.Mutex
	cap      int
	ttl      time.Duration
	now      func() time.Time
	sessions map[string]*session
	lru      *list.List // front = most recently used
}

func newSessionStore(capacity int, ttl time.Duration, now func() time.Time) *sessionStore {
	if now == nil {
		now = time.Now
	}
	return &sessionStore{
		cap:      capacity,
		ttl:      ttl,
		now:      now,
		sessions: make(map[string]*session),
		lru:      list.New(),
	}
}

// put inserts a session, evicting least-recently-used sessions while
// the store is over capacity. The evicted sessions are returned so the
// caller can count them.
func (st *sessionStore) put(s *session) (evicted []*session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s.lastUsed = st.now()
	s.elem = st.lru.PushFront(s)
	st.sessions[s.id] = s
	for st.cap > 0 && len(st.sessions) > st.cap {
		back := st.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*session)
		st.removeLocked(victim)
		evicted = append(evicted, victim)
	}
	return evicted
}

// get fetches a session and touches its recency. An expired session
// is removed and reported via the expired return, with
// ErrSessionNotFound — the client observes exactly what it would had
// the session been evicted.
func (st *sessionStore) get(id string) (s *session, expired bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	if st.ttl > 0 && st.now().Sub(s.lastUsed) > st.ttl {
		st.removeLocked(s)
		return s, true, fmt.Errorf("%w: %q (expired)", ErrSessionNotFound, id)
	}
	s.lastUsed = st.now()
	st.lru.MoveToFront(s.elem)
	return s, false, nil
}

// remove deletes a session by id, reporting whether it existed.
func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	if ok {
		st.removeLocked(s)
	}
	return ok
}

func (st *sessionStore) removeLocked(s *session) {
	delete(st.sessions, s.id)
	st.lru.Remove(s.elem)
	s.elem = nil
}

// sweep removes every expired session and returns them.
func (st *sessionStore) sweep() []*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ttl <= 0 {
		return nil
	}
	cutoff := st.now().Add(-st.ttl)
	var out []*session
	for e := st.lru.Back(); e != nil; {
		s := e.Value.(*session)
		if s.lastUsed.After(cutoff) {
			// LRU order bounds lastUsed monotonically from back to
			// front: nothing older remains.
			break
		}
		prev := e.Prev()
		st.removeLocked(s)
		out = append(out, s)
		e = prev
	}
	return out
}

// len reports the live-session count.
func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}
