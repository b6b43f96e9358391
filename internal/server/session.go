package server

// The /v1/session API: long-lived editing sessions for interactive
// clients (editor/LSP integrations that re-analyze per keystroke). A
// session stores a normalized analyze request server-side; the client
// patches only what changed (usually one source) and re-analyzes. The
// analyze step flows through the same serving path as /v1/analyze —
// content-addressed cache, singleflight, admission control, deadlines —
// so sessions inherit every robustness property, and the
// function-granular unit store (internal/incr) is what makes the
// re-analysis touch only dirty functions.
//
// Routes:
//
//	POST   /v1/session              create (503 while draining)
//	GET    /v1/session/{id}         inspect
//	POST   /v1/session/{id}/patch   merge changed fields into the state
//	POST   /v1/session/{id}/analyze run the session's request
//	POST   /v1/session/{id}/close   close
//	DELETE /v1/session/{id}         close
//
// The table is bounded (LRU-evicted at MaxSessions) and TTL-evicting,
// so abandoned sessions cost nothing: memory stays bounded no matter
// how many clients come and go.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lru"
)

// session is one editing session: the normalized request it holds and
// its bookkeeping. The table's mu guards the fields of a live session.
type session struct {
	ID                string
	State             *AnalyzeRequest
	Created, LastUsed time.Time
	// Analyses counts analyze calls made through the session.
	Analyses int64
}

// sessionTable is the bounded, idle-expiring /v1/session table. Expiry
// is lazy (swept on access), so the table needs no goroutine and drain
// ordering stays trivial.
type sessionTable struct {
	c       *lru.Cache[string, *session]
	mu      sync.Mutex
	now     func() time.Time
	max     int
	ttl     time.Duration
	created atomic.Int64
}

func newSessionTable(max int, ttl time.Duration, now func() time.Time) *sessionTable {
	return &sessionTable{
		c:   lru.New(lru.Config[string, *session]{MaxEntries: max, TTL: ttl, Now: now}),
		now: now,
		max: max,
		ttl: ttl,
	}
}

// create registers a session holding state. A full table forgets its
// least recently used session: interactive sessions are never refused,
// only forgotten when abandoned longest.
func (t *sessionTable) create(state *AnalyzeRequest) session {
	var id [16]byte
	if _, err := rand.Read(id[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	now := t.now()
	sn := &session{ID: hex.EncodeToString(id[:]), State: state, Created: now, LastUsed: now}
	t.c.Put(sn.ID, sn)
	t.created.Add(1)
	return *sn
}

// update applies fn to the live session, marks it used and returns a
// copy; ok is false for an unknown, closed or expired ID. A nil fn only
// reads.
func (t *sessionTable) update(id string, fn func(*session)) (session, bool) {
	live, ok := t.c.Get(id)
	if !ok {
		return session{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if fn != nil {
		fn(live)
	}
	live.LastUsed = t.now()
	return *live, true
}

// sessionStats is the session table's /v1/stats view.
type sessionStats struct {
	Open        int   `json:"open"`
	MaxSessions int   `json:"max_sessions"`
	TTLSeconds  int64 `json:"ttl_seconds"`
	Created     int64 `json:"created"`
	Evicted     int64 `json:"evicted"`
	Expired     int64 `json:"expired"`
}

func (t *sessionTable) stats() sessionStats {
	st := t.c.Stats()
	return sessionStats{
		Open:        st.Entries,
		MaxSessions: t.max,
		TTLSeconds:  int64(t.ttl / time.Second),
		Created:     t.created.Load(),
		Evicted:     st.Evictions,
		Expired:     st.Expirations,
	}
}

// CloseSessions drops every live session (daemon shutdown, after the
// HTTP listener has drained) and returns how many were open.
func (s *Server) CloseSessions() int { return s.sessions.c.Clear() }

// sessionPatch is the body of POST /v1/session/{id}/patch. Pointer
// fields distinguish "leave unchanged" (absent) from "set to the zero
// value" (present), which plain AnalyzeRequest booleans cannot.
type sessionPatch struct {
	Source   *string       `json:"source"`
	Name     *string       `json:"name"`
	Sources  *[]SourceJSON `json:"sources"`
	Level    *string       `json:"level"`
	Assume   *[]string     `json:"assume"`
	Inline   *bool         `json:"inline"`
	Annotate *bool         `json:"annotate"`
}

// sessionJSON is the wire form of one session.
type sessionJSON struct {
	Session  string          `json:"session"`
	Created  time.Time       `json:"created,omitempty"`
	LastUsed time.Time       `json:"last_used,omitempty"`
	Analyses int64           `json:"analyses"`
	State    *AnalyzeRequest `json:"state"`
}

// copyRequest deep-copies the slices so session state is never aliased
// by an in-flight analysis.
func copyRequest(req *AnalyzeRequest) *AnalyzeRequest {
	cp := *req
	cp.Sources = append([]SourceJSON(nil), req.Sources...)
	cp.Assume = append([]string(nil), req.Assume...)
	return &cp
}

// validateState canonicalizes a session state in place. States without
// sources are allowed (the client patches sources in later), but
// whatever is set must already be valid, so errors surface at
// create/patch time rather than at analyze time.
func validateState(req *AnalyzeRequest) error {
	if req.Source != "" || len(req.Sources) > 0 {
		return req.normalize()
	}
	if req.Level != "" {
		if _, err := core.ParseLevel(req.Level); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) writeSession(w http.ResponseWriter, code int, sn session) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sessionJSON{
		Session:  sn.ID,
		Created:  sn.Created,
		LastUsed: sn.LastUsed,
		Analyses: sn.Analyses,
		State:    sn.State,
	})
}

// readSessionBody decodes a bounded JSON body into dst; an empty body
// is allowed and leaves dst zero.
func (s *Server) readSessionBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		http.Error(w, "request body unreadable or over the size limit", http.StatusRequestEntityTooLarge)
		return false
	}
	if len(body) == 0 {
		return true
	}
	if err := json.Unmarshal(body, dst); err != nil {
		http.Error(w, "bad request JSON: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// handleSessionCreate opens a session. The body is an optional initial
// AnalyzeRequest state. Creation is refused while draining — a session
// is a promise of future work, and a draining daemon must not accept
// any.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining: not accepting new sessions", http.StatusServiceUnavailable)
		return
	}
	var state AnalyzeRequest
	if !s.readSessionBody(w, r, &state) {
		return
	}
	if err := validateState(&state); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sn := s.sessions.create(&state)
	s.logf("session %s created", sn.ID)
	s.writeSession(w, http.StatusCreated, sn)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sn, ok := s.sessions.update(r.PathValue("id"), nil)
	if !ok {
		http.Error(w, "unknown, closed or expired session", http.StatusNotFound)
		return
	}
	s.writeSession(w, http.StatusOK, sn)
}

// handleSessionPatch merges the patch into the session state. Only the
// fields present in the body change; the result must still validate,
// and on any error the state is left untouched.
func (s *Server) handleSessionPatch(w http.ResponseWriter, r *http.Request) {
	var p sessionPatch
	if !s.readSessionBody(w, r, &p) {
		return
	}
	id := r.PathValue("id")
	sn, ok := s.sessions.update(id, nil)
	if !ok {
		http.Error(w, "unknown, closed or expired session", http.StatusNotFound)
		return
	}
	next := copyRequest(sn.State)
	if p.Sources != nil {
		next.Sources = append([]SourceJSON(nil), (*p.Sources)...)
	}
	if p.Source != nil {
		next.Source = *p.Source
		if p.Sources == nil {
			// A "source" patch replaces the source set. Without this,
			// normalize would prepend the new text to the previously
			// normalized sources and the session would grow a phantom file.
			next.Sources = nil
		}
	}
	if p.Name != nil {
		next.Name = *p.Name
	}
	if p.Level != nil {
		next.Level = *p.Level
	}
	if p.Assume != nil {
		next.Assume = append([]string(nil), (*p.Assume)...)
	}
	if p.Inline != nil {
		next.Inline = *p.Inline
	}
	if p.Annotate != nil {
		next.Annotate = *p.Annotate
	}
	if err := validateState(next); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	updated, ok := s.sessions.update(id, func(live *session) { live.State = next })
	if !ok {
		http.Error(w, "unknown, closed or expired session", http.StatusNotFound)
		return
	}
	s.writeSession(w, http.StatusOK, updated)
}

// handleSessionAnalyze runs the session's current request through the
// shared serving path, so the response bytes are identical to POSTing
// the same state to /v1/analyze (and both populate the same caches).
func (s *Server) handleSessionAnalyze(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	cw := &codeCapture{ResponseWriter: w}
	w = cw
	start := time.Now()
	defer func() {
		s.met.codes.inc(cw.code)
		s.met.latency.observe(time.Since(start))
	}()

	id := r.PathValue("id")
	sn, ok := s.sessions.update(id, func(live *session) { live.Analyses++ })
	if !ok {
		http.Error(w, "unknown, closed or expired session", http.StatusNotFound)
		return
	}
	req := copyRequest(sn.State)
	if err := req.normalize(); err != nil {
		http.Error(w, "session has no analyzable state: "+err.Error(), http.StatusBadRequest)
		return
	}
	reqID := r.Header.Get("X-Request-Id")
	if reqID == "" {
		reqID = s.nextRequestID()
	}
	w.Header().Set("X-Request-Id", reqID)
	w.Header().Set("X-Subsubd-Session", id)
	s.serveAnalyze(w, r, req, reqID, false, start)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.c.Remove(id) {
		http.Error(w, "unknown, closed or expired session", http.StatusNotFound)
		return
	}
	s.logf("session %s closed", id)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"session\":%q,\"closed\":true}\n", id)
}
