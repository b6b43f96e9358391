package server

// Tests for the /v1/session API: the session table itself, then the
// endpoints over real HTTP. The load-bearing invariant: a session
// analyze returns bytes identical to POSTing the same state to
// /v1/analyze, because both flow through the same serving path. All of
// these run under -race in `make incr-differential`.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSessionTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := newSessionTable(4, time.Minute, func() time.Time { return now })

	sn := tbl.create(nil)
	if _, ok := tbl.update(sn.ID, nil); !ok {
		t.Fatal("fresh session not found")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := tbl.update(sn.ID, nil); ok {
		t.Fatal("expired session still found")
	}
	st := tbl.stats()
	if st.Expired != 1 || st.Open != 0 {
		t.Errorf("stats = %+v, want Expired 1, Open 0", st)
	}
}

func TestSessionGetRefreshesTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	tbl := newSessionTable(4, time.Minute, func() time.Time { return now })

	sn := tbl.create(nil)
	for i := 0; i < 3; i++ {
		now = now.Add(45 * time.Second) // past half the TTL, under all of it
		if _, ok := tbl.update(sn.ID, nil); !ok {
			t.Fatalf("step %d: session expired although it was read within the TTL", i)
		}
	}
}

func TestSessionBoundEviction(t *testing.T) {
	tbl := newSessionTable(2, time.Hour, time.Now)
	a := tbl.create(&AnalyzeRequest{Name: "a"})
	b := tbl.create(&AnalyzeRequest{Name: "b"})
	c := tbl.create(&AnalyzeRequest{Name: "c"}) // evicts a (LRU)
	if n := tbl.stats().Open; n != 2 {
		t.Fatalf("Open = %d, want 2", n)
	}
	if _, ok := tbl.update(a.ID, nil); ok {
		t.Error("oldest session should have been evicted at the bound")
	}
	for _, sn := range []session{b, c} {
		if _, ok := tbl.update(sn.ID, nil); !ok {
			t.Errorf("session %s should be live", sn.ID)
		}
	}
	if ev := tbl.stats().Evicted; ev != 1 {
		t.Errorf("Evicted = %d, want 1", ev)
	}
}

// TestSessionConcurrentUpdate: concurrent analyze-style updates of one
// session lose no increment (run under -race).
func TestSessionConcurrentUpdate(t *testing.T) {
	tbl := newSessionTable(4, time.Minute, time.Now)
	sn := tbl.create(&AnalyzeRequest{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tbl.update(sn.ID, func(s *session) { s.Analyses++ })
				tbl.update(sn.ID, nil)
			}
		}()
	}
	wg.Wait()
	if got, _ := tbl.update(sn.ID, nil); got.Analyses != 800 {
		t.Errorf("Analyses = %d, want 800", got.Analyses)
	}
}

func TestSessionUpdateAndClose(t *testing.T) {
	tbl := newSessionTable(256, 10*time.Minute, time.Now)
	sn := tbl.create(&AnalyzeRequest{Name: "v1"})
	if _, ok := tbl.update(sn.ID, func(s *session) { s.State = &AnalyzeRequest{Name: "v2"}; s.Analyses++ }); !ok {
		t.Fatal("update of a live session failed")
	}
	got, ok := tbl.update(sn.ID, nil)
	if !ok {
		t.Fatal("session lost after update")
	}
	if got.State.Name != "v2" || got.Analyses != 1 {
		t.Errorf("session = %+v, want State v2, Analyses 1", got)
	}
	if !tbl.c.Remove(sn.ID) {
		t.Fatal("close of a live session failed")
	}
	if tbl.c.Remove(sn.ID) {
		t.Error("double close should fail")
	}
	tbl.create(&AnalyzeRequest{Name: "x"})
	tbl.create(&AnalyzeRequest{Name: "y"})
	if n := tbl.c.Clear(); n != 2 {
		t.Errorf("CloseAll = %d, want 2", n)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func createSession(t *testing.T, base string, state any) string {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/session", state)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create = %s, body: %s", resp.Status, body)
	}
	var sn sessionJSON
	if err := json.Unmarshal(body, &sn); err != nil {
		t.Fatal(err)
	}
	if sn.Session == "" {
		t.Fatal("session create returned no ID")
	}
	return sn.Session
}

// TestSessionLifecycle: create with initial state, analyze, patch one
// source, re-analyze, close. Every analyze must be byte-identical to
// /v1/analyze with the same state.
func TestSessionLifecycle(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Annotate so a pure body edit is visible in the response bytes.
	id := createSession(t, ts.URL, AnalyzeRequest{
		Sources:  []SourceJSON{{Name: "evsl.c", Src: testSrc}},
		Level:    "new",
		Annotate: true,
	})

	resp, sessionBody := postJSON(t, ts.URL+"/v1/session/"+id+"/analyze", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session analyze = %s, body: %s", resp.Status, sessionBody)
	}
	if got := resp.Header.Get("X-Subsubd-Session"); got != id {
		t.Errorf("X-Subsubd-Session = %q, want %q", got, id)
	}
	_, directBody := postAnalyze(t, ts.URL, AnalyzeRequest{
		Sources:  []SourceJSON{{Name: "evsl.c", Src: testSrc}},
		Level:    "new",
		Annotate: true,
	})
	if !bytes.Equal(sessionBody, directBody) {
		t.Fatal("session analyze is not byte-identical to /v1/analyze with the same state")
	}

	// Patch in an edited source; the next analyze reflects it.
	edited := strings.Replace(testSrc, "y[ind[j]] + 1.0", "y[ind[j]] + 2.0", 1)
	if edited == testSrc {
		t.Fatal("fixture drift: apply body not found")
	}
	resp, body := postJSON(t, ts.URL+"/v1/session/"+id+"/patch",
		map[string]any{"sources": []SourceJSON{{Name: "evsl.c", Src: edited}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch = %s, body: %s", resp.Status, body)
	}
	resp, patchedBody := postJSON(t, ts.URL+"/v1/session/"+id+"/analyze", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-patch analyze = %s", resp.Status)
	}
	if bytes.Equal(patchedBody, sessionBody) {
		t.Fatal("analyze after patch returned the pre-patch result")
	}
	_, directEdited := postAnalyze(t, ts.URL, AnalyzeRequest{
		Sources:  []SourceJSON{{Name: "evsl.c", Src: edited}},
		Level:    "new",
		Annotate: true,
	})
	if !bytes.Equal(patchedBody, directEdited) {
		t.Fatal("post-patch session analyze differs from /v1/analyze")
	}

	// GET reflects the analyze count; close ends the session.
	var got sessionJSON
	if err := json.Unmarshal([]byte(fetch(t, ts.URL+"/v1/session/"+id)), &got); err != nil {
		t.Fatal(err)
	}
	if got.Analyses != 2 {
		t.Errorf("Analyses = %d, want 2", got.Analyses)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/session/"+id+"/close", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close = %s", resp.Status)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/session/"+id+"/analyze", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("analyze on closed session = %s, want 404", resp.Status)
	}

	metrics := fetch(t, ts.URL+"/metrics")
	for _, want := range []string{
		"subsubd_incr_sessions_created_total 1",
		"subsubd_incr_sessions_entries 0",
		"subsubd_incr_func_misses_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSessionSourcePatchReplaces: patching via the single-source field
// must replace the normalized source set, not prepend to it.
func TestSessionSourcePatchReplaces(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := createSession(t, ts.URL, AnalyzeRequest{Source: testSrc, Name: "evsl.c"})
	resp, body := postJSON(t, ts.URL+"/v1/session/"+id+"/patch",
		map[string]any{"source": testSrc, "name": "evsl.c"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch = %s, body: %s", resp.Status, body)
	}
	var sn sessionJSON
	if err := json.Unmarshal(body, &sn); err != nil {
		t.Fatal(err)
	}
	if n := len(sn.State.Sources); n != 1 {
		t.Fatalf("state has %d sources after a source patch, want 1", n)
	}
}

// TestSessionValidation: invalid states are refused at create/patch
// time and leave the session untouched; an empty session cannot analyze.
func TestSessionValidation(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/session", AnalyzeRequest{Source: testSrc, Level: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create with bad level = %s, want 400", resp.Status)
	}

	id := createSession(t, ts.URL, nil) // empty state is fine
	resp, _ = postJSON(t, ts.URL+"/v1/session/"+id+"/analyze", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("analyze on empty session = %s, want 400", resp.Status)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/session/"+id+"/patch", map[string]any{"level": "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("patch with bad level = %s, want 400", resp.Status)
	}
	// The failed patch must not have touched the state.
	var sn sessionJSON
	if err := json.Unmarshal([]byte(fetch(t, ts.URL+"/v1/session/"+id)), &sn); err != nil {
		t.Fatal(err)
	}
	if sn.State.Level != "" {
		t.Errorf("state.Level = %q after rejected patch, want empty", sn.State.Level)
	}
}

// TestSessionDraining: a draining daemon refuses new sessions (503 +
// Retry-After) but keeps serving existing ones until shutdown.
func TestSessionDraining(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	id := createSession(t, ts.URL, AnalyzeRequest{Source: testSrc})
	s.SetDraining(true)
	resp, _ := postJSON(t, ts.URL+"/v1/session", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining = %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 should carry Retry-After")
	}
	resp, _ = postJSON(t, ts.URL+"/v1/session/"+id+"/analyze", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("existing session analyze while draining = %s, want 200", resp.Status)
	}
	s.SetDraining(false)
	createSession(t, ts.URL, nil)
	if n := s.CloseSessions(); n != 2 {
		t.Errorf("CloseSessions = %d, want 2", n)
	}
}

// TestSessionBoundedTable: the table LRU-evicts at MaxSessions, so open
// sessions never exceed the bound.
func TestSessionBoundedTable(t *testing.T) {
	s := New(Config{MaxSessions: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := createSession(t, ts.URL, nil)
	createSession(t, ts.URL, nil)
	createSession(t, ts.URL, nil)
	resp, err := http.Get(ts.URL + "/v1/session/" + first)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session GET = %s, want 404", resp.Status)
	}
	var st statsJSON
	if err := json.Unmarshal([]byte(fetch(t, ts.URL+"/v1/stats")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Sessions == nil || st.Sessions.Open != 2 || st.Sessions.Evicted != 1 {
		t.Errorf("session stats = %+v, want Open 2, Evicted 1", st.Sessions)
	}
}

// TestAnalyzeRejectsDeltaOf: the removed delta mode's field is refused
// with a pointer to /v1/session, never analyzed under default options.
func TestAnalyzeRejectsDeltaOf(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze",
		map[string]any{"delta_of": "abc", "sources": []SourceJSON{{Src: testSrc}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delta_of = %s, want 400", resp.Status)
	}
	if !strings.Contains(string(body), "/v1/session") {
		t.Errorf("400 body %q does not point to /v1/session", body)
	}
}

// TestSessionAnalyzeSharesCache: a session analyze and a direct
// /v1/analyze of the same state land on the same cache entry.
func TestSessionAnalyzeSharesCache(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	req := AnalyzeRequest{Sources: []SourceJSON{{Name: "evsl.c", Src: testSrc}}, Level: "new"}
	if resp, _ := postAnalyze(t, ts.URL, req); resp.Header.Get("X-Subsubd-Cache") != "miss" {
		t.Fatal("priming request should miss")
	}
	id := createSession(t, ts.URL, req)
	resp, body := postJSON(t, ts.URL+"/v1/session/"+id+"/analyze", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session analyze = %s, body: %s", resp.Status, body)
	}
	if got := resp.Header.Get("X-Subsubd-Cache"); got != "hit" {
		t.Fatalf("session analyze cache state = %q, want hit", got)
	}
}
