package cluster

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestCluster builds a one-peer cluster pointed at ts with tight
// test timeouts. The breaker jitter is pinned so backoffs are exact.
func newTestCluster(t *testing.T, peerURL string, cfg Config) *Cluster {
	t.Helper()
	cfg.Self = "self"
	cfg.Peers = []Peer{{Name: "peer", URL: peerURL}}
	if cfg.FillTimeout == 0 {
		cfg.FillTimeout = 500 * time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 20 * time.Millisecond
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 200 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestFillSuccess: a fill POSTs the body with the fill header set and
// returns the peer's bytes; the breaker stays closed.
func TestFillSuccess(t *testing.T) {
	var gotFill atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotFill.Store(r.Header.Get(FillHeader) == "1")
		w.Write([]byte(`{"results":[]}`))
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, Config{})

	body, err := c.Fill(context.Background(), "peer", []byte(`{}`), "req-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != `{"results":[]}` {
		t.Fatalf("body = %q", body)
	}
	if !gotFill.Load() {
		t.Fatal("fill request did not carry the fill header")
	}
	st := c.Stats()
	if st.Peers[0].Fills != 1 || st.Peers[0].Breaker != "closed" {
		t.Fatalf("stats = %+v", st.Peers[0])
	}
}

// TestFillRetriesThenFails: 5xx responses consume the bounded retries
// and return an error (the caller's cue to fall back to local compute).
func TestFillRetriesThenFails(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "injected", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, Config{Retries: 2, Breaker: BreakerConfig{Threshold: 10}})

	_, err := c.Fill(context.Background(), "peer", []byte(`{}`), "req-1", nil)
	if err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("err = %v, want a 500 failure", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("peer saw %d attempts, want 3 (1 + 2 retries)", got)
	}
	if st := c.Stats().Peers[0]; st.Failures != 3 {
		t.Fatalf("failure counter = %d, want 3", st.Failures)
	}
}

// TestFillBreakerFastFail: once failures open the breaker, further
// fills are rejected without touching the network.
func TestFillBreakerFastFail(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "injected", http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, Config{
		Retries: -1, // no retries: exactly one attempt per Fill
		Breaker: BreakerConfig{Threshold: 1, BaseBackoff: time.Hour, MaxBackoff: time.Hour},
	})

	if _, err := c.Fill(context.Background(), "peer", []byte(`{}`), "r1", nil); err == nil {
		t.Fatal("first fill should fail")
	}
	before := calls.Load()
	if _, err := c.Fill(context.Background(), "peer", []byte(`{}`), "r2", nil); err == nil ||
		!strings.Contains(err.Error(), "breaker open") {
		t.Fatalf("err = %v, want breaker-open fast fail", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still sent a request")
	}
	st := c.Stats().Peers[0]
	if st.Breaker != "open" || st.FastFails != 1 || st.Opens != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFillDeadlineBudget: with nearly no deadline remaining, Fill gives
// up immediately so the caller still has time to compute locally.
func TestFillDeadlineBudget(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond) // deadline already spent
	if _, err := c.Fill(ctx, "peer", []byte(`{}`), "r", nil); err == nil {
		t.Fatal("fill with a spent deadline should fail")
	}
	if calls.Load() != 0 {
		t.Fatal("fill attempted I/O with no deadline budget")
	}
}

// TestProbeMarksPeerDownAndUp: the health prober flips the up flag as
// the peer dies and revives, and a down peer fast-fails fills.
func TestProbeMarksPeerDownAndUp(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && !healthy.Load() {
			http.Error(w, "dying", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`ok`))
	}))
	defer ts.Close()
	c := newTestCluster(t, ts.URL, Config{})
	c.Start()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.Stats().Peers[0].Up != want {
			if time.Now().After(deadline) {
				t.Fatalf("peer never became %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	healthy.Store(false)
	waitFor(false, "down")
	if _, err := c.Fill(context.Background(), "peer", []byte(`{}`), "r", nil); err == nil ||
		!strings.Contains(err.Error(), "down") {
		t.Fatalf("err = %v, want down fast fail", err)
	}
	healthy.Store(true)
	waitFor(true, "up")
	if _, err := c.Fill(context.Background(), "peer", []byte(`{}`), "r", nil); err != nil {
		t.Fatalf("fill after revival failed: %v", err)
	}
}

// TestStopCancelsInflightFill: Stop must abort a fill stuck on a
// stalled peer and return only once it has drained — the guarantee the
// daemon's SIGTERM path relies on.
func TestStopCancelsInflightFill(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stall until the test ends
	}))
	defer ts.Close()
	defer close(release)
	c := newTestCluster(t, ts.URL, Config{FillTimeout: time.Minute})

	fillErr := make(chan error, 1)
	go func() {
		_, err := c.Fill(context.Background(), "peer", []byte(`{}`), "r", nil)
		fillErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the fill reach the peer

	done := make(chan struct{})
	go func() { c.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not drain the in-flight fill")
	}
	select {
	case err := <-fillErr:
		if err == nil {
			t.Fatal("canceled fill returned nil error")
		}
	case <-time.After(time.Second):
		t.Fatal("fill never returned after Stop")
	}
}

// TestFleetStopsAndShutsDownPromptly pins the default transport's
// lifetime to the cluster: a two-node fleet whose fills left dialed but
// never used connections behind must still stop and shut down its HTTP
// servers within a second. Each such connection is in state new on the
// peer's server, and http.Server.Shutdown waits 5 s for it unless the
// dialing side closes it.
func TestFleetStopsAndShutsDownPromptly(t *testing.T) {
	type node struct {
		hs    *http.Server
		url   string
		cl    *Cluster
		mu    sync.Mutex
		state map[net.Conn]http.ConnState
	}
	nodes := []*node{{}, {}}
	for _, n := range nodes {
		n := n
		n.state = map[net.Conn]http.ConnState{}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n.url = "http://" + ln.Addr().String()
		n.hs = &http.Server{
			Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				w.Write([]byte(`{"results":[]}`))
			}),
			ConnState: func(c net.Conn, s http.ConnState) {
				n.mu.Lock()
				defer n.mu.Unlock()
				if s == http.StateClosed || s == http.StateHijacked {
					delete(n.state, c)
				} else {
					n.state[c] = s
				}
			},
		}
		go n.hs.Serve(ln)
	}
	defer func() {
		for _, n := range nodes {
			n.hs.Close()
		}
	}()
	names := []string{"a", "b"}
	for i, n := range nodes {
		cl, err := New(Config{
			Self:          names[i],
			Peers:         []Peer{{Name: names[1-i], URL: nodes[1-i].url}},
			ProbeInterval: 20 * time.Millisecond,
			FillTimeout:   time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.cl = cl
		cl.Start()
	}
	fresh := func() int {
		count := 0
		for _, n := range nodes {
			n.mu.Lock()
			for _, s := range n.state {
				if s == http.StateNew {
					count++
				}
			}
			n.mu.Unlock()
		}
		return count
	}
	// Concurrent fills race their dials against connections coming back
	// idle; a dial that loses leaves a connection nobody uses.
	for round := 0; round < 50 && fresh() == 0; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			for k, n := range nodes {
				wg.Add(1)
				go func(cl *Cluster, owner string) {
					defer wg.Done()
					if _, err := cl.Fill(context.Background(), owner, []byte(`{}`), "", nil); err != nil {
						t.Error(err)
					}
				}(n.cl, names[1-k])
			}
		}
		wg.Wait()
		time.Sleep(20 * time.Millisecond)
	}
	// Without such a connection a slow shutdown cannot show; skip
	// rather than pass on a run that did not exercise it.
	if fresh() == 0 {
		t.Skip("50 rounds of concurrent fills left no dialed but unused connection")
	}

	start := time.Now()
	for _, n := range nodes {
		n.cl.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range nodes {
		if err := n.hs.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("stop and shutdown took %v, want under 1s", d)
	}
}
