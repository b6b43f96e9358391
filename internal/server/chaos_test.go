package server

// Chaos suite for the sharded fleet (run under -race by `make
// chaos-e2e`): a real 3-node fleet over loopback HTTP is driven through
// peer-level failure injection — stalls, dropped connections, 5xx
// storms, whole-peer kill/revive, crashed store writes, corrupted store
// entries — while a front-door client keeps posting work. The
// invariants under every failure:
//
//  1. zero client-visible errors: the front door answers 200 for every
//     valid request, whatever the fleet is doing internally;
//  2. byte-identity: every body equals what a single standalone node
//     computes for the same request;
//  3. the degradation is observable: fallback, breaker, and quarantine
//     counters move on /metrics and /v1/stats.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/store"
)

// fleetNode is one daemon of the test fleet: a full Server with its own
// cluster view and on-disk store, served over a real loopback listener
// so peers reach each other through the same HTTP stack production
// uses.
type fleetNode struct {
	name string
	addr string
	url  string
	srv  *Server
	cl   *cluster.Cluster
	st   *store.Store
	hs   *http.Server
	// client is the test's own HTTP client, shared by the fleet's nodes:
	// kill drops its idle connections, so the first request after a
	// revive dials the new server instead of reusing a dead keep-alive
	// connection (http.DefaultClient would, and fail with EOF).
	client *http.Client
	// base is the context every handler's request context derives from;
	// the fleet cleanup cancels it, so a handler stalled by a failpoint
	// returns at once instead of outliving the test.
	base context.Context
}

// serve starts the node's HTTP server on ln.
func (n *fleetNode) serve(ln net.Listener) {
	n.hs = &http.Server{Handler: n.srv, BaseContext: func(net.Listener) context.Context { return n.base }}
	go n.hs.Serve(ln)
}

// kill closes the node's HTTP server: connections drop, new connects
// are refused — a crashed process as seen from its peers.
func (n *fleetNode) kill() {
	n.hs.Close()
	n.client.CloseIdleConnections()
}

// revive rebinds the node's address and serves again with the same
// Server state (caches intact), like a fast process restart. The bind
// is retried briefly in case the old listener's close is still settling.
func (n *fleetNode) revive(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", n.addr)
		if err == nil {
			n.serve(ln)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("revive %s: %v", n.name, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// newFleet builds an n-node fleet with tight chaos tunings: 20ms health
// probes, 400ms fill attempts with one retry, and breakers that open
// after 2 failures with a 50ms base backoff — so every recovery path
// runs many times within a test second.
func newFleet(t *testing.T, n int) []*fleetNode {
	t.Helper()
	names := []string{"a", "b", "c", "d", "e"}[:n]
	nodes := make([]*fleetNode, n)
	listeners := make([]net.Listener, n)
	// One transport carries the test's requests and the nodes' peer
	// traffic, so the cleanup can drop every idle connection: an unused
	// one counts as new, not idle, and would hold Shutdown for 5 s.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	base, cancelBase := context.WithCancel(context.Background())
	// Disarm any failpoint and release stalled handlers (a stalled peer
	// fill otherwise holds its handler for 5 s), stop the clusters, then
	// wait for in-flight handlers to finish before the test ends: a
	// handler outliving the test would log through a completed t.
	t.Cleanup(func() {
		faults.Reset()
		cancelBase()
		for _, node := range nodes {
			if node != nil && node.cl != nil {
				node.cl.Stop()
			}
		}
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, node := range nodes {
			if node != nil && node.hs != nil {
				if err := node.hs.Shutdown(ctx); err != nil {
					t.Errorf("shutdown %s: %v", node.name, err)
				}
			}
		}
	})
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		nodes[i] = &fleetNode{
			name:   names[i],
			addr:   ln.Addr().String(),
			url:    "http://" + ln.Addr().String(),
			client: client,
			base:   base,
		}
	}
	for i, node := range nodes {
		var peers []cluster.Peer
		for j, other := range nodes {
			if j != i {
				peers = append(peers, cluster.Peer{Name: other.name, URL: other.url})
			}
		}
		cl, err := cluster.New(cluster.Config{
			Self:          node.name,
			Peers:         peers,
			ProbeInterval: 20 * time.Millisecond,
			ProbeTimeout:  200 * time.Millisecond,
			FillTimeout:   400 * time.Millisecond,
			Breaker: cluster.BreakerConfig{
				Threshold:   2,
				BaseBackoff: 50 * time.Millisecond,
				MaxBackoff:  250 * time.Millisecond,
			},
			Transport: tr,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(t.TempDir(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		node.cl = cl
		node.st = st
		// CacheEntries 2 keeps the memory cache nearly useless on purpose:
		// repeated keys fall through to the disk store, exercising the
		// persistent tier (and its corruption handling) on the serving path.
		node.srv = New(Config{
			Cluster:      cl,
			Store:        st,
			NodeName:     node.name,
			CacheEntries: 2,
			Logf:         t.Logf,
		})
		node.serve(listeners[i])
		cl.Start()
	}
	return nodes
}

// chaosReq builds the i-th distinct request: the assume list varies the
// content-addressed key without changing the (deterministic) result
// structure, so one source program yields as many distinct keys as the
// test needs.
func chaosReq(i int) AnalyzeRequest {
	return AnalyzeRequest{
		Sources: []SourceJSON{{Name: "evsl.c", Src: testSrc}},
		Level:   "new",
		Assume:  []string{fmt.Sprintf("chaosvar%d", i)},
	}
}

// keyOwnedBy scans request indexes from *seq until it finds one whose
// cache key the fleet assigns to owner, and returns the request and its
// key. seq advances past used indexes so successive calls yield fresh
// keys.
func keyOwnedBy(t *testing.T, cl *cluster.Cluster, owner string, seq *int) (AnalyzeRequest, string) {
	t.Helper()
	for ; *seq < 10000; *seq++ {
		req := chaosReq(*seq)
		if err := req.normalize(); err != nil {
			t.Fatal(err)
		}
		key := req.cacheKey()
		if name, _ := cl.Owner(key); name == owner {
			*seq++
			return req, key
		}
	}
	t.Fatalf("no key owned by %q in 10000 tries", owner)
	return AnalyzeRequest{}, ""
}

// waitUntil polls cond at the chaos probe cadence.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// peerStat fetches one peer's stats from a cluster snapshot.
func peerStat(cl *cluster.Cluster, name string) cluster.PeerStats {
	for _, p := range cl.Stats().Peers {
		if p.Name == name {
			return p
		}
	}
	return cluster.PeerStats{}
}

// metricValue extracts a metric's value from a Prometheus scrape, where
// series is the full series name including any labels.
func metricValue(t *testing.T, metrics, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("metric %q not found in scrape:\n%s", series, metrics)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %q value %q: %v", series, m[1], err)
	}
	return v
}

// postChaos posts req to the front door and requires a 200 whose body
// matches the standalone reference server's answer for the same
// request — the two fleet invariants every phase re-asserts.
func postChaos(t *testing.T, c *http.Client, front, ref string, req AnalyzeRequest) {
	t.Helper()
	wantResp, want := postAnalyzeVia(t, c, ref, req)
	if wantResp.StatusCode != http.StatusOK {
		t.Fatalf("reference status = %s: %s", wantResp.Status, want)
	}
	resp, got := postAnalyzeVia(t, c, front, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front door status = %s (want 200, the fleet must never surface internal errors): %s",
			resp.Status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet answer diverges from standalone reference:\nfleet: %s\nref:   %s", got, want)
	}
}

// TestChaosFleetSurvivesPeerFailures is the chaos gate: a 3-node fleet
// keeps answering correctly while each failure mode in turn is injected
// into its peers.
func TestChaosFleetSurvivesPeerFailures(t *testing.T) {
	t.Cleanup(faults.Reset)
	nodes := newFleet(t, 3)
	a, c := nodes[0], nodes[2]
	front := a.url

	// Standalone single-node reference: no cluster, no store.
	ref := httptest.NewServer(New(Config{}))
	defer ref.Close()

	seq := 0

	// Phase 1 — healthy fleet: keys owned by every node route and fill
	// correctly through the front door.
	for _, owner := range []string{"a", "b", "c"} {
		req, _ := keyOwnedBy(t, a.cl, owner, &seq)
		postChaos(t, a.client, front, ref.URL, req)
	}
	if got := a.srv.met.peerFills.Load(); got != 2 {
		t.Fatalf("healthy phase: peer fills = %d, want 2 (keys owned by b and c)", got)
	}

	// Phase 2 — peer misbehavior: node b stalls, then drops connections,
	// then answers 500, on every fill it serves. Each time the front door
	// must degrade to local compute and still answer correctly.
	for _, mode := range []string{"stall", "drop", "5xx"} {
		faults.Set("server.peerfill", faults.Mode(mode).For("b").Forever())
		if mode == "stall" {
			// Satellite check: the armed failpoint is visible on /v1/stats.
			stats := fetch(t, front+"/v1/stats")
			if !strings.Contains(stats, `"armed": true`) || !strings.Contains(stats, "server.peerfill") {
				t.Fatalf("/v1/stats does not report the armed failpoint:\n%s", stats)
			}
		}
		fallbacksBefore := a.srv.met.fallbacks.Load()
		req, _ := keyOwnedBy(t, a.cl, "b", &seq)
		postChaos(t, a.client, front, ref.URL, req)
		if got := a.srv.met.fallbacks.Load(); got <= fallbacksBefore {
			t.Fatalf("mode %s: no fallback recorded (fallbacks %d -> %d)", mode, fallbacksBefore, got)
		}
		faults.Reset()
		// The failed attempts opened b's breaker (threshold 2, one retry =
		// 2 failures). Wait for the backoff to elapse and a half-open probe
		// to reclose it before the next mode, proving recovery each round.
		waitUntil(t, "breaker for b to permit traffic again", func() bool {
			req, _ := keyOwnedBy(t, a.cl, "b", &seq)
			fills := peerStat(a.cl, "b").Fills
			postChaos(t, a.client, front, ref.URL, req)
			return peerStat(a.cl, "b").Fills > fills
		})
	}
	if opens := peerStat(a.cl, "b").Opens; opens < 3 {
		t.Fatalf("breaker opens for b = %d, want >= 3 (one per injected mode)", opens)
	}

	// Phase 3 — kill a whole peer: requests for its keys degrade to local
	// compute; after revive the fleet heals and fills from it again.
	c.kill()
	waitUntil(t, "prober to mark c down", func() bool { return !peerStat(a.cl, "c").Up })
	for i := 0; i < 3; i++ {
		req, _ := keyOwnedBy(t, a.cl, "c", &seq)
		postChaos(t, a.client, front, ref.URL, req)
	}
	if ff := peerStat(a.cl, "c").FastFails; ff == 0 {
		t.Fatal("dead peer c was not fast-failed")
	}
	c.revive(t)
	waitUntil(t, "prober to mark c up", func() bool { return peerStat(a.cl, "c").Up })
	fills := peerStat(a.cl, "c").Fills
	req, _ := keyOwnedBy(t, a.cl, "c", &seq)
	postChaos(t, a.client, front, ref.URL, req)
	if got := peerStat(a.cl, "c").Fills; got <= fills {
		t.Fatalf("revived peer c not filling again (fills %d -> %d)", fills, got)
	}

	// Phase 4 — store chaos on the front door: a crashed write loses only
	// the persistence (the response is served), and a corrupted entry is
	// quarantined and recomputed, never served.
	crashReq, crashKey := keyOwnedBy(t, a.cl, "a", &seq)
	faults.Set("store.write", faults.Mode("crash").For(crashKey))
	postChaos(t, a.client, front, ref.URL, crashReq)
	faults.Reset()
	if errs := a.st.Stats().WriteErrors; errs != 1 {
		t.Fatalf("store write errors = %d, want 1 (the injected crash)", errs)
	}

	diskReq, diskKey := keyOwnedBy(t, a.cl, "a", &seq)
	postChaos(t, a.client, front, ref.URL, diskReq) // compute + persist
	// Push the key out of the 2-entry memory cache so the next read must
	// come from disk, then corrupt that read.
	for i := 0; i < 2; i++ {
		req, _ := keyOwnedBy(t, a.cl, "a", &seq)
		postChaos(t, a.client, front, ref.URL, req)
	}
	faults.Set("store.read", faults.Mode("corrupt").For(diskKey))
	postChaos(t, a.client, front, ref.URL, diskReq) // quarantined -> recomputed, still correct
	faults.Reset()
	if q := a.st.Stats().Quarantined; q != 1 {
		t.Fatalf("store quarantined = %d, want 1", q)
	}

	// Final invariants on the front door's scrape: every request was a
	// 200 (codes other than 200 never appear), and the degradation
	// counters moved.
	metrics := fetch(t, front+"/metrics")
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "subsubd_requests_total{") &&
			!strings.HasPrefix(line, `subsubd_requests_total{code="200"}`) {
			t.Fatalf("client-visible non-200 responses: %s", line)
		}
	}
	if v := metricValue(t, metrics, `subsubd_requests_total{code="200"}`); v == 0 {
		t.Fatal("no 200s counted on the front door")
	}
	if v := metricValue(t, metrics, "subsubd_fallbacks_total"); v < 3 {
		t.Fatalf("subsubd_fallbacks_total = %v, want >= 3 (one per injected mode)", v)
	}
	if v := metricValue(t, metrics, "subsubd_peer_fills_total"); v == 0 {
		t.Fatal("subsubd_peer_fills_total = 0, fleet never filled")
	}
	if v := metricValue(t, metrics, `subsubd_peer_breaker_opens_total{peer="b"}`); v < 3 {
		t.Fatalf("breaker opens for b on /metrics = %v, want >= 3", v)
	}
	if v := metricValue(t, metrics, "subsubd_store_quarantined_total"); v != 1 {
		t.Fatalf("subsubd_store_quarantined_total = %v, want 1", v)
	}
}

// TestChaosStoreSurvivesRestart: the fleet's persistent tier replays
// across a node restart — a key computed before the restart is served
// from disk after it, byte-identically, without recomputing.
func TestChaosStoreSurvivesRestart(t *testing.T) {
	nodes := newFleet(t, 3)
	a := nodes[0]
	ref := httptest.NewServer(New(Config{}))
	defer ref.Close()

	seq := 0
	req, key := keyOwnedBy(t, a.cl, "a", &seq)
	postChaos(t, a.client, a.url, ref.URL, req)

	// "Restart" node a: same store directory, fresh Server (cold memory
	// cache), same address.
	a.kill()
	dir := a.st.Stats().Dir
	if err := a.st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	a.st = st
	a.srv = New(Config{Cluster: a.cl, Store: st, NodeName: "a", CacheEntries: 2, Logf: t.Logf})
	a.revive(t)

	analysesBefore := a.srv.met.analyses.Load()
	wantResp, want := postAnalyzeVia(t, a.client, ref.URL, req)
	if wantResp.StatusCode != http.StatusOK {
		t.Fatalf("reference: %s", wantResp.Status)
	}
	resp, got := postAnalyzeVia(t, a.client, a.url, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after restart: %s", resp.Status)
	}
	if state := resp.Header.Get("X-Subsubd-Cache"); state != "disk" {
		t.Fatalf("after restart: cache state %q, want disk (key %.12s…)", state, key)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("disk replay after restart is not byte-identical")
	}
	if got := a.srv.met.analyses.Load(); got != analysesBefore {
		t.Fatal("restart recomputed a persisted result")
	}
}

// TestDrainWithInflightPeerFill pins the drain ordering subsubd uses on
// SIGTERM: SetDraining → cluster.Stop → http drain. Stopping the
// cluster while a peer fill is stuck on a stalled peer must abort the
// fill, degrade that request to local compute (a 200, not an error),
// and leak no worker slot — the regression this test exists to catch.
func TestDrainWithInflightPeerFill(t *testing.T) {
	entered := make(chan struct{}, 1)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		// A peer that accepts the fill and then never answers. The body
		// must be drained or the server cannot detect the caller hanging
		// up, and r.Context() would never fire.
		io.Copy(io.Discard, r.Body)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	}))
	defer peer.Close()

	cl, err := cluster.New(cluster.Config{
		Self:          "a",
		Peers:         []cluster.Peer{{Name: "b", URL: peer.URL}},
		ProbeInterval: 20 * time.Millisecond,
		FillTimeout:   30 * time.Second, // only Stop can end this fill
		Retries:       -1,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Start()
	s := New(Config{Cluster: cl, NodeName: "a", Logf: t.Logf})
	ts := httptest.NewServer(s)
	defer ts.Close()

	seq := 0
	req, _ := keyOwnedBy(t, cl, "b", &seq)
	type result struct {
		resp *http.Response
		body []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, body := postAnalyze(t, ts.URL, req)
		done <- result{resp, body}
	}()

	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("fill never reached the stalled peer")
	}
	// SIGTERM sequence from cmd/subsubd: drain flag first, then stop the
	// cluster so in-flight fills abort instead of stalling the drain.
	s.SetDraining(true)
	cl.Stop()

	select {
	case r := <-done:
		if r.resp.StatusCode != http.StatusOK {
			t.Fatalf("drained request status = %s (want 200 via local fallback): %s", r.resp.Status, r.body)
		}
		if len(r.body) == 0 {
			t.Fatal("empty body from local fallback")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request stuck after cluster.Stop — drain would hang")
	}
	if s.met.fallbacks.Load() != 1 {
		t.Fatalf("fallbacks = %d, want 1", s.met.fallbacks.Load())
	}
	// The slot-leak pin: the aborted fill and its local fallback must
	// leave no worker slot held and no queue entry behind.
	if got := len(s.sem); got != 0 {
		t.Fatalf("leaked %d worker slots after drain", got)
	}
	if got := s.waiting.Load(); got != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", got)
	}
}
