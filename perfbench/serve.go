package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/symbolic"
	"repro/perfbench/tugen"
)

// nominalRPS is the serve workload's offered rate, requests per second:
// about 20% of the highest rate this traffic mix sustains open-loop on a
// 2-CPU host without a growing backlog. At 40% the run-to-run spread of
// p50 and p99 on a shared host was too wide; rationale.json records the
// capacity figures the rate was chosen from.
const nominalRPS = 240

const (
	// latencyLimit is the serve workloads' limit, measured from each
	// request's due time.
	latencyLimit = 50 * time.Millisecond
	// hotSet is the number of TUs warmed in set-up and read under Zipf.
	hotSet = 64
	// cacheEntries is subsubd's default result-cache size; set-up fills
	// the cache to it so every miss of the run evicts.
	cacheEntries = 1024
	// serveConns bounds client connections (and sending goroutines).
	serveConns = 2
	// serveTailWindow is the window the serve p99 is taken over before the
	// median over windows. The tail is set by reads queued behind analyses
	// and by GC mark phases. Over ten seeds on a 2-vCPU host with under 1%
	// steal, the p99 of 4-s windows and of the whole run spread 0.32 and
	// 0.29 from run to run; the per-second p99 (about 240 requests each,
	// median over the run's seconds) spread 0.14.
	serveTailWindow = time.Second
)

// Traffic classes.
const (
	classRead = iota
	classFresh
	classEdit
	numClasses
)

var classNames = [numClasses]string{"read", "fresh", "edit"}

// request is one scheduled request of a serve run.
type request struct {
	class int
	due   time.Duration // offset from the phase start
	tu    *tugen.TU
	hot   int // hot-set index, for reads
	body  []byte

	// Filled in by the sender.
	status  int
	sum     [32]byte
	err     error
	latency time.Duration
	lag     time.Duration
}

func requestBody(tu *tugen.TU) []byte {
	req := server.AnalyzeRequest{
		Sources:  []server.SourceJSON{{Name: tu.Name, Src: tu.Source()}},
		Level:    core.LevelName(tu.Level),
		Assume:   tu.Assume(),
		Annotate: true,
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain strings always encode
	}
	return b
}

// reference analyzes tu in-process exactly as the request asks and
// returns the response bytes subsubd must produce, after checking each
// kernel's verdict against the hand-written expectation.
func reference(tu *tugen.TU) ([]byte, []string) {
	src := tu.CoreSource()
	results := core.AnalyzeBatch([]core.Source{src}, core.Options{Workers: 1})
	if results[0].Err != nil {
		return nil, []string{fmt.Sprintf("%s: reference analysis: %v", tu.Name, results[0].Err)}
	}
	body, err := core.MarshalBatch(results, true)
	if err != nil {
		return nil, []string{fmt.Sprintf("%s: reference encode: %v", tu.Name, err)}
	}
	return body, checkVerdicts(tu, results[0].Res, false)
}

// daemon is one in-process subsubd on a loopback port.
type daemon struct {
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startDaemon() (*daemon, error) {
	// subsubd's flag defaults (cmd/subsubd): no fleet, no disk store.
	srv := server.New(server.Config{
		Workers:            runtime.GOMAXPROCS(0),
		MaxQueue:           64,
		AnalysisWorkers:    1,
		CacheEntries:       cacheEntries,
		CacheBytes:         64 << 20,
		RequestTimeout:     30 * time.Second,
		FlightRecorderSize: 32,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		hs:   &http.Server{Handler: srv},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.done
}

// post sends one analyze request and returns the status and body.
func (d *daemon) post(body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// serveInputs are a serve run's generated inputs: the hot set with its
// reference responses, the cache fillers, and the request schedule.
type serveInputs struct {
	hot     []*tugen.TU
	hotRefs [][]byte
	fillers [][]byte
	reqs    []*request
	bad     []string
}

// newServeInputs draws every input from the seed: the schedule has fixed
// spacing at nominalRPS, and its class, hot key, fresh TU and edit
// target are all drawn.
func newServeInputs(seed int64, dur time.Duration) *serveInputs {
	g := tugen.New(seed)
	in := &serveInputs{}
	for i := 0; i < hotSet; i++ {
		tu := g.Next()
		ref, bad := reference(tu)
		in.hot = append(in.hot, tu)
		in.hotRefs = append(in.hotRefs, ref)
		in.bad = append(in.bad, bad...)
	}
	// Fillers: single scatter kernels at the classical level, the
	// cheapest requests of the corpus.
	ks := tugen.Kernels()
	for i := 0; i < cacheEntries-hotSet; i++ {
		in.fillers = append(in.fillers, requestBody(g.One(ks[len(ks)-1-i%3], core.Classical)))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5e7e))
	zipf := rand.NewZipf(rng, 1.1, 1, hotSet-1)
	seen := append([]*tugen.TU(nil), in.hot...)
	n := int(dur.Seconds() * nominalRPS)
	for i := 0; i < n; i++ {
		r := &request{due: time.Duration(float64(i) / nominalRPS * float64(time.Second))}
		switch x := rng.Float64(); {
		case x < 0.70:
			r.class = classRead
			r.hot = int(zipf.Uint64())
			r.tu = in.hot[r.hot]
		case x < 0.85:
			r.class = classFresh
			r.tu = g.Next()
			seen = append(seen, r.tu)
		default:
			r.class = classEdit
			r.tu = g.Edit(seen[rng.Intn(len(seen))])
			seen = append(seen, r.tu)
		}
		r.body = requestBody(r.tu)
		in.reqs = append(in.reqs, r)
	}
	return in
}

// setUpDaemon starts a fresh daemon and fills its result cache to
// capacity, fillers first and then the hot set (so the hot set is most
// recent), checking each hot response against its reference.
func setUpDaemon(in *serveInputs) (*daemon, []string, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, nil, err
	}
	for _, f := range in.fillers {
		if code, _, err := d.post(f); err != nil || code != http.StatusOK {
			d.stop()
			return nil, nil, fmt.Errorf("cache filler: status %d, %v", code, err)
		}
	}
	var bad []string
	for i, tu := range in.hot {
		code, body, err := d.post(requestBody(tu))
		if err != nil || code != http.StatusOK || !bytes.Equal(body, in.hotRefs[i]) {
			bad = append(bad, fmt.Sprintf("%s: warm-up response differs from the in-process reference (status %d, %v)", tu.Name, code, err))
		}
	}
	return d, bad, nil
}

// drive sends the schedule open-loop: a dispatcher releases each request
// at its due time to serveConns senders. Latency runs from the due time
// to the last response byte; lag is how late the dispatcher released it.
// It returns the time from the first due time to the last response.
func drive(d *daemon, reqs []*request, corrupt bool) time.Duration {
	ch := make(chan *request, len(reqs)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	var once sync.Once
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				code, body, err := d.post(r.body)
				r.latency = time.Since(start) - r.due
				r.status, r.err = code, err
				if corrupt && err == nil && len(body) > 0 {
					once.Do(func() { body[len(body)/2] ^= 1 })
				}
				r.sum = sha256.Sum256(body)
			}
		}()
	}
	for _, r := range reqs {
		if wait := r.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		r.lag = time.Since(start) - r.due
		ch <- r
	}
	close(ch)
	wg.Wait()
	return time.Since(start)
}

// verifyResponses checks every sent request, on serveConns goroutines,
// and returns the failures per request: transport errors, non-200
// statuses (429 included), bytes that differ from the in-process
// reference, and reference verdicts that differ from the expectation.
func verifyResponses(in *serveInputs) [][]string {
	bad := make([][]string, len(in.reqs))
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(in.reqs); i += serveConns {
				r := in.reqs[i]
				switch {
				case r.err != nil:
					bad[i] = []string{fmt.Sprintf("%s: %v", r.tu.Name, r.err)}
				case r.status != http.StatusOK:
					bad[i] = []string{fmt.Sprintf("%s: status %d", r.tu.Name, r.status)}
				default:
					var want [32]byte
					if r.class == classRead {
						want = sha256.Sum256(in.hotRefs[r.hot])
					} else {
						ref, b := reference(r.tu)
						bad[i] = b
						want = sha256.Sum256(ref)
					}
					if want != r.sum {
						bad[i] = append(bad[i], fmt.Sprintf("%s (%s): response differs from the in-process reference",
							r.tu.Name, classNames[r.class]))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	return bad
}

// serveStats is the subset of /v1/stats the benchmark reads.
type serveStats struct {
	ResultCache struct {
		Hits, Misses, Evictions int64
	} `json:"result_cache"`
	Incr *struct {
		FuncHits   int64 `json:"func_hits"`
		FuncMisses int64 `json:"func_misses"`
		PlanHits   int64 `json:"plan_hits"`
		PlanMisses int64 `json:"plan_misses"`
		Evictions  int64 `json:"evictions"`
	} `json:"incr"`
	Stages []struct {
		Stage        string           `json:"stage"`
		TotalSeconds float64          `json:"total_seconds"`
		SelfSeconds  float64          `json:"self_seconds"`
		Counters     map[string]int64 `json:"counters"`
	} `json:"stages"`
	Server struct {
		Analyses  int64 `json:"analyses"`
		Coalesced int64 `json:"coalesced"`
		Shed      int64 `json:"shed"`
	} `json:"server"`
}

// stage returns one stage's cumulative self time, total time and named
// counter (zero when the stage has not run).
func (s *serveStats) stage(stage, counter string) (self, total, count float64) {
	for _, st := range s.Stages {
		if st.Stage == stage {
			return st.SelfSeconds, st.TotalSeconds, float64(st.Counters[counter])
		}
	}
	return 0, 0, 0
}

func (d *daemon) stats() (*serveStats, error) {
	b, err := d.get("/v1/stats")
	if err != nil {
		return nil, err
	}
	var s serveStats
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %v", err)
	}
	return &s, nil
}

// promValues reads the named series (name plus label set, as printed)
// from the /metrics text.
func (d *daemon) promValues(series ...string) (map[string]float64, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, s := range series {
		want[s] = true
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || !want[line[:i]] {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

var promSeries = []string{
	`subsubd_stage_seconds_sum{stage="analyze"}`,
	`subsubd_stage_seconds_count{stage="analyze"}`,
	`subsubd_gc_pause_seconds_total`,
}

// runServe measures the serve traffic mix at nominalRPS for cfg.Dur.
func runServe(cfg config) (*outcome, error) {
	out := newOutcome()
	in := newServeInputs(cfg.Seed, cfg.Dur)
	var d *daemon
	var setupBad []string
	err := out.repeatSetup(func() error {
		if d != nil {
			d.stop()
		}
		var err error
		d, setupBad, err = setUpDaemon(in)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()
	setupBad = append(setupBad, in.bad...)

	s0, err := d.stats()
	if err != nil {
		return nil, err
	}
	p0, err := d.promValues(promSeries...)
	if err != nil {
		return nil, err
	}
	sym0 := symbolic.ReadCacheStats()
	sm := startSteal()
	elapsed := drive(d, in.reqs, cfg.Inject == "byte")
	out.Steal = sm.share()
	sym1 := symbolic.ReadCacheStats()
	s1, err := d.stats()
	if err != nil {
		return nil, err
	}
	p1, err := d.promValues(promSeries...)
	if err != nil {
		return nil, err
	}

	// Verification, after the measurement: every response must equal the
	// in-process encoding of the same request, byte for byte.
	bad := verifyResponses(in)
	failures := append([]string(nil), setupBad...)
	var lat, lags []float64
	var due []time.Duration
	var classLat [numClasses][]float64
	var good, failed int64
	attempted := int64(len(in.reqs))
	for i, r := range in.reqs {
		lat = append(lat, ms(r.latency))
		due = append(due, r.due)
		lags = append(lags, ms(r.lag))
		classLat[r.class] = append(classLat[r.class], ms(r.latency))
		if len(bad[i]) > 0 {
			failed++
			failures = append(failures, bad[i]...)
			continue
		}
		if r.latency <= latencyLimit {
			good++
		}
	}
	if len(setupBad) > 0 {
		failed++
		attempted++
	}
	out.Attempted, out.Failed = attempted, failed
	for i, f := range failures {
		if i == 10 {
			break
		}
		out.notef("FAIL %s", f)
	}
	out.notef("serve: %d requests, open loop at %d req/s, %d connections; tail (p99) is the median over %v windows of about %d requests; %d within %v",
		attempted, nominalRPS, serveConns, serveTailWindow, int(nominalRPS*serveTailWindow.Seconds()), good, latencyLimit)

	// Goodput: responses with correct bytes within the limit, per second
	// from the first due time to the last response.
	out.E2E["ops_per_s"] = float64(good) / elapsed.Seconds()
	out.E2E["tail_ms"] = windowed(due, lat, serveTailWindow, cfg.Dur, quantileOf(0.99))
	out.E2E["p50_ms"] = quantile(lat, 0.5)
	out.E2E["ok_frac"] = 1 - float64(failed)/float64(attempted)

	L := out.Layers
	for c := 0; c < numClasses; c++ {
		L["serve."+classNames[c]+".p50_ms"] = quantile(classLat[c], 0.5)
	}
	L["loadgen.lag_p99_ms"] = quantile(lags, 0.99)
	hits := float64(s1.ResultCache.Hits - s0.ResultCache.Hits)
	misses := float64(s1.ResultCache.Misses - s0.ResultCache.Misses)
	L["server.cache.hit_ratio"] = ratio(hits, hits+misses)
	L["server.cache.evictions"] = float64(s1.ResultCache.Evictions - s0.ResultCache.Evictions)
	L["server.coalesced"] = float64(s1.Server.Coalesced - s0.Server.Coalesced)
	L["server.shed"] = float64(s1.Server.Shed - s0.Server.Shed)
	analyses := float64(s1.Server.Analyses - s0.Server.Analyses)
	// Per-analysis stage times and counters from the daemon's own trace
	// aggregates (the flight recorder is on in subsubd's defaults).
	perAnalysis := func(stage, counter string) (self, total, count float64) {
		s1s, s1t, s1c := s1.stage(stage, counter)
		s0s, s0t, s0c := s0.stage(stage, counter)
		return ratio(1e6*(s1s-s0s), analyses), ratio(1e6*(s1t-s0t), analyses), ratio(s1c-s0c, analyses)
	}
	for _, stage := range []string{"phase1", "phase2", "depend"} {
		L[stage+".self_us"], _, _ = perAnalysis(stage, "")
	}
	L["parallelize.function_self_us"], _, _ = perAnalysis("function", "")
	L["parallelize.plan_self_us"], _, _ = perAnalysis("plan", "")
	_, L["parallelize.annotate_us"], _ = perAnalysis("annotate", "")
	_, _, L["depend.pairs_per_tu"] = perAnalysis("depend", "pairs")
	_, _, L["depend.proofs_per_tu"] = perAnalysis("depend", "proofs")
	an := promSeries[0]
	cnt := promSeries[1]
	L["server.stage_analyze_ms"] = ratio(1e3*(p1[an]-p0[an]), p1[cnt]-p0[cnt])
	L["runtime.gc_pause_ms"] = 1e3 * (p1[promSeries[2]] - p0[promSeries[2]])
	if s0.Incr != nil && s1.Incr != nil {
		fh := float64(s1.Incr.FuncHits - s0.Incr.FuncHits)
		fm := float64(s1.Incr.FuncMisses - s0.Incr.FuncMisses)
		ph := float64(s1.Incr.PlanHits - s0.Incr.PlanHits)
		pm := float64(s1.Incr.PlanMisses - s0.Incr.PlanMisses)
		L["incr.func_hit_ratio"] = ratio(fh, fh+fm)
		L["incr.plan_hit_ratio"] = ratio(ph, ph+pm)
		L["incr.evictions"] = float64(s1.Incr.Evictions - s0.Incr.Evictions)
	}
	L["symbolic.hit_ratio"], L["symbolic.evictions"] = symbolicDelta(sym0, sym1)
	return out, nil
}
