package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netem/stack"
	"repro/internal/registry"
)

// The daemon-mixed traffic model. The repository holds no record of real
// liberate-d traffic, so the shares below are assumptions, chosen so that
// warm answers (store reads, the report codec, HTTP) take most of the
// processor and fresh keys (background engagements, store writes) a small
// part. A run sends a few dozen fingerprint=1 keys, so the inline
// ambiguity probes move no end-to-end figure much; the traced run's
// core.fingerprint.cpu_ms measures them.
//
// The client is a closed loop on one connection: each round asks
// warmPerRound warm keys one after another, then one fresh key, which it
// polls until the answer is ready. The daemon's background pool has one
// worker, so at most one engagement runs at a time, and it runs while the
// client sleeps between polls.
const (
	daemonWorkers = 1
	// warmPerRound is how many warm keys each round asks before its fresh
	// key.
	warmPerRound = 200
	// fpEvery makes every fpEvery-th round's fresh key a fingerprint=1 key.
	fpEvery = 5
	// roundsPerSegment is how many rounds make one segment of
	// cpu_ms_per_op. It is a multiple of fpEvery, so every segment holds
	// the same kinds of requests.
	roundsPerSegment = 2 * fpEvery
	// warmupSegments is how many segments at the start of a measurement
	// are checked but not timed.
	warmupSegments = 1
	// pollEvery is how long the client sleeps between polls of a fresh key.
	pollEvery = 2 * time.Millisecond
	// readyTimeout is how long a fresh key may take to become ready before
	// it counts as not ready and as a failure.
	readyTimeout = 10 * time.Second
	// fpProbes is how many core.FingerprintNetwork calls the traced run
	// measures.
	fpProbes = 20
)

// warmCells are the keys the store is warmed with: every network × trace
// at 8 KiB.
func warmCells() []cell {
	var out []cell
	for _, n := range registry.NetworkNames() {
		for _, t := range registry.TraceNames() {
			out = append(out, cell{Network: n, Trace: t, Body: 8 << 10})
		}
	}
	return out
}

// coldBodies are the small bodies cold keys use; T-Mobile engagements at
// these sizes take a few milliseconds.
var coldBodies = []int{8 << 10, 12 << 10, 16 << 10, 20 << 10, 24 << 10, 28 << 10, 32 << 10}

// coldPool lists the fresh keys the generator draws from: T-Mobile with
// its four zero-rated traces at every hour and small body, less the
// warmed ones.
func coldPool(fp bool) []cell {
	var out []cell
	for _, t := range []string{"amazon", "spotify", "youtube", "espn"} {
		for h := 0; h < 24; h++ {
			for _, b := range coldBodies {
				if h == 0 && b == 8<<10 {
					continue
				}
				out = append(out, cell{Network: "tmobile", Trace: t, Hour: h, Body: b, Fingerprint: fp})
			}
		}
	}
	return out
}

// interleaveBodies shuffles cells within each body size and deals the
// sizes out in turn, so that any prefix of the pool, which is what a run
// uses, costs about the same bytes and rounds per engagement.
func interleaveBodies(rng *rand.Rand, cells []cell) []cell {
	bySize := map[int][]cell{}
	for _, c := range cells {
		bySize[c.Body] = append(bySize[c.Body], c)
	}
	var out []cell
	for _, b := range coldBodies {
		rng.Shuffle(len(bySize[b]), func(i, j int) { bySize[b][i], bySize[b][j] = bySize[b][j], bySize[b][i] })
	}
	for len(out) < len(cells) {
		for _, b := range coldBodies {
			if len(bySize[b]) > 0 {
				out = append(out, bySize[b][0])
				bySize[b] = bySize[b][1:]
			}
		}
	}
	return out
}

// daemonBench is the daemon-mixed workload: an in-process liberate-d over
// a warmed campaign.Store, served on loopback HTTP to a closed-loop client.
type daemonBench struct {
	cfg      config
	expected table
	rng      *rand.Rand

	dir       string
	store     *campaign.Store
	daemon    *cluster.Daemon
	cancel    context.CancelFunc
	srv       *http.Server
	serveDone chan struct{}
	client    *http.Client
	base      string

	warm       []cell
	cold       [2][]cell // [0] plain, [1] fingerprint=1; shuffled
	nextCold   [2]int
	repeatFrac float64
	problems   []string // set-up outcome mismatches

	// Background engagements report into bg, which measure merges into
	// its result once the daemon is idle.
	closing atomic.Bool
	active  atomic.Int64
	mu      sync.Mutex
	bg      *measurement
	tr      *tracer
}

// newDaemonBench is the set-up: warm a fresh store, compute the shared
// work of a segment's requests, and start the daemon and server.
func newDaemonBench(ctx context.Context, cfg config, idx int) (_ *daemonBench, err error) {
	b := &daemonBench{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)),
		dir: filepath.Join(cfg.workdir, fmt.Sprintf("store-%d", idx)), warm: warmCells()}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	if b.expected, err = loadTable(); err != nil {
		return nil, err
	}
	if b.store, err = campaign.OpenStore(b.dir); err != nil {
		return nil, err
	}
	engs, err := expand(b.warm, campaignSeeds(b.rng, 1))
	if err != nil {
		return nil, err
	}
	// One worker: the peak memory of warming then does not depend on
	// which two engagements happen to overlap.
	r := &campaign.Runner{Spec: campaign.Spec{EvalWorkers: 1}, Workers: 1, Store: b.store}
	for _, res := range r.RunSubset(ctx, engs) {
		if res.Status != campaign.StatusOK {
			b.problems = append(b.problems, fmt.Sprintf("warming %s: %s", res.Engagement.Key(), res.Err))
		} else if msg := b.expected.check(cellOf(res.Engagement), outcomeOf(res.Report)); msg != "" {
			b.problems = append(b.problems, "warming "+msg)
		}
	}
	for fp := range b.cold {
		b.cold[fp] = interleaveBodies(b.rng, coldPool(fp == 1))
	}
	if b.repeatFrac, err = b.sharedWork(); err != nil {
		return nil, err
	}

	dctx, cancel := context.WithCancel(context.Background())
	b.cancel = cancel
	b.daemon = cluster.NewDaemon(dctx, b.store, cluster.DaemonOptions{Workers: daemonWorkers, Engage: b.engage})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.srv = &http.Server{Handler: b.daemon.Handler()}
	b.serveDone = make(chan struct{})
	go func() {
		defer close(b.serveDone)
		b.srv.Serve(ln)
	}()
	b.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	b.base = "http://" + ln.Addr().String() + "/v1/answer?"
	return b, nil
}

// sharedWork is repeat_frac over the warmed cells followed by the requests
// of one segment: its warm keys, which cycle through the warmed cells here
// (any choice repeats one), and its fresh keys in pool order.
func (b *daemonBench) sharedWork() (float64, error) {
	cells := append([]cell(nil), b.warm...)
	next := [2]int{}
	for r := 0; r < roundsPerSegment; r++ {
		for i := 0; i < warmPerRound; i++ {
			cells = append(cells, b.warm[i%len(b.warm)])
		}
		fp := fpRound(r)
		if next[fp] < len(b.cold[fp]) {
			cells = append(cells, b.cold[fp][next[fp]])
			next[fp]++
		}
	}
	return repeatFrac(newKeyer(), cells)
}

// fpRound is 1 when round r's fresh key is a fingerprint=1 key.
func fpRound(r int) int {
	if r%fpEvery == fpEvery-1 {
		return 1
	}
	return 0
}

// engage is the daemon's EngageFunc: it runs the engagement (traced or
// not), times it and checks its outcome. Once the bench is closing it
// refuses new work, so nothing reaches the store after teardown.
func (b *daemonBench) engage(ctx context.Context, e campaign.Engagement, osp *stack.OSProfile) (*core.Report, error) {
	b.active.Add(1)
	defer b.active.Add(-1)
	if b.closing.Load() {
		return nil, errTimeUp
	}
	b.mu.Lock()
	m, tr := b.bg, b.tr
	b.mu.Unlock()
	inner := campaign.DefaultEngage
	if tr != nil {
		inner = tr.engage
	}
	start := time.Now()
	rep, err := inner(ctx, e, osp)
	wall := ms(time.Since(start))
	if m == nil {
		return rep, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	m.attempted++
	if err != nil {
		m.fail(fmt.Sprintf("background %s: %v", e.Key(), err))
		return nil, err
	}
	o := outcomeOf(rep)
	c := cellOf(e)
	if msg := b.expected.check(c, o); msg != "" {
		m.fail("background " + msg)
	}
	m.eng.wallMS = append(m.eng.wallMS, wall)
	m.eng.addCost(o)
	return rep, nil
}

// stats reads /v1/stats in process.
func (b *daemonBench) stats() (cluster.DaemonStats, error) {
	rec := httptest.NewRecorder()
	b.daemon.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st cluster.DaemonStats
	err := json.Unmarshal(rec.Body.Bytes(), &st)
	return st, err
}

// idle waits until no background engagement runs and every key the daemon
// holds in flight is still queued, so any store write has landed.
func (b *daemonBench) idle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := b.stats()
		if err != nil {
			return err
		}
		if b.active.Load() == 0 && st.Inflight == st.Queued {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon still busy after %s: %d in flight, %d queued", timeout, st.Inflight, st.Queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the server, then the daemon, waits for its background jobs
// and only then deletes the store.
func (b *daemonBench) close() error {
	var errs []error
	if b.srv != nil {
		errs = append(errs, b.srv.Close())
		<-b.serveDone
		b.client.CloseIdleConnections()
	}
	b.closing.Store(true)
	if b.cancel != nil {
		b.cancel()
		errs = append(errs, b.idle(time.Minute))
	}
	errs = append(errs, os.RemoveAll(b.dir))
	return errors.Join(errs...)
}

// answerStats are the client-side figures of one daemon run.
type answerStats struct {
	answerMS     samples // wall time of every request, 200 or 202
	coldReadyMS  samples // wall time from a fresh key's first 202 to its first 200
	coldNotReady int
	rejected     int
	completed    int64
	store        campaign.StoreStats
}

// query renders the request URL for a cell.
func query(base string, c cell, seed int64) string {
	v := url.Values{}
	v.Set("network", c.Network)
	v.Set("trace", c.Trace)
	v.Set("hour", fmt.Sprint(c.Hour))
	v.Set("body", fmt.Sprint(c.Body))
	v.Set("seed", fmt.Sprint(seed))
	if c.Fingerprint {
		v.Set("fingerprint", "1")
	}
	return base + v.Encode()
}

// get performs one query and decodes a 200 answer.
func (b *daemonBench) get(u string) (int, cluster.Answer, error) {
	var ans cluster.Answer
	resp, err := b.client.Get(u)
	if err != nil {
		return 0, ans, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, ans, err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(body, &ans)
	}
	return resp.StatusCode, ans, err
}

// background hands over what the background engagements have recorded
// and starts a fresh record.
func (b *daemonBench) background() *measurement {
	b.mu.Lock()
	defer b.mu.Unlock()
	bg := b.bg
	b.bg = newMeasurement()
	return bg
}

// client is the closed-loop generator's state for one measurement.
type client struct {
	b  *daemonBench
	m  *measurement
	st *answerStats
	// timed is false during the warm-up: outcomes are checked and failures
	// count, but no timing is kept.
	timed bool
	// opCPUMS collects the current segment's warm-answer CPU times.
	opCPUMS samples
	// meter probes the host's slowdown between warm answers.
	meter *speedMeter
}

// ask sends one request for c and checks a 200 answer against the
// expected table. It returns the status, 0 after a transport error.
func (cl *client) ask(c cell) int {
	b := cl.b
	start := time.Now()
	status, ans, err := b.get(query(b.base, c, b.cfg.seed))
	if cl.timed {
		cl.st.answerMS = append(cl.st.answerMS, ms(time.Since(start)))
	}
	cl.m.attempted++
	switch {
	case err != nil:
		cl.m.fail(fmt.Sprintf("%s: %v", c.key(), err))
		return 0
	case status == http.StatusOK:
		if msg := b.expected.checkAnswer(c, ans.Differentiated, ans.Technique); msg != "" {
			cl.m.fail(msg)
		}
	case status == http.StatusAccepted:
	case status == http.StatusServiceUnavailable:
		cl.st.rejected++
		cl.m.fail(c.key() + ": refused (503)")
	default:
		cl.m.fail(fmt.Sprintf("%s: unexpected status %d", c.key(), status))
	}
	return status
}

// warmAnswer asks one warm key and, when timed, keeps the CPU time the
// answer took, client and server together.
func (cl *client) warmAnswer(c cell) {
	c0 := processCPU()
	status := cl.ask(c)
	if cl.timed {
		cl.opCPUMS = append(cl.opCPUMS, ms(processCPU()-c0))
	}
	cl.meter.tick()
	if status == http.StatusAccepted {
		cl.m.fail(c.key() + ": warm key not in the store")
	}
}

// fresh asks a fresh key and polls it until its answer is ready.
func (cl *client) fresh(c cell) {
	if cl.ask(c) != http.StatusAccepted {
		cl.m.fail(c.key() + ": fresh key not answered 202")
		return
	}
	first := time.Now()
	for time.Since(first) < readyTimeout {
		time.Sleep(pollEvery)
		switch cl.ask(c) {
		case http.StatusAccepted:
			continue
		case http.StatusOK:
			if cl.timed {
				cl.st.coldReadyMS = append(cl.st.coldReadyMS, ms(time.Since(first)))
			}
		}
		return
	}
	cl.st.coldNotReady++
	cl.m.fail(fmt.Sprintf("%s: not ready after %s", c.key(), readyTimeout))
}

// round runs round r: warmPerRound warm keys, then one fresh key. It
// reports false, sending nothing, once the pool of fresh keys is used up.
func (cl *client) round(r int) bool {
	b := cl.b
	fp := fpRound(r)
	if b.nextCold[fp] >= len(b.cold[fp]) {
		return false
	}
	for i := 0; i < warmPerRound; i++ {
		cl.warmAnswer(b.warm[b.rng.Intn(len(b.warm))])
	}
	c := b.cold[fp][b.nextCold[fp]]
	b.nextCold[fp]++
	cl.fresh(c)
	return true
}

// measure runs segments of rounds until seconds have passed. The first
// warmupSegments are checked but not timed: the first seconds of load
// answer slower than later ones. Each later segment gives one figure of
// CPU time per request, the segment's process CPU time (background
// engagements and polls included) over its warm and fresh keys, and the
// CPU time of each of its warm answers.
func (b *daemonBench) measure(ctx context.Context, seconds float64, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	for _, msg := range b.problems {
		m.fail(msg)
	}
	b.problems = nil
	b.mu.Lock()
	b.bg, b.tr = newMeasurement(), tr
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.bg, b.tr = nil, nil
		b.mu.Unlock()
	}()

	st := &answerStats{}
	m.answers = st
	cl := &client{b: b, m: m, st: st}
	var storeBefore campaign.StoreStats
	var dBefore cluster.DaemonStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var meter speedMeter
segments:
	for seg := 0; seg <= warmupSegments || time.Now().Before(deadline); seg++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if seg == warmupSegments {
			if err := b.idle(10 * time.Second); err != nil {
				return nil, err
			}
			m.absorb(b.background())
			cl.timed = true
			storeBefore = b.store.Stats()
			var err error
			if dBefore, err = b.stats(); err != nil {
				return nil, err
			}
		}
		cl.opCPUMS = nil
		meter.start()
		cl.meter = &meter
		c0 := processCPU()
		for r := 0; r < roundsPerSegment; r++ {
			if !cl.round(r) {
				fmt.Fprintf(os.Stderr, "perfbench: fresh keys used up after %d segments\n", seg)
				break segments
			}
		}
		cpu := processCPU() - c0
		slow, probes := meter.end()
		if cl.timed {
			m.segs = append(m.segs, segment{cpuPerOpMS: ms(cpu-probes) / float64(roundsPerSegment*(warmPerRound+1)),
				opCPUMS: cl.opCPUMS, slowdown: slow})
		}
	}
	if len(m.segs) == 0 {
		return nil, errors.New("no segment after the warm-up completed; give the run more time")
	}
	if err := b.idle(time.Minute); err != nil {
		return nil, err
	}
	bg := b.background() // the fingerprint probes below are not engagements
	m.eng = bg.eng
	m.absorb(bg)

	if tr != nil {
		for i := 0; i < fpProbes; i++ {
			if err := tr.fingerprint("tmobile"); err != nil {
				return nil, err
			}
		}
	}
	storeAfter := b.store.Stats()
	st.store = campaign.StoreStats{
		Hits:      storeAfter.Hits - storeBefore.Hits,
		Misses:    storeAfter.Misses - storeBefore.Misses,
		Writes:    storeAfter.Writes - storeBefore.Writes,
		Evictions: storeAfter.Evictions - storeBefore.Evictions,
	}
	dAfter, err := b.stats()
	if err != nil {
		return nil, err
	}
	st.completed = dAfter.Completed - dBefore.Completed
	return m, nil
}
