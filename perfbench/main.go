// Command perfbench is lib·erate's benchmark. It drives the engine only
// through its public entry points (campaign.Runner, campaign.DefaultEngage,
// core.Liberate with a core.Pipeline, cluster.NewDaemon over a
// campaign.Store, core.FingerprintNetwork) on one of four workloads, checks
// every outcome against expected.tsv, and prints one JSON result line:
//
//	perfbench --workload sweep-diff --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// splits the time between an untraced and a traced run and reports the
// per-layer metrics; both runs check every outcome against the table, so
// the traced run must reproduce the untraced outcomes cell for cell.
// --record FILE regenerates the expected-outcome table.
// See README.md for the workloads and metric definitions.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// buildDir holds build output and run scratch space, relative to the
// working directory.
const buildDir = ".bench_build"

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	workdir string // scratch space inside the working directory
}

// workload is a benchmark workload after set-up.
type workload interface {
	measure(ctx context.Context, seconds float64, tr *tracer) (*measurement, error)
	close() error
}

// workloadSpec describes how to set a workload up. The set-up is timed
// and repeated setupReps times; all but the last instance are closed. It
// also returns the workload's repeat fraction.
type workloadSpec struct {
	setupReps int
	setup     func(ctx context.Context, cfg config, rep int) (workload, float64, error)
}

var workloads = map[string]workloadSpec{
	"sweep-diff":     {61, sweepSetup("sweep-diff")},
	"sweep-null":     {61, sweepSetup("sweep-null")},
	"sweep-impaired": {61, sweepSetup("sweep-impaired")},
	"daemon-mixed": {3, func(ctx context.Context, cfg config, rep int) (workload, float64, error) {
		b, err := newDaemonBench(ctx, cfg, rep)
		if err != nil {
			return nil, 0, err
		}
		return b, b.repeatFrac, nil
	}},
}

func sweepSetup(name string) func(context.Context, config, int) (workload, float64, error) {
	return func(_ context.Context, cfg config, _ int) (workload, float64, error) {
		s, err := newSweep(name, cfg)
		if err != nil {
			return nil, 0, err
		}
		return s, s.repeatFrac, nil
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep-diff, sweep-null, sweep-impaired or daemon-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	recordTo := fs.String("record", "", "write the expected-outcome table to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *recordTo != "" {
		if err := recordFile(ctx, *recordTo); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// One processor: the workloads run one operation at a time, so the
	// process CPU time an operation spans is its own, and no second
	// processor's scheduling or idle garbage-collection work adds to it.
	runtime.GOMAXPROCS(1)
	cfg := config{seed: *seed, seconds: *seconds}
	res, err := bench(ctx, cfg, w, *traced == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bench sets the workload up, measures it, and assembles the result.
func bench(ctx context.Context, cfg config, spec workloadSpec, traced bool, log io.Writer) (*result, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	wd, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(wd)
	cfg.workdir = wd

	var w workload
	var repeat float64
	var setupS []float64
	for i := 0; i < spec.setupReps; i++ {
		runtime.GC() // no set-up pays for garbage its predecessor left
		var meter speedMeter
		meter.start()
		start := processCPU()
		inst, rf, err := spec.setup(ctx, cfg, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cpu := processCPU() - start
		slow, _ := meter.end()
		setupS = append(setupS, cpu.Seconds()/slow)
		if i < spec.setupReps-1 {
			if err := inst.close(); err != nil {
				return nil, err
			}
			continue
		}
		w, repeat = inst, rf
	}
	defer func() {
		if w != nil {
			w.close()
		}
	}()

	out := metrics{}
	res := &result{Metrics: out}
	var m *measurement
	if !traced {
		if m, err = w.measure(ctx, cfg.seconds, nil); err != nil {
			return nil, err
		}
		if err := m.metrics(out); err != nil {
			report(log, m, setupS, repeat, out)
			return nil, err
		}
		rss, err := maxRSSMB()
		if err != nil {
			return nil, err
		}
		out.set("setup_s", median(setupS), "s")
		out.set("max_rss_mb", rss, "MB")
		out.set("ok_frac", 1-frac(float64(m.failed), float64(m.attempted)), "frac")
	} else {
		if m, err = tracedRun(ctx, w, cfg.seconds, repeat, out, log); err != nil {
			return nil, err
		}
	}
	err = w.close()
	w = nil
	if err != nil {
		return nil, fmt.Errorf("teardown: %w", err)
	}
	if err := checkNames(out, traced); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = m.attempted, m.failed
	res.Correct = m.failed == 0 && m.attempted > 0
	report(log, m, setupS, repeat, out)
	return res, nil
}

// tracedRun measures half the time untraced and half traced and reports the
// per-layer metrics. Both halves check every outcome against the expected
// table, so a traced outcome that differs from the untraced one fails the
// run. The untraced half gives the Go runtime and wall-clock figures.
func tracedRun(ctx context.Context, w workload, seconds, repeat float64, out metrics, log io.Writer) (*measurement, error) {
	runtime.GC()
	before := readRuntime()
	base, err := w.measure(ctx, seconds/2, nil)
	if err != nil {
		return nil, err
	}
	runtimeMetrics(before, readRuntime(), base.attempted, out)

	tr, err := newTracer()
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	m, err := w.measure(ctx, seconds/2, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	self, total, err := foldProfile(&prof)
	if err != nil {
		return nil, err
	}
	m.absorb(base)

	tr.layerMetrics(out, self)
	cpuFracs(out, self, total)
	out.set("obs.overhead_frac", frac(m.cpuPerOp(), base.cpuPerOp())-1, "frac")
	out.set("campaign.repeat_frac", repeat, "frac")
	return m, layerWall(base, out)
}

// layerWall reports the wall-clock figures of the untraced half: the
// engagements' as the campaign runner or the daemon's background worker
// saw them, and the daemon's answers. Sweeps, which send no requests,
// report zeros for the daemon.
func layerWall(m *measurement, out metrics) error {
	eng, err := m.eng.wallMS.percentile(50)
	if err != nil {
		return fmt.Errorf("campaign.eng_ms_p50: %w", err)
	}
	out.set("campaign.eng_ms_p50", eng, "ms")
	st := m.answers
	if st == nil {
		st = &answerStats{}
	}
	s := st.store
	out.set("campaign.store.hit_frac", frac(float64(s.Hits), float64(s.Hits+s.Misses)), "frac")
	out.set("campaign.store.writes", float64(s.Writes), "count")
	out.set("campaign.store.evictions", float64(s.Evictions), "count")
	out.set("cluster.daemon.completed", float64(st.completed), "count")
	out.set("cluster.daemon.rejected", float64(st.rejected), "count")
	out.set("cluster.daemon.cold_not_ready", float64(st.coldNotReady), "count")
	var p50, p99, ready float64
	if m.answers != nil {
		if p50, err = st.answerMS.percentile(50); err != nil {
			return fmt.Errorf("cluster.daemon.answer_ms_p50: %w", err)
		}
		if p99, err = st.answerMS.percentile(99); err != nil {
			return fmt.Errorf("cluster.daemon.answer_ms_p99: %w", err)
		}
		if ready, err = st.coldReadyMS.percentile(50); err != nil {
			return fmt.Errorf("cluster.daemon.cold_ready_ms_p50: %w", err)
		}
	}
	out.set("cluster.daemon.answer_ms_p50", p50, "ms")
	out.set("cluster.daemon.answer_ms_p99", p99, "ms")
	out.set("cluster.daemon.cold_ready_ms_p50", ready, "ms")
	return nil
}

// report prints the human-readable summary to log: every metric with its
// unit, the sample counts behind the percentiles, the wall-clock figures
// of the run, and every problem.
func report(log io.Writer, m *measurement, setupS []float64, repeat float64, out metrics) {
	fmt.Fprintf(log, "perfbench: go=%s nproc=%d gomaxprocs=%d\n", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	ops := m.opCPU()
	fmt.Fprintf(log, "samples: ops=%d (cpu p50=%s, %s) segments=%d setups=%d repeat_frac=%.3f\n",
		len(ops), p50(ops), tail(ops), len(m.segs), len(setupS), repeat)
	fmt.Fprint(log, "segments (cpu ms per op/host slowdown):")
	for _, s := range m.segs {
		fmt.Fprintf(log, " %.3f/%.3f", s.cpuPerOpMS, s.slowdown)
	}
	fmt.Fprintln(log)
	fmt.Fprintf(log, "wall: engagements=%d (p50=%s, %s)", len(m.eng.wallMS), p50(m.eng.wallMS), tail(m.eng.wallMS))
	if st := m.answers; st != nil {
		fmt.Fprintf(log, " answers=%d (p50=%s, %s) cold_keys=%d (ready p50=%s) not_ready=%d",
			len(st.answerMS), p50(st.answerMS), tail(st.answerMS), len(st.coldReadyMS), p50(st.coldReadyMS), st.coldNotReady)
	}
	fmt.Fprintln(log)
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-36s %14.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	for _, p := range m.problems {
		fmt.Fprintln(log, "FAIL", p)
	}
}

// p50 renders the median of s, if it has one.
func p50(s samples) string {
	v, err := s.percentile(50)
	if err != nil {
		return "-"
	}
	return fmt.Sprintf("%.3fms", v)
}

// tail renders the highest percentile of s that has ten samples beyond it.
func tail(s samples) string {
	p := highestSupported(len(s))
	if p == 0 {
		return "no supported percentile"
	}
	v, _ := s.percentile(p)
	return fmt.Sprintf("p%g=%.3fms", p, v)
}

// loadTable parses the embedded expected-outcome table.
func loadTable() (table, error) { return parseTable(strings.NewReader(expectedTSV)) }

// recordFile writes a freshly recorded table to path.
func recordFile(ctx context.Context, path string) error {
	var buf bytes.Buffer
	if err := record(ctx, &buf, runtime.NumCPU()); err != nil {
		return err
	}
	return os.WriteFile(filepath.Clean(path), buf.Bytes(), 0o644)
}
