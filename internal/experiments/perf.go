package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/netem/packet"
	"repro/internal/trace"
)

// PerfBench is one benchmark measurement in a perf snapshot.
type PerfBench struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// MBPerS is set only for throughput benchmarks (SetBytes).
	MBPerS float64 `json:"mb_per_s,omitempty"`
	// EngPerS is set only for campaign benchmarks: engagements completed
	// per wall-clock second, the campaign-throughput headline number.
	EngPerS float64 `json:"eng_per_s,omitempty"`
}

// PerfSnapshot is the machine-readable perf artifact (BENCH_<n>.json)
// committed alongside each performance-affecting PR, so the bench
// trajectory across the repository's history can be diffed mechanically.
//
// Schema history:
//   - liberate-bench/v1: go/goos/goarch + benchmarks
//   - liberate-bench/v2: adds num_cpu, gomaxprocs, and revision so a
//     snapshot records the parallelism available on the machine that
//     produced it, and eng_per_s on campaign benchmarks
type PerfSnapshot struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Revision is the VCS commit the binary was built from, when the Go
	// toolchain stamped one ("" otherwise, e.g. for `go run` in a dirty
	// tree or a tarball build).
	Revision   string      `json:"revision,omitempty"`
	Benchmarks []PerfBench `json:"benchmarks"`
}

// vcsRevision extracts the stamped VCS commit from build info.
func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// RunPerf measures the substrate (packet serialize/inspect) and macro
// (replay, engagement, campaign) benchmarks in-process. The workloads
// mirror bench_test.go so the numbers are comparable with `go test -bench`.
func RunPerf() *PerfSnapshot {
	snap := &PerfSnapshot{
		Schema:     "liberate-bench/v2",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Revision:   vcsRevision(),
	}

	src, dst := packet.AddrFrom("10.0.0.1"), packet.AddrFrom("10.0.0.2")
	serialize := packet.NewTCP(src, dst, 1234, 80, 1, 1, packet.FlagACK, make([]byte, 1400))
	snap.add("packet-serialize", 0, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = serialize.Serialize()
		}
	}))

	inspectRaw := serialize.Serialize()
	snap.add("packet-inspect", 0, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = packet.Inspect(inspectRaw)
		}
	}))

	arena := packet.NewArena()
	defer arena.Release()
	wirePay := make([]byte, 1400)
	snap.add("arena-wire", 0, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := arena.NewTCP(src, dst, 1234, 80, uint32(i), 1, packet.FlagACK, wirePay)
			_ = arena.Wire(p)
			if i%256 == 255 {
				arena.Reset()
			}
		}
	}))
	snap.add("frame-parse-hint", 0, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := arena.NewTCP(src, dst, 1234, 80, uint32(i), 1, packet.FlagACK, wirePay)
			f := arena.FrameOf(p)
			if _, defects := f.Parse(); !defects.Empty() {
				b.Fatal("unexpected defects")
			}
			if i%256 == 255 {
				arena.Reset()
			}
		}
	}))

	replayTrace := trace.AmazonPrimeVideo(1 << 20)
	snap.add("replay-throughput", int64(replayTrace.TotalBytes()), testing.Benchmark(func(b *testing.B) {
		b.SetBytes(int64(replayTrace.TotalBytes()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := dpi.NewTMobile()
			s := core.NewSession(net)
			if res := s.Replay(replayTrace, nil); !res.Completed {
				b.Fatal("replay failed")
			}
			net.Release()
		}
	}))

	engTrace := trace.AmazonPrimeVideo(96 << 10)
	snap.add("full-engagement", 0, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := dpi.NewTMobile()
			if rep := (&core.Liberate{Net: net, Trace: engTrace}).Run(); rep.Deployed == nil {
				b.Fatal("no deployment")
			}
			net.Release()
		}
	}))

	spec := campaign.Spec{Traces: []string{"amazon", "youtube"}, Bodies: []int{8 << 10}}
	snap.addCampaign("campaign-throughput", 12, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			summary, err := (&campaign.Runner{Spec: spec, Workers: 1}).Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if summary.Failed != 0 {
				b.Fatalf("%d engagements failed", summary.Failed)
			}
		}
	}))

	// The 48-engagement sweep is the golden campaign spec: every network ×
	// {amazon, youtube} × hours {0, 12} × seeds {1, 2}. Run uncached and
	// cached back to back; the seed dimension makes every cache key appear
	// exactly twice, so the cached run computes 24 engagements and serves
	// 24 from memory. A fresh Cache per iteration keeps the measurement
	// honest — no warm entries leak across b.N.
	sweep := campaign.Spec{
		Traces: []string{"amazon", "youtube"},
		Hours:  []int{0, 12},
		Bodies: []int{8 << 10},
		Seeds:  []int64{1, 2},
	}
	runSweep := func(b *testing.B, cache *campaign.Cache) {
		summary, err := (&campaign.Runner{Spec: sweep, Workers: 1, Cache: cache}).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if summary.Failed != 0 {
			b.Fatalf("%d engagements failed", summary.Failed)
		}
	}
	snap.addCampaign("campaign-throughput-48", 48, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runSweep(b, nil)
		}
	}))
	snap.addCampaign("campaign-throughput-48-cached", 48, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runSweep(b, campaign.NewCache())
		}
	}))

	return snap
}

// EngagementAllocBudget is the CI ceiling on allocations per full
// engagement. The pointer-free scheduler, payload-sum memoization, and
// pooled replay setup run one at ~6.3k allocs; the budget leaves modest
// headroom for legitimate feature growth while catching a regression
// that reintroduces per-event or per-packet heap traffic (the seed ran
// ~161k, the pipeline before the pointer-free scheduler ~7k).
const EngagementAllocBudget = 8_000

// MeasureEngagementAllocs runs full engagements under the benchmark
// harness and returns the steady-state allocation count per engagement.
// CI gates on it directly: allocation counts are machine-independent, so
// the guard is stable where a wall-clock threshold would flake.
func MeasureEngagementAllocs() int64 {
	tr := trace.AmazonPrimeVideo(96 << 10)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := dpi.NewTMobile()
			if rep := (&core.Liberate{Net: net, Trace: tr}).Run(); rep.Deployed == nil {
				b.Fatal("no deployment")
			}
			net.Release()
		}
	})
	return r.AllocsPerOp()
}

func (s *PerfSnapshot) add(name string, setBytes int64, r testing.BenchmarkResult) {
	pb := PerfBench{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if setBytes > 0 && r.T > 0 {
		pb.MBPerS = float64(setBytes) * float64(r.N) / r.T.Seconds() / 1e6
	}
	s.Benchmarks = append(s.Benchmarks, pb)
}

// addCampaign records a campaign benchmark where each op runs engPerOp
// engagements, deriving the engagements-per-second headline rate.
func (s *PerfSnapshot) addCampaign(name string, engPerOp int, r testing.BenchmarkResult) {
	s.add(name, 0, r)
	if r.T > 0 {
		s.Benchmarks[len(s.Benchmarks)-1].EngPerS =
			float64(engPerOp) * float64(r.N) / r.T.Seconds()
	}
}

// Render formats the snapshot as an aligned table.
func (s *PerfSnapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %14s %12s %12s %10s %8s\n", "benchmark", "ns/op", "B/op", "allocs/op", "MB/s", "eng/s")
	for _, r := range s.Benchmarks {
		mbs, engs := "-", "-"
		if r.MBPerS > 0 {
			mbs = fmt.Sprintf("%.2f", r.MBPerS)
		}
		if r.EngPerS > 0 {
			engs = fmt.Sprintf("%.1f", r.EngPerS)
		}
		fmt.Fprintf(&b, "%-30s %14.1f %12d %12d %10s %8s\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, mbs, engs)
	}
	return b.String()
}

// WriteJSON writes the snapshot to path.
func (s *PerfSnapshot) WriteJSON(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
