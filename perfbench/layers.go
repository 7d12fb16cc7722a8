package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/netem/stack"
	"repro/internal/obs"
	"repro/internal/registry"
)

// flightEvents bounds the events each traced engagement keeps. Counters
// are exact whatever the bound; the ring only stops event memory growing
// with engagement size.
const flightEvents = 256

// Timed phases of the benchmark's pipeline.
const (
	phDetect = iota
	phCharacterize
	phEvaluate
	numTimed
)

// timedPhase is a core.Phase that calls one exported phase function and
// adds the process CPU time it spans to a shared total. The benchmark runs
// one engagement at a time on one processor, so that time is the phase's.
type timedPhase struct {
	name    string
	deps    []string
	enabled func(*core.PhaseContext) bool
	zero    core.PhaseResult
	run     func(*core.PhaseContext) core.PhaseResult
	ns      *atomic.Int64
}

func (p *timedPhase) Name() string                      { return p.name }
func (p *timedPhase) Deps() []string                    { return p.deps }
func (p *timedPhase) Enabled(c *core.PhaseContext) bool { return p.enabled(c) }
func (p *timedPhase) Zero() core.PhaseResult            { return p.zero }
func (p *timedPhase) Run(c *core.PhaseContext) core.PhaseResult {
	start := processCPU()
	r := p.run(c)
	if p.ns != nil {
		p.ns.Add(int64(processCPU() - start))
	}
	return r
}

func differentiated(c *core.PhaseContext) bool { return c.Detection().Differentiated }

// tracer is the traced run's instrumentation: a timed pipeline, one obs
// buffer per engagement, and the totals both feed.
type tracer struct {
	pipeline *core.Pipeline
	phaseNS  [numTimed]atomic.Int64
	fpNS     atomic.Int64
	fpCalls  atomic.Int64

	mu          sync.Mutex
	counters    [obs.NumCounters]int64
	engagements int
	timed       int   // engagements that ran the timed pipeline
	timedRounds int64 // their rounds
	rounds      [numTimed]int64
	tried       int64
	working     int64
	pruned      int64
}

func newTracer() (*tracer, error) {
	t := &tracer{}
	always := func(*core.PhaseContext) bool { return true }
	pl, err := core.NewPipeline(
		&timedPhase{name: core.PhaseDetect, enabled: always, zero: &core.Detection{},
			ns: &t.phaseNS[phDetect],
			run: func(c *core.PhaseContext) core.PhaseResult {
				return core.Detect(c.Session, c.Trace)
			}},
		&timedPhase{name: core.PhaseCharacterize, deps: []string{core.PhaseDetect},
			enabled: differentiated, zero: &core.Characterization{}, ns: &t.phaseNS[phCharacterize],
			run: func(c *core.PhaseContext) core.PhaseResult {
				return core.Characterize(c.Session, c.Trace, c.Detection())
			}},
		&timedPhase{name: core.PhaseEvaluate, deps: []string{core.PhaseDetect, core.PhaseCharacterize},
			enabled: differentiated, zero: &core.Evaluation{}, ns: &t.phaseNS[phEvaluate],
			run: func(c *core.PhaseContext) core.PhaseResult {
				return core.Evaluate(c.Session, c.Trace, c.Detection(), c.Characterization())
			}},
		&timedPhase{name: core.PhaseDeploy, deps: []string{core.PhaseEvaluate},
			enabled: differentiated, zero: &core.Deployment{},
			run: func(c *core.PhaseContext) core.PhaseResult {
				return &core.Deployment{Verdict: c.Evaluation().Best()}
			}},
	)
	if err != nil {
		return nil, err
	}
	t.pipeline = pl
	return t, nil
}

// engage is the traced EngageFunc. Unarmed engagements run through the
// timed pipeline; fingerprint-armed ones run campaign.DefaultEngage,
// because suite pruning is reachable only through the default pipeline.
// Both record into a per-engagement obs buffer injected with
// campaign.WithRecorder.
func (t *tracer) engage(ctx context.Context, e campaign.Engagement, osp *stack.OSProfile) (*core.Report, error) {
	buf := obs.NewFlightRecorder(flightEvents)
	ctx = campaign.WithRecorder(ctx, buf)
	var rep *core.Report
	var err error
	if e.Fingerprint {
		rep, err = campaign.DefaultEngage(ctx, e, osp)
	} else {
		rep, err = t.timedEngage(ctx, e, osp)
	}
	if err == nil {
		t.absorb(buf, rep, !e.Fingerprint)
	}
	return rep, err
}

// timedEngage is campaign.DefaultEngage with the benchmark's pipeline.
func (t *tracer) timedEngage(ctx context.Context, e campaign.Engagement, osp *stack.OSProfile) (*core.Report, error) {
	net, err := registry.NewNetwork(e.Network)
	if err != nil {
		return nil, err
	}
	defer net.Release()
	net.Env.SetRecorder(campaign.RecorderFrom(ctx))
	if e.Scenario != "" {
		sc := scenarioByName(e.Scenario)
		if sc == nil {
			return nil, fmt.Errorf("%s: unknown scenario %q", e.Key(), e.Scenario)
		}
		if err := sc.Apply(net); err != nil {
			return nil, err
		}
	}
	tr, err := registry.NewTrace(e.Trace, e.Body)
	if err != nil {
		return nil, err
	}
	if e.Hour > 0 {
		net.Clock.RunFor(time.Duration(e.Hour) * time.Hour)
	}
	rep := (&core.Liberate{Net: net, Trace: tr, ServerOS: osp, EvalWorkers: e.EvalWorkers,
		Pipeline: t.pipeline}).Run()
	if rep.Deployed != nil && rep.DeployTransform(e.Seed) == nil {
		return nil, fmt.Errorf("%s: deployed technique %s built a nil transform (seed %d)",
			e.Key(), rep.Deployed.Technique.ID, e.Seed)
	}
	return rep, nil
}

// absorb adds one engagement's counters and report figures to the totals.
func (t *tracer) absorb(buf *obs.Buffer, rep *core.Report, timed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		t.counters[c] += buf.Counter(c)
	}
	t.engagements++
	if timed {
		t.timed++
		t.timedRounds += int64(rep.TotalRounds)
	}
	if d := rep.Detection; d != nil {
		t.rounds[phDetect] += int64(d.Rounds)
	}
	if c := rep.Characterization; c != nil {
		t.rounds[phCharacterize] += int64(c.Rounds)
	}
	if ev := rep.Evaluation; ev != nil {
		t.rounds[phEvaluate] += int64(ev.Rounds)
		t.working += int64(len(ev.Working()))
		t.pruned += int64(ev.SkippedByPruning)
		for _, v := range ev.Verdicts {
			if v.Tried {
				t.tried++
			}
		}
	}
}

// fingerprint measures the CPU time of one core.FingerprintNetwork call on a fresh network.
func (t *tracer) fingerprint(network string) error {
	net, err := registry.NewNetwork(network)
	if err != nil {
		return err
	}
	defer net.Release()
	start := processCPU()
	core.FingerprintNetwork(net, &stack.Linux)
	t.fpNS.Add(int64(processCPU() - start))
	t.fpCalls.Add(1)
	return nil
}

// layerMetrics renders the traced totals as per-layer metrics. self is
// the CPU profile's self time per layer.
func (t *tracer) layerMetrics(m metrics, self map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(t.engagements)
	per := func(v float64) float64 { return frac(v, n) }
	ctr := func(c obs.Counter) float64 { return float64(t.counters[c]) }
	phaseMS := func(ph int) float64 { return frac(float64(t.phaseNS[ph].Load()), float64(t.timed)) / 1e6 }

	m.set("core.detect.cpu_ms", phaseMS(phDetect), "ms")
	m.set("core.characterize.cpu_ms", phaseMS(phCharacterize), "ms")
	m.set("core.evaluate.cpu_ms", phaseMS(phEvaluate), "ms")
	m.set("core.detect.rounds", per(float64(t.rounds[phDetect])), "count")
	m.set("core.characterize.rounds", per(float64(t.rounds[phCharacterize])), "count")
	m.set("core.evaluate.rounds", per(float64(t.rounds[phEvaluate])), "count")
	m.set("core.evaluate.tried", per(float64(t.tried)), "count")
	m.set("core.evaluate.working_frac", frac(float64(t.working), float64(t.tried)), "frac")
	m.set("core.evaluate.pruned", per(float64(t.pruned)), "count")
	m.set("core.retries", per(ctr(obs.CtrRetries)), "count")
	m.set("core.fingerprint.cpu_ms", frac(float64(t.fpNS.Load()), float64(t.fpCalls.Load()))/1e6, "ms")

	phaseNS := float64(t.phaseNS[phDetect].Load() + t.phaseNS[phCharacterize].Load() + t.phaseNS[phEvaluate].Load())
	m.set("replay.replays", per(ctr(obs.CtrReplays)), "count")
	m.set("replay.us_per_round", frac(phaseNS, float64(t.timedRounds))/1e3, "us")

	m.set("vclock.fired", per(ctr(obs.CtrVClockFired)), "count")
	m.set("vclock.fastpath_frac", frac(ctr(obs.CtrVClockFastPath), ctr(obs.CtrVClockFired)), "frac")
	m.set("vclock.cascades", per(ctr(obs.CtrVClockCascades)), "count")
	m.set("vclock.ns_per_event", frac(self["vclock"], ctr(obs.CtrVClockFired)), "ns")
	m.set("netem.deliveries", per(ctr(obs.CtrDeliveries)), "count")
	m.set("netem.ns_per_delivery", frac(self["netem"], ctr(obs.CtrDeliveries)), "ns")
	m.set("netem.link_drops", per(ctr(obs.CtrLinkDrops)), "count")
	m.set("netem.link_reorders", per(ctr(obs.CtrLinkReorders)), "count")
	m.set("netem.link_throttles", per(ctr(obs.CtrLinkThrottles)), "count")
	m.set("packet.reassemblies", per(ctr(obs.CtrReassemblies)), "count")
	m.set("dpi.rule_matches", per(ctr(obs.CtrRuleMatches)), "count")
	m.set("dpi.classifications", per(ctr(obs.CtrClassifications)), "count")
	m.set("dpi.forged_packets", per(ctr(obs.CtrForgedPackets)), "count")
	m.set("dpi.throttle_delays", per(ctr(obs.CtrThrottleDelays)), "count")
	m.set("dpi.faults", per(ctr(obs.CtrFaults)), "count")
}
