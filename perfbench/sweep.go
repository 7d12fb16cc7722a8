package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/netem/stack"
)

// errTimeUp marks engagements skipped because the run's time was up.
var errTimeUp = errors.New("perfbench: run time is up")

// sweep is a campaign-sweep workload: passes over a fixed engagement list
// on a campaign.Runner with one worker and EvalWorkers 1.
type sweep struct {
	engs       []campaign.Engagement // one pass, in expansion order
	expected   table
	repeatFrac float64
	rng        *rand.Rand
}

// newSweep is the sweep's set-up: expand the cells through the registry,
// build every network and trace to compute the cache-key inputs, and load
// the expected-outcome table.
func newSweep(name string, cfg config) (*sweep, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	engs, err := expand(sweepCells(name), campaignSeeds(rng, sweepSeeds[name]))
	if err != nil {
		return nil, err
	}
	cells := make([]cell, len(engs))
	for i, e := range engs {
		cells[i] = cellOf(e)
	}
	rf, err := repeatFrac(newKeyer(), cells)
	if err != nil {
		return nil, err
	}
	if name == "sweep-null" && rf != 0 {
		// sweep-null is the control for work-sharing optimizations: no
		// cell may repeat another's cache-key inputs.
		return nil, fmt.Errorf("sweep-null repeat_frac = %g, want 0", rf)
	}
	expected, err := loadTable()
	if err != nil {
		return nil, err
	}
	return &sweep{engs: engs, expected: expected, repeatFrac: rf, rng: rng}, nil
}

func (s *sweep) close() error { return nil }

// measure runs whole passes, each a fresh campaign in a seeded order, until
// seconds have passed. The first pass is a warm-up: it always completes,
// its outcomes are checked and it gives the deterministic costs (rounds
// and bytes per engagement), but none of its timings is kept. Once time is
// up, engagements not yet started are skipped, so the run ends as soon as
// the running one finishes; timings come from complete passes only, so
// every measured pass holds the same engagements.
//
// One worker runs the engagements one after another, so the process CPU
// time an engagement spans is that engagement's own, garbage collection
// included.
func (s *sweep) measure(ctx context.Context, seconds float64, tr *tracer) (*measurement, error) {
	var engage campaign.EngageFunc = campaign.DefaultEngage
	if tr != nil {
		engage = tr.engage
	}
	var timeUp atomic.Bool
	m := newMeasurement()
	timer := time.AfterFunc(time.Duration(seconds*float64(time.Second)), func() { timeUp.Store(true) })
	defer timer.Stop()
	var meter speedMeter
	for pass := 0; !timeUp.Load(); pass++ {
		order := append([]campaign.Engagement(nil), s.engs...)
		s.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		warmup := pass == 0
		var cpuMS samples // written by the runner's one worker, read after RunSubset returns
		timed := func(ctx context.Context, e campaign.Engagement, osp *stack.OSProfile) (*core.Report, error) {
			if !warmup && timeUp.Load() {
				return nil, errTimeUp
			}
			c0 := processCPU()
			rep, err := engage(ctx, e, osp)
			cpuMS = append(cpuMS, ms(processCPU()-c0))
			meter.tick()
			return rep, err
		}
		r := &campaign.Runner{Spec: campaign.Spec{EvalWorkers: 1}, Workers: 1, Engage: timed}
		meter.start()
		c0 := processCPU()
		results := r.RunSubset(ctx, order)
		passCPU := processCPU() - c0
		slow, probes := meter.end()
		passMS := ms(passCPU - probes)
		complete := true
		for _, res := range results {
			if res.Err == errTimeUp.Error() {
				complete = false
				continue
			}
			s.record(m, res, warmup)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if complete && !warmup {
			m.segs = append(m.segs, segment{cpuPerOpMS: passMS / float64(len(order)), opCPUMS: cpuMS,
				slowdown: slow})
			for _, res := range results {
				m.eng.wallMS = append(m.eng.wallMS, ms(res.Wall))
			}
		}
	}
	if len(m.segs) == 0 {
		return nil, fmt.Errorf("no pass after the warm-up completed in %gs; give the run more time", seconds)
	}
	return m, nil
}

// record accounts one engagement and checks its outcome. The warm-up pass
// gives the deterministic costs.
func (s *sweep) record(m *measurement, res campaign.Result, warmup bool) {
	m.attempted++
	c := cellOf(res.Engagement)
	if res.Status != campaign.StatusOK {
		m.fail(fmt.Sprintf("%s: %s: %s", res.Engagement.Key(), res.Status, res.Err))
		return
	}
	o := outcomeOf(res.Report)
	if msg := s.expected.check(c, o); msg != "" {
		m.fail(msg)
	}
	if warmup {
		m.eng.addCost(o)
	}
}
