package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/dpi"
	"repro/internal/registry"
	"repro/internal/trace"
)

// cell is one engagement input: everything that determines a report. The
// campaign seed is left out, because it only parameterizes the deployment
// transform built after the engagement.
type cell struct {
	Network, Trace string
	Hour, Body     int
	// Scenario names the scenario world ("" = clean path).
	Scenario string
	// Fingerprint arms the phase-0 ambiguity fingerprint.
	Fingerprint bool
}

// key renders the cell in the expected-outcome table's form, which is the
// campaign engagement key without its seed.
func (c cell) key() string {
	k := c.Network + "/" + c.Trace + "/h=" + strconv.Itoa(c.Hour) + "/b=" + strconv.Itoa(c.Body)
	if c.Scenario != "" {
		k += "/sc=" + c.Scenario
	}
	if c.Fingerprint {
		k += "/fp"
	}
	return k
}

// cellOf recovers the cell behind an expanded engagement.
func cellOf(e campaign.Engagement) cell {
	return cell{Network: e.Network, Trace: e.Trace, Hour: e.Hour, Body: e.Body,
		Scenario: e.Scenario, Fingerprint: e.Fingerprint}
}

// squall is the midnight-squall scenario world of the scenario gate: a
// classifier-fault overlay, bursty egress loss, jittered ingress delay,
// every-29th-packet loss, and a 512 KB/s token bucket, in three phases.
func squall() *dpi.ScenarioSpec {
	return &dpi.ScenarioSpec{
		Name:   "midnight-squall",
		Faults: &dpi.FaultsSpec{MissRate: 0.05, RSTDropRate: 0.10},
		Phases: []dpi.ScenarioPhase{
			{StartS: 0, Egress: []dpi.ImpairmentSpec{
				{Kind: "ge", Rate: 0.05, Rate2: 0.4, Rate3: 0.8, Seed: 7}}},
			{StartS: 2,
				Ingress: []dpi.ImpairmentSpec{{Kind: "delay", DelayMs: 3, JitterMs: 1, Seed: 9}},
				Impair:  []dpi.ImpairmentSpec{{Kind: "nth", Every: 29, Offset: 3}}},
			{StartS: 5, Impair: []dpi.ImpairmentSpec{{Kind: "rate", KBps: 512}}},
		},
	}
}

// pair is a network × trace combination.
type pair struct{ network, trace string }

// diffPairs are the pairs that differentiate on a clean path at small
// bodies. att/amazon is detected and characterized, but nothing evades
// its terminating proxy.
var diffPairs = []pair{
	{"tmobile", "amazon"}, {"tmobile", "spotify"}, {"tmobile", "youtube"}, {"tmobile", "espn"},
	{"gfc", "economist"}, {"iran", "facebook"},
	{"testbed", "amazon"}, {"testbed", "skype"},
	{"att", "amazon"},
}

// nullNetworks are networks with no DPI (sprint), validating middleboxes
// that never match (gfc, iran), and a terminating proxy (att); classified
// lists the traces each one does differentiate.
var nullNetworks = []struct {
	name       string
	classified map[string]bool
}{
	{"sprint", nil},
	{"gfc", map[string]bool{"economist": true}},
	{"iran", map[string]bool{"facebook": true}},
	{"att", map[string]bool{"amazon": true, "nbcsports": true, "espn": true}},
}

// nullBodies are the default-range body sizes of sweep-null. Each pair
// runs at two of them, dealt out in turn, so a pass uses every size about
// equally often and stays short enough to repeat several times in a run.
var nullBodies = []int{64 << 10, 80 << 10, 96 << 10, 112 << 10, 128 << 10}

// nullPairs lists every non-differentiating pair of nullNetworks.
func nullPairs() []pair {
	var out []pair
	for _, n := range nullNetworks {
		for _, t := range registry.TraceNames() {
			if !n.classified[t] {
				out = append(out, pair{n.name, t})
			}
		}
	}
	return out
}

// impairedNullPairs are the non-differentiating pairs sweep-impaired runs
// beside diffPairs.
var impairedNullPairs = []pair{
	{"sprint", "amazon"}, {"sprint", "youtube"},
	{"gfc", "youtube"}, {"gfc", "skype"},
	{"iran", "amazon"}, {"iran", "skype"},
	{"att", "youtube"}, {"att", "economist"},
}

// bodyInsensitive traces ignore the body size, so one body covers them.
var bodyInsensitive = map[string]bool{"skype": true}

// sweepCells lists one pass of a sweep workload, without seeds.
func sweepCells(workload string) []cell {
	var out []cell
	add := func(ps []pair, hours, bodies []int, scenario string) {
		for _, p := range ps {
			for _, h := range hours {
				bs := bodies
				if bodyInsensitive[p.trace] {
					bs = bodies[len(bodies)/2:][:1]
				}
				for _, b := range bs {
					out = append(out, cell{Network: p.network, Trace: p.trace, Hour: h, Body: b, Scenario: scenario})
				}
			}
		}
	}
	switch workload {
	case "sweep-diff":
		add(diffPairs, []int{0, 12}, []int{8 << 10}, "")
	case "sweep-null":
		for i, p := range nullPairs() {
			n := len(nullBodies)
			bs := []int{nullBodies[2*i%n], nullBodies[(2*i+1)%n]}
			if bodyInsensitive[p.trace] {
				bs = nullBodies
			}
			add([]pair{p}, []int{0}, bs, "")
		}
	case "sweep-impaired":
		add(diffPairs, []int{0, 12}, []int{8 << 10}, squall().Name)
		add(impairedNullPairs, []int{0, 12}, []int{8 << 10}, squall().Name)
	}
	return out
}

// sweepSeeds is how many campaign seeds each sweep workload crosses its
// cells with. sweep-diff repeats every cell under two seeds, as the golden
// sweep does; that repetition is the work a memo could share.
var sweepSeeds = map[string]int{"sweep-diff": 2, "sweep-null": 1, "sweep-impaired": 1}

// campaignSeeds draws n campaign seeds from the workload's generator.
func campaignSeeds(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + rng.Int63n(1<<31)
	}
	return out
}

// expand turns cells into campaign engagements through Spec.Expand, the
// only way to attach a resolved scenario. Each cell is crossed with every
// seed.
func expand(cells []cell, seeds []int64) ([]campaign.Engagement, error) {
	var out []campaign.Engagement
	for _, c := range cells {
		spec := campaign.Spec{
			Networks: []string{c.Network}, Traces: []string{c.Trace},
			Hours: []int{c.Hour}, Bodies: []int{c.Body}, Seeds: seeds,
			EvalWorkers: 1, Fingerprint: c.Fingerprint,
		}
		if c.Scenario != "" {
			sc := scenarioByName(c.Scenario)
			if sc == nil {
				return nil, fmt.Errorf("unknown scenario %q", c.Scenario)
			}
			spec.Scenarios = []dpi.ScenarioSpec{*sc}
		}
		engs, err := spec.Expand()
		if err != nil {
			return nil, err
		}
		out = append(out, engs...)
	}
	return out, nil
}

// scenarioByName resolves the benchmark's scenario worlds.
func scenarioByName(name string) *dpi.ScenarioSpec {
	if sc := squall(); sc.Name == name {
		return sc
	}
	return nil
}

// inputKey is a cell's cache-key inputs: what campaign.Cache and
// campaign.Store address a report by.
type inputKey struct {
	network, trace, scenario string
	hour                     int
	os                       string
	fingerprint              bool
}

// keyer computes inputKeys, building each network and trace once. Building
// them is part of a workload's set-up.
type keyer struct {
	net map[string]string
	tr  map[[2]any]string
}

func newKeyer() *keyer {
	return &keyer{net: map[string]string{}, tr: map[[2]any]string{}}
}

func (k *keyer) key(c cell) (inputKey, error) {
	nfp, ok := k.net[c.Network]
	if !ok {
		n, err := registry.NewNetwork(c.Network)
		if err != nil {
			return inputKey{}, err
		}
		nfp = n.ConfigDigest()
		n.Release()
		k.net[c.Network] = nfp
	}
	tk := [2]any{c.Trace, c.Body}
	tfp, ok := k.tr[tk]
	if !ok {
		t, err := registry.NewTrace(c.Trace, c.Body)
		if err != nil {
			return inputKey{}, err
		}
		tfp = trace.ContentHash(t)
		k.tr[tk] = tfp
	}
	var scfp string
	if c.Scenario != "" {
		scfp = scenarioByName(c.Scenario).Hash()
	}
	return inputKey{network: nfp, trace: tfp, scenario: scfp, hour: c.Hour, os: "linux",
		fingerprint: c.Fingerprint}, nil
}

// repeatFrac is the share of cells, in order, whose cache-key inputs
// repeat an earlier cell's.
func repeatFrac(k *keyer, cells []cell) (float64, error) {
	seen := map[inputKey]bool{}
	repeats := 0
	for _, c := range cells {
		ik, err := k.key(c)
		if err != nil {
			return 0, err
		}
		if seen[ik] {
			repeats++
		}
		seen[ik] = true
	}
	return frac(float64(repeats), float64(len(cells))), nil
}
