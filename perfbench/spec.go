package main

import (
	"fmt"
	"sort"
	"strings"
)

// endToEnd and perLayer are the metric names and units of BENCHMARK.json.
// Every run reports exactly one of the two lists.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"ok_frac", "frac"},
	{"max_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"op_cpu_ms_p50", "ms"},
	{"rounds_per_eng", "count"},
	{"replay_mb_per_eng", "MB"},
}

var perLayer = [][2]string{
	{"core.detect.cpu_ms", "ms"},
	{"core.characterize.cpu_ms", "ms"},
	{"core.evaluate.cpu_ms", "ms"},
	{"core.detect.rounds", "count"},
	{"core.characterize.rounds", "count"},
	{"core.evaluate.rounds", "count"},
	{"core.evaluate.tried", "count"},
	{"core.evaluate.working_frac", "frac"},
	{"core.evaluate.pruned", "count"},
	{"core.retries", "count"},
	{"core.fingerprint.cpu_ms", "ms"},
	{"replay.replays", "count"},
	{"replay.us_per_round", "us"},
	{"vclock.fired", "count"},
	{"vclock.fastpath_frac", "frac"},
	{"vclock.cascades", "count"},
	{"vclock.ns_per_event", "ns"},
	{"netem.deliveries", "count"},
	{"netem.ns_per_delivery", "ns"},
	{"netem.link_drops", "count"},
	{"netem.link_reorders", "count"},
	{"netem.link_throttles", "count"},
	{"packet.reassemblies", "count"},
	{"dpi.rule_matches", "count"},
	{"dpi.classifications", "count"},
	{"dpi.forged_packets", "count"},
	{"dpi.throttle_delays", "count"},
	{"dpi.faults", "count"},
	{"campaign.eng_ms_p50", "ms"},
	{"campaign.store.hit_frac", "frac"},
	{"campaign.store.writes", "count"},
	{"campaign.store.evictions", "count"},
	{"campaign.repeat_frac", "frac"},
	{"cluster.daemon.answer_ms_p50", "ms"},
	{"cluster.daemon.answer_ms_p99", "ms"},
	{"cluster.daemon.cold_ready_ms_p50", "ms"},
	{"cluster.daemon.completed", "count"},
	{"cluster.daemon.rejected", "count"},
	{"cluster.daemon.cold_not_ready", "count"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cpu_frac", "frac"},
	{"cpu.vclock.frac", "frac"},
	{"cpu.netem.frac", "frac"},
	{"cpu.packet.frac", "frac"},
	{"cpu.stack.frac", "frac"},
	{"cpu.dpi.frac", "frac"},
	{"cpu.trace.frac", "frac"},
	{"cpu.replay.frac", "frac"},
	{"cpu.core.frac", "frac"},
	{"cpu.campaign.frac", "frac"},
	{"cpu.cluster.frac", "frac"},
	{"cpu.runtime.frac", "frac"},
	{"obs.overhead_frac", "frac"},
}

// checkNames fails unless out holds exactly the metrics its mode
// promises, each in its declared unit.
func checkNames(out metrics, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	var problems []string
	seen := map[string]bool{}
	for _, nu := range want {
		seen[nu[0]] = true
		got, ok := out[nu[0]]
		switch {
		case !ok:
			problems = append(problems, "missing "+nu[0])
		case got.Unit != nu[1]:
			problems = append(problems, fmt.Sprintf("%s in %s, want %s", nu[0], got.Unit, nu[1]))
		}
	}
	for n := range out {
		if !seen[n] {
			problems = append(problems, "undeclared "+n)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metric set: %s", strings.Join(problems, ", "))
	}
	return nil
}
