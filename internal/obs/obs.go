// Package obs is the engine's deterministic observability plane: one
// typed event stream plus monotonic counters, threaded through every
// layer (netem links, the dpi classifier, the core phases, campaign
// orchestration) in place of the ad-hoc logs they used to keep.
//
// Three properties are load-bearing:
//
//   - Determinism. Events are keyed by the virtual clock (ns since
//     vclock.Epoch) and, where randomness is involved, by the detrand
//     draw counter — never by wall clock. The same engagement produces
//     the same bytes, always.
//   - Fork safety. A forked Env records into a fork of its recorder;
//     the evaluation join merges the per-fork buffers in canonical
//     suite order, so the merged stream is byte-identical at any
//     worker count.
//   - A free off switch. The default recorder is Nop; call sites gate
//     on Enabled() (or the cached netem.Context.Traced() bool) before
//     building an Event, so disabled recording costs no allocations
//     and at most a bool test on the packet path.
package obs

import "sync"

// Kind is the event taxonomy (DESIGN.md §11). The wire names returned by
// String are the trace schema; they are append-only.
type Kind uint8

// Event kinds, grouped by emitting layer.
const (
	// KindSpanStart / KindSpanEnd bracket a phase or technique span.
	// Actor carries the span name; spans nest and must balance.
	KindSpanStart Kind = iota
	KindSpanEnd
	// Link events (netem): a path element dropped, corrupted, or
	// duplicated a packet, a TTL expired, a Gilbert-Elliott link entered
	// a loss burst, or an in-path reassembler produced a whole datagram.
	KindLinkDrop
	KindLinkCorrupt
	KindLinkDup
	KindLinkBurst
	KindLinkExpire
	KindLinkReassemble
	// DPI events: the classifier matched a rule, classified a flow, took
	// an enforcement action (block, forged injection, throttle delay,
	// blacklist), flushed flow state, or fired a stochastic fault.
	KindDPIMatch
	KindDPIClassify
	KindDPIBlock
	KindDPIInject
	KindDPIThrottle
	KindDPIBlacklist
	KindDPIFlush
	KindDPIFault
	// Core events: one replay round ran, a robust-mode retry fired, or a
	// phase/technique reached a verdict.
	KindReplay
	KindRetry
	KindVerdict
	// Cluster events (distributed campaign plane): a coordinator
	// dispatched or completed a shard, declared a worker dead, or the
	// persistent store answered a lookup. These describe the control
	// plane, not the simulation: they never appear in engagement trace
	// files, and their VNS is always 0 (there is no virtual clock at the
	// process boundary — shard identity travels in Aux instead).
	KindClusterDispatch
	KindClusterComplete
	KindClusterWorkerDeath
	KindStoreHit
	KindStoreMiss
	// Link events (scenario packs): a shaping element held a packet back
	// to reorder it, or a token bucket delayed it to enforce a rate.
	KindLinkReorder
	KindLinkThrottle
	// Cluster events (chaos plane): the coordinator requeued an orphaned
	// shard (with backoff), the frame-chaos harness dropped/delayed/
	// truncated/duplicated a protocol frame, or a worker ran an injected
	// crash or stall. Control-plane like the other cluster.* kinds: VNS
	// is 0 and they never appear in engagement traces.
	KindClusterRequeue
	KindChaosFrameDrop
	KindChaosFrameDelay
	KindChaosFrameTrunc
	KindChaosFrameDup
	KindChaosWorkerCrash
	KindChaosWorkerStall
	// Fingerprint events (phase 0): one ambiguity probe resolved (Actor
	// is the probe ID, Label the observed resolution), or the decision
	// tree identified a profile (Actor "fingerprint", Label the profile
	// name, Value the confidence in PPM, Aux the ruled-out technique
	// count).
	KindFPProbe
	KindFPIdentify

	numKinds
)

var kindNames = [numKinds]string{
	KindSpanStart:      "span.start",
	KindSpanEnd:        "span.end",
	KindLinkDrop:       "link.drop",
	KindLinkCorrupt:    "link.corrupt",
	KindLinkDup:        "link.dup",
	KindLinkBurst:      "link.burst",
	KindLinkExpire:     "link.ttl-expire",
	KindLinkReassemble: "link.reassemble",
	KindDPIMatch:       "dpi.match",
	KindDPIClassify:    "dpi.classify",
	KindDPIBlock:       "dpi.block",
	KindDPIInject:      "dpi.inject",
	KindDPIThrottle:    "dpi.throttle",
	KindDPIBlacklist:   "dpi.blacklist",
	KindDPIFlush:       "dpi.flush",
	KindDPIFault:       "dpi.fault",
	KindReplay:         "core.replay",
	KindRetry:          "core.retry",
	KindVerdict:        "core.verdict",

	KindClusterDispatch:    "cluster.dispatch",
	KindClusterComplete:    "cluster.complete",
	KindClusterWorkerDeath: "cluster.worker-death",
	KindStoreHit:           "cluster.store-hit",
	KindStoreMiss:          "cluster.store-miss",

	KindLinkReorder:  "link.reorder",
	KindLinkThrottle: "link.throttle",

	KindClusterRequeue:   "cluster.requeue",
	KindChaosFrameDrop:   "chaos.frame-drop",
	KindChaosFrameDelay:  "chaos.frame-delay",
	KindChaosFrameTrunc:  "chaos.frame-trunc",
	KindChaosFrameDup:    "chaos.frame-dup",
	KindChaosWorkerCrash: "chaos.crash",
	KindChaosWorkerStall: "chaos.stall",

	KindFPProbe:    "fp.probe",
	KindFPIdentify: "fp.identify",
}

// String returns the stable wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a wire name back to its Kind; ok is false for
// names outside the taxonomy (the schema validator's rejection path).
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one observability record. All fields are deterministic: VNS
// is virtual-clock time, Aux carries a detrand draw position or a trial
// count — never a wall-clock or scheduling-dependent quantity.
type Event struct {
	// VNS is the virtual timestamp, ns since vclock.Epoch.
	VNS int64
	// Kind places the event in the taxonomy.
	Kind Kind
	// Actor is who emitted it: an element label, a phase or technique
	// name, a trace name.
	Actor string
	// Label qualifies the event: a classification class, a drop reason,
	// a verdict outcome.
	Label string
	// Flow is the client-orientation flow key, when the event concerns
	// one flow.
	Flow string
	// Value is the event's magnitude: bytes for replays and injections,
	// delay ns for throttles, a rule index for matches, confidence in
	// parts-per-million for verdicts.
	Value int64
	// Aux is context-dependent: the emitter's detrand draw counter for
	// impairment and fault events, the trial count for verdicts.
	Aux int64
}

// Counter indexes the monotonic counters a recorder accumulates
// alongside the event stream.
type Counter uint8

// Counters, grouped by emitting layer. Indices are append-only.
const (
	CtrDeliveries Counter = iota
	CtrLinkDrops
	CtrLinkCorruptions
	CtrLinkDuplicates
	CtrTTLExpiries
	CtrReassemblies
	CtrRuleMatches
	CtrClassifications
	CtrBlocks
	CtrForgedPackets
	CtrThrottleDelays
	CtrBlacklistAdds
	CtrFlowEvictions
	CtrFaults
	CtrReplays
	CtrRetries
	CtrVerdicts
	CtrSpans
	// Cluster-plane counters: persistent-store outcomes and coordinator
	// scheduling. Like the cluster.* event kinds these are control-plane
	// quantities — scheduling-dependent in multi-process runs, so they
	// feed operator surfaces (liberate-d /v1/stats, stderr observers),
	// never the deterministic Summary.
	CtrStoreHits
	CtrStoreMisses
	CtrStoreEvictions
	CtrStoreWrites
	CtrShardsDispatched
	CtrWorkerDeaths
	// Scheduler counters (the vclock lanes and heap): events fired, and
	// events placed in a FIFO lane rather than the heap (the fast path).
	// Both are pure functions of the schedule sequence, so they are
	// deterministic and worker-count invariant like every other
	// simulation counter. CtrVClockCascades counted events relocated by
	// the timing wheel the lanes replaced; it stays declared for trace
	// and benchmark readers and always reads 0.
	CtrVClockFired
	CtrVClockFastPath
	CtrVClockCascades
	// Scenario-pack shaping counters (deterministic, simulation-plane).
	CtrLinkReorders
	CtrLinkThrottles
	// Chaos-plane counters: shard requeues and injected frame/worker
	// faults. Control-plane quantities like the other cluster counters.
	CtrShardRequeues
	CtrChaosFrameFaults
	CtrChaosWorkerFaults
	// Fingerprint-phase counters (deterministic, simulation-plane):
	// ambiguity probes run, profiles identified, and evaluation-suite
	// techniques pruned on the identified profile's knowledge.
	CtrFPProbes
	CtrFPIdentified
	CtrFPPruned

	NumCounters
)

var counterNames = [NumCounters]string{
	CtrDeliveries:      "deliveries",
	CtrLinkDrops:       "link_drops",
	CtrLinkCorruptions: "link_corruptions",
	CtrLinkDuplicates:  "link_duplicates",
	CtrTTLExpiries:     "ttl_expiries",
	CtrReassemblies:    "reassemblies",
	CtrRuleMatches:     "rule_matches",
	CtrClassifications: "classifications",
	CtrBlocks:          "blocks",
	CtrForgedPackets:   "forged_packets",
	CtrThrottleDelays:  "throttle_delays",
	CtrBlacklistAdds:   "blacklist_adds",
	CtrFlowEvictions:   "flow_evictions",
	CtrFaults:          "faults",
	CtrReplays:         "replays",
	CtrRetries:         "retries",
	CtrVerdicts:        "verdicts",
	CtrSpans:           "spans",

	CtrStoreHits:        "store_hits",
	CtrStoreMisses:      "store_misses",
	CtrStoreEvictions:   "store_evictions",
	CtrStoreWrites:      "store_writes",
	CtrShardsDispatched: "shards_dispatched",
	CtrWorkerDeaths:     "worker_deaths",

	CtrVClockFired:    "vclock_fired",
	CtrVClockFastPath: "vclock_fastpath",
	CtrVClockCascades: "vclock_cascades",

	CtrLinkReorders:  "link_reorders",
	CtrLinkThrottles: "link_throttles",

	CtrShardRequeues:     "shard_requeues",
	CtrChaosFrameFaults:  "chaos_frame_faults",
	CtrChaosWorkerFaults: "chaos_worker_faults",

	CtrFPProbes:     "fp_probes",
	CtrFPIdentified: "fp_identified",
	CtrFPPruned:     "fp_pruned",
}

// String returns the stable wire name of the counter.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// CounterByName resolves a wire name back to its Counter.
func CounterByName(name string) (Counter, bool) {
	for c, n := range counterNames {
		if n == name {
			return Counter(c), true
		}
	}
	return 0, false
}

// Recorder receives the event stream. Implementations must be cheap to
// consult: call sites check Enabled() before building an Event, so a
// disabled recorder's only obligation is returning false quickly.
//
// Recorders are confined to one simulation replica and are NOT required
// to be goroutine-safe; concurrency is handled by forking (each forked
// Env records into its own fork, merged at the join).
type Recorder interface {
	// Enabled reports whether Record/Add do anything. It must be
	// constant for the recorder's lifetime — netem caches it.
	Enabled() bool
	// Record appends one event.
	Record(e Event)
	// Add bumps a monotonic counter.
	Add(c Counter, delta int64)
}

// nop is the zero-cost disabled recorder.
type nop struct{}

func (nop) Enabled() bool      { return false }
func (nop) Record(Event)       {}
func (nop) Add(Counter, int64) {}
func (nop) Fork() Recorder     { return Nop }
func (nop) Merge(Recorder)     {}

// Nop is the default recorder: recording disabled, zero allocations.
var Nop Recorder = nop{}

// Forker is the optional capability a recorder implements to support
// forked simulation replicas: Fork returns a recorder the replica owns
// exclusively, starting from an empty stream.
type Forker interface {
	Fork() Recorder
}

// Merger is the optional capability to absorb a forked child's stream.
type Merger interface {
	Merge(child Recorder)
}

// Fork returns the recorder a forked Env should record into: r.Fork()
// when r supports it, otherwise r itself (correct for Nop and any other
// stateless recorder).
func Fork(r Recorder) Recorder {
	if f, ok := r.(Forker); ok {
		return f.Fork()
	}
	return r
}

// Merge appends child's stream and counters onto parent, in child
// event order. It is the caller's job to invoke Merge in canonical
// (suite) order so the merged stream is schedule-independent. A parent
// without the Merger capability ignores the child.
func Merge(parent, child Recorder) {
	if m, ok := parent.(Merger); ok {
		m.Merge(child)
	}
}

// locked serializes access to a recorder that is not goroutine-safe.
type locked struct {
	mu sync.Mutex
	r  Recorder
}

func (l *locked) Enabled() bool { return l.r.Enabled() }

func (l *locked) Record(e Event) {
	l.mu.Lock()
	l.r.Record(e)
	l.mu.Unlock()
}

func (l *locked) Add(c Counter, delta int64) {
	l.mu.Lock()
	l.r.Add(c, delta)
	l.mu.Unlock()
}

// Locked wraps r so Record and Add are safe from multiple goroutines —
// for control-plane recorders shared across concurrent components (the
// cluster coordinator's worker managers, the liberate-d scheduler),
// where fork/merge replica confinement doesn't apply. Nop passes
// through unwrapped: it is already safe and hot paths consult it
// constantly. Enabled must be constant per the Recorder contract, so it
// is read without the lock.
func Locked(r Recorder) Recorder {
	if r == nil || r == Nop {
		return Nop
	}
	if _, ok := r.(*locked); ok {
		return r
	}
	return &locked{r: r}
}
