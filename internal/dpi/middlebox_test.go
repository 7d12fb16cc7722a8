package dpi

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/netem/vclock"
	"repro/internal/obs"
)

var (
	cAddr = packet.AddrFrom("10.0.0.2")
	sAddr = packet.AddrFrom("203.0.113.10")
)

// rig wires a bare middlebox between two capture endpoints.
type rig struct {
	clock *vclock.Clock
	env   *netem.Env
	mb    *Middlebox

	atServer [][]byte
	atClient [][]byte
}

func newRig(cfg Config) *rig {
	r := &rig{clock: vclock.New()}
	r.env = netem.New(r.clock, cAddr, sAddr)
	r.mb = NewMiddlebox(cfg)
	r.env.Append(r.mb)
	r.env.SetServer(netem.EndpointFunc(func(raw []byte) {
		r.atServer = append(r.atServer, append([]byte(nil), raw...))
	}))
	r.env.SetClient(netem.EndpointFunc(func(raw []byte) {
		r.atClient = append(r.atClient, append([]byte(nil), raw...))
	}))
	return r
}

// flow drives a scripted TCP flow through the rig: handshake, then the
// given payloads (client→server), with optional gaps.
type flow struct {
	r         *rig
	sport     uint16
	seq, ack  uint32
	serverSeq uint32
}

func (r *rig) newFlow(sport uint16) *flow {
	f := &flow{r: r, sport: sport, seq: 1000, serverSeq: 50000}
	// SYN / SYN-ACK / ACK through the middlebox.
	syn := packet.NewTCP(cAddr, sAddr, sport, 80, f.seq, 0, packet.FlagSYN, nil)
	r.env.FromClient(syn.Serialize())
	f.seq++
	synack := packet.NewTCP(sAddr, cAddr, 80, sport, f.serverSeq, f.seq, packet.FlagSYN|packet.FlagACK, nil)
	r.env.FromServer(synack.Serialize())
	f.serverSeq++
	f.ack = f.serverSeq
	ack := packet.NewTCP(cAddr, sAddr, sport, 80, f.seq, f.ack, packet.FlagACK, nil)
	r.env.FromClient(ack.Serialize())
	r.clock.Run()
	return f
}

func (f *flow) send(payload string) {
	p := packet.NewTCP(cAddr, sAddr, f.sport, 80, f.seq, f.ack, packet.FlagACK|packet.FlagPSH, []byte(payload))
	f.r.env.FromClient(p.Serialize())
	f.seq += uint32(len(payload))
	f.r.clock.Run()
}

func (f *flow) sendAt(seqOff int, payload string) {
	p := packet.NewTCP(cAddr, sAddr, f.sport, 80, uint32(int(f.seq)+seqOff), f.ack, packet.FlagACK|packet.FlagPSH, []byte(payload))
	f.r.env.FromClient(p.Serialize())
	f.r.clock.Run()
}

func (f *flow) rst() {
	p := packet.NewTCP(cAddr, sAddr, f.sport, 80, f.seq, f.ack, packet.FlagRST|packet.FlagACK, nil)
	f.r.env.FromClient(p.Serialize())
	f.r.clock.Run()
}

func (f *flow) key() packet.FlowKey {
	return packet.FlowKey{Proto: packet.ProtoTCP, Src: cAddr, Dst: sAddr, SrcPort: f.sport, DstPort: 80}
}

func windowCfg() Config {
	return Config{
		Name:  "test",
		Rules: []Rule{NewRule("hit", FamilyHTTP, MatchC2S, "secret-keyword")},
		Mode:  InspectWindow, WindowPackets: 3,
		Reassembly:      ReassembleNone,
		FirstPacketGate: true,
		GateStrict:      true,
		RequireSYN:      true,
		MatchAndForget:  true,
		Seed:            1,
	}
}

func TestWindowLimitedInspection(t *testing.T) {
	r := newRig(windowCfg())
	f := r.newFlow(40000)
	f.send("GET /a HTTP/1.1\r\n")
	f.send("filler-one")
	f.send("filler-two")
	f.send("secret-keyword beyond the window")
	if got := r.mb.FlowClass(f.key()); got != "" {
		t.Fatalf("keyword beyond window classified: %q", got)
	}

	f2 := r.newFlow(40001)
	f2.send("GET /a secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f2.key()); got != "hit" {
		t.Fatalf("keyword in window not classified: %q", got)
	}
}

func TestGateStrictRejectsPartialPrefix(t *testing.T) {
	r := newRig(windowCfg())
	f := r.newFlow(40000)
	f.send("G") // only a prefix of "GET "
	f.send("ET /a secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f.key()); got != "" {
		t.Fatalf("strict gate passed a 1-byte first packet: %q", got)
	}
}

func TestGateViableAcceptsPartialPrefix(t *testing.T) {
	cfg := windowCfg()
	cfg.GateStrict = false
	cfg.Reassembly = ReassembleArrival
	r := newRig(cfg)
	f := r.newFlow(40000)
	f.send("G")
	f.send("ET /a secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f.key()); got != "hit" {
		t.Fatalf("viable gate rejected a 1-byte GET prefix: %q", got)
	}
}

func TestPerPacketMatcherIgnoresWindow(t *testing.T) {
	cfg := windowCfg()
	cfg.Mode = InspectPerPacket
	cfg.Rules = []Rule{NewRule("hit", FamilyAny, MatchC2S, "secret-keyword")}
	cfg.Policies = map[string]Policy{"hit": {Block: true, BlockRSTs: 2}}
	r := newRig(cfg)
	f := r.newFlow(40000)
	for i := 0; i < 20; i++ {
		f.send("filler filler filler")
	}
	if len(r.atClient) > 3 { // handshake SYN-ACK + ACKs don't come back here
		t.Fatalf("premature block: %d packets to client", len(r.atClient))
	}
	before := len(r.atClient)
	f.send("here is the secret-keyword now")
	if len(r.atClient) <= before {
		t.Fatal("per-packet matcher missed a late keyword")
	}
}

func TestArrivalOrderReassemblyScrambledByReordering(t *testing.T) {
	cfg := windowCfg()
	cfg.GateStrict = false
	cfg.Reassembly = ReassembleArrival
	cfg.TrackSeq = true
	r := newRig(cfg)
	f := r.newFlow(40000)
	// Send the tail first (in-window future segment), then the head.
	f.sendAt(16, "secret-keyword\r\n")
	f.send("GET /a HTTP/1.1+") // 16 bytes
	if got := r.mb.FlowClass(f.key()); got != "" {
		t.Fatalf("arrival-order classifier reassembled reordered segments: %q", got)
	}
}

func TestSeqReassemblyImmuneToReordering(t *testing.T) {
	cfg := windowCfg()
	cfg.Mode = InspectAllPackets
	cfg.Reassembly = ReassembleSeq
	cfg.TrackSeq = true
	r := newRig(cfg)
	f := r.newFlow(40000)
	f.sendAt(16, "secret-keyword\r\n")
	f.send("GET /a HTTP/1.1+")
	if got := r.mb.FlowClass(f.key()); got != "hit" {
		t.Fatalf("seq-reassembling classifier defeated by reordering: %q", got)
	}
}

func TestSeqTrackingIgnoresOutOfWindow(t *testing.T) {
	cfg := windowCfg()
	cfg.Mode = InspectAllPackets
	cfg.Reassembly = ReassembleSeq
	cfg.TrackSeq = true
	r := newRig(cfg)
	f := r.newFlow(40000)
	// Out-of-window packet carrying the keyword: invisible.
	f.sendAt(1_000_000, "GET / secret-keyword HTTP/1.1\r\n")
	f.send("GET /clean HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f.key()); got != "" {
		t.Fatalf("out-of-window content classified: %q", got)
	}
}

func TestFirstWinsSeqShadowing(t *testing.T) {
	// The GFC-style desync: a dummy at the expected seq claims the range;
	// the real content retransmitted at the same seq is ignored.
	cfg := windowCfg()
	cfg.Mode = InspectAllPackets
	cfg.Reassembly = ReassembleSeq
	cfg.TrackSeq = true
	r := newRig(cfg)
	f := r.newFlow(40000)
	dummy := make([]byte, 31)
	for i := range dummy {
		dummy[i] = 0x80 | byte(i)
	}
	f.sendAt(0, string(dummy))
	f.send("GET / secret-keyword HTTP/1.1\r") // same 31-byte range
	if got := r.mb.FlowClass(f.key()); got != "" {
		t.Fatalf("first-wins reassembly let the retransmission match: %q", got)
	}
}

func TestValidatedDefectsIgnored(t *testing.T) {
	cfg := windowCfg()
	cfg.ValidatedDefects = packet.SetOf(packet.DefectTCPChecksum)
	r := newRig(cfg)
	f := r.newFlow(40000)
	// A wrong-checksum packet carrying dummy bytes: ignored by this
	// classifier, so the real GET (same seq) is still inspected and
	// matches.
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, f.seq, f.ack, packet.FlagACK|packet.FlagPSH, []byte("ZZZZZZZZZZ"))
	p.TCP.Checksum ^= 0x1111
	r.env.FromClient(p.Serialize())
	r.clock.Run()
	f.send("GET / secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f.key()); got != "hit" {
		t.Fatalf("validating classifier was poisoned anyway: %q", got)
	}

	// Without validation the same dummy poisons the gate.
	cfg2 := windowCfg()
	r2 := newRig(cfg2)
	f2 := r2.newFlow(40000)
	p2 := packet.NewTCP(cAddr, sAddr, 40000, 80, f2.seq, f2.ack, packet.FlagACK|packet.FlagPSH, []byte("ZZZZZZZZZZ"))
	p2.TCP.Checksum ^= 0x1111
	r2.env.FromClient(p2.Serialize())
	r2.clock.Run()
	f2.send("GET / secret-keyword HTTP/1.1\r\n")
	if got := r2.mb.FlowClass(f2.key()); got != "" {
		t.Fatalf("non-validating classifier not poisoned: %q", got)
	}
}

func TestFlowTimeoutEviction(t *testing.T) {
	cfg := windowCfg()
	cfg.FlowTimeout = 120 * time.Second
	r := newRig(cfg)
	f := r.newFlow(40000)
	f.send("GET / secret-keyword HTTP/1.1\r\n")
	if r.mb.FlowClass(f.key()) != "hit" {
		t.Fatal("not classified")
	}
	r.clock.RunFor(121 * time.Second)
	f.send("more data")
	if got := r.mb.FlowClass(f.key()); got != "" {
		t.Fatalf("classification survived the idle timeout: %q", got)
	}
}

func TestRequireSYNBlocksMidstream(t *testing.T) {
	cfg := windowCfg()
	r := newRig(cfg)
	// No handshake at all: a midstream data packet with matching content.
	p := packet.NewTCP(cAddr, sAddr, 40002, 80, 5000, 1, packet.FlagACK|packet.FlagPSH, []byte("GET / secret-keyword HTTP/1.1\r\n"))
	r.env.FromClient(p.Serialize())
	r.clock.Run()
	key := packet.FlowKey{Proto: packet.ProtoTCP, Src: cAddr, Dst: sAddr, SrcPort: 40002, DstPort: 80}
	if got := r.mb.FlowClass(key); got != "" {
		t.Fatalf("midstream flow classified despite RequireSYN: %q", got)
	}
}

func TestRSTBehaviors(t *testing.T) {
	base := func() Config {
		c := windowCfg()
		c.FlowTimeout = 0
		return c
	}
	t.Run("kills-flow", func(t *testing.T) {
		cfg := base()
		cfg.RST = RSTKillsFlow
		r := newRig(cfg)
		f := r.newFlow(40000)
		f.send("GET / secret-keyword HTTP/1.1\r\n")
		if r.mb.FlowClass(f.key()) != "hit" {
			t.Fatal("setup: not classified")
		}
		f.rst()
		if got := r.mb.FlowClass(f.key()); got != "" {
			t.Fatalf("classification survived RST: %q", got)
		}
	})
	t.Run("shortens-timeout", func(t *testing.T) {
		cfg := base()
		cfg.RST = RSTShortensTimeout
		cfg.RSTTimeout = 10 * time.Second
		r := newRig(cfg)
		f := r.newFlow(40000)
		f.send("GET / secret-keyword HTTP/1.1\r\n")
		f.rst()
		if r.mb.FlowClass(f.key()) != "hit" {
			t.Fatal("RST flushed immediately; should only shorten the timeout")
		}
		r.clock.RunFor(11 * time.Second)
		f.send("x")
		if got := r.mb.FlowClass(f.key()); got != "" {
			t.Fatalf("shortened timeout did not evict: %q", got)
		}
	})
	t.Run("kills-unclassified-only", func(t *testing.T) {
		cfg := base()
		cfg.RST = RSTKillsUnclassifiedOnly
		r := newRig(cfg)
		f := r.newFlow(40000)
		f.send("GET / secret-keyword HTTP/1.1\r\n")
		f.rst()
		if r.mb.FlowClass(f.key()) != "hit" {
			t.Fatal("classified state should survive RST (GFC behaviour)")
		}
		// Fresh flow: RST before match kills matching.
		f2 := r.newFlow(40001)
		f2.rst()
		f2.send("GET / secret-keyword HTTP/1.1\r\n")
		if got := r.mb.FlowClass(f2.key()); got != "" {
			t.Fatalf("dead flow still matched: %q", got)
		}
	})
}

func TestBlacklistAfterN(t *testing.T) {
	cfg := windowCfg()
	cfg.Policies = map[string]Policy{"hit": {
		Block: true, BlockRSTs: 3, BlacklistAfter: 2, BlacklistFor: 60 * time.Second,
	}}
	r := newRig(cfg)
	for i := 0; i < 2; i++ {
		f := r.newFlow(uint16(40000 + i))
		f.send("GET / secret-keyword HTTP/1.1\r\n")
	}
	// Now ALL traffic to the server:port is blocked, even clean flows.
	serverBefore := len(r.atServer)
	f := r.newFlow(40010)
	f.send("GET /totally-clean HTTP/1.1\r\n")
	if len(r.atServer) > serverBefore+3 { // handshake passes? blacklist drops everything
		t.Fatalf("blacklisted server still receiving data: %d→%d", serverBefore, len(r.atServer))
	}
	// After expiry traffic flows again.
	r.clock.RunFor(61 * time.Second)
	f2 := r.newFlow(40011)
	serverBefore = len(r.atServer)
	f2.send("GET /clean-after-expiry HTTP/1.1\r\n")
	if len(r.atServer) <= serverBefore {
		t.Fatal("blacklist did not expire")
	}
}

func TestThrottlePolicyShapes(t *testing.T) {
	cfg := windowCfg()
	cfg.Policies = map[string]Policy{"hit": {ThrottleBps: 1e6, ThrottleBurst: 4 << 10}}
	r := newRig(cfg)
	f := r.newFlow(40000)
	f.send("GET / secret-keyword HTTP/1.1\r\n")
	// Pump 100 KB server→client through the classified flow.
	payload := make([]byte, 1400)
	start := r.clock.Now()
	for i := 0; i < 70; i++ {
		p := packet.NewTCP(sAddr, cAddr, 80, f.sport, f.serverSeq, f.seq, packet.FlagACK, payload)
		f.serverSeq += 1400
		r.env.FromServer(p.Serialize())
	}
	r.clock.Run()
	elapsed := r.clock.Since(start).Seconds()
	rate := float64(70*1400*8) / elapsed
	if rate > 1.4e6 {
		t.Fatalf("shaper leaking: %.0f bps", rate)
	}
}

func TestLoadModelEvictsByHour(t *testing.T) {
	lm := GFCLoad()
	busy := lm.MinIdle(21)
	quiet := lm.MinIdle(6)
	if busy >= quiet {
		t.Fatalf("busy threshold %v should be below quiet %v", busy, quiet)
	}
	if quiet <= 240*time.Second {
		t.Fatalf("quiet threshold %v should exceed the paper's 240 s sweep cap", quiet)
	}
	if p := lm.EvictProb(21, busy/2); p != 0 {
		t.Fatalf("eviction below threshold: p=%v", p)
	}
	if p := lm.EvictProb(21, 3*busy); p < 0.9 {
		t.Fatalf("long idle at busy hour should almost surely evict: p=%v", p)
	}
}

func TestWrongProtoReinterpretation(t *testing.T) {
	cfg := windowCfg()
	cfg.ParseWrongProtoAsTCP = true
	r := newRig(cfg)
	f := r.newFlow(40000)
	// An unknown-protocol packet whose body is a valid TCP segment with
	// dummy bytes poisons the flow's gate.
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, f.seq, f.ack, packet.FlagACK|packet.FlagPSH, []byte("\x80ZZZZZZ"))
	p.IP.Protocol = 143
	raw := p.Serialize()
	r.env.FromClient(raw)
	r.clock.Run()
	f.send("GET / secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f.key()); got != "" {
		t.Fatalf("wrong-proto packet did not poison: %q", got)
	}
}

func TestZeroRatePolicyAndCounter(t *testing.T) {
	clock := vclock.New()
	env := netem.New(clock, cAddr, sAddr)
	cfg := windowCfg()
	cfg.Policies = map[string]Policy{"hit": {ZeroRate: true}}
	mb := NewMiddlebox(cfg)
	counter := &UsageCounter{Label: "ctr", MB: mb, Clock: clock}
	env.Append(counter)
	env.Append(mb)
	env.SetServer(netem.EndpointFunc(func([]byte) {}))
	env.SetClient(netem.EndpointFunc(func([]byte) {}))

	r := &rig{clock: clock, env: env, mb: mb}
	f := r.newFlow(40000)
	f.send("GET / secret-keyword HTTP/1.1\r\n")
	if !mb.IsZeroRated(f.key()) {
		t.Fatal("classified flow not zero-rated")
	}
	before := counter.TrueBytes()
	f.send("lots of zero-rated body bytes here..........")
	if counter.TrueBytes() != before {
		t.Fatalf("zero-rated bytes counted: %d → %d", before, counter.TrueBytes())
	}
	// A different, unclassified flow counts.
	f2 := r.newFlow(41000)
	before = counter.TrueBytes()
	f2.send("unclassified bytes")
	if counter.TrueBytes() == before {
		t.Fatal("unclassified bytes not counted")
	}
}

func TestClassificationEventsRecorded(t *testing.T) {
	r := newRig(windowCfg())
	buf := obs.NewBuffer()
	r.env.SetRecorder(buf)
	f := r.newFlow(40000)
	f.send("GET / secret-keyword HTTP/1.1\r\n")

	var match, classify []obs.Event
	for _, e := range buf.Events() {
		switch e.Kind {
		case obs.KindDPIMatch:
			match = append(match, e)
		case obs.KindDPIClassify:
			classify = append(classify, e)
		}
	}
	if len(classify) != 1 {
		t.Fatalf("classify events: %+v", classify)
	}
	e := classify[0]
	if e.Label != "hit" || e.Actor != "test" || e.Flow != f.key().String() {
		t.Fatalf("classify event fields: %+v", e)
	}
	if len(match) != 1 || match[0].Value != 0 {
		t.Fatalf("match events (want one, rule index 0): %+v", match)
	}
	ctr := buf.CounterMap()
	if ctr[obs.CtrClassifications.String()] != 1 || ctr[obs.CtrRuleMatches.String()] != 1 {
		t.Fatalf("counters: %v", ctr)
	}
	if ctr[obs.CtrDeliveries.String()] == 0 {
		t.Fatal("env delivery counter never incremented")
	}
}

func TestNoEventsWithoutRecorder(t *testing.T) {
	// The default (no SetRecorder call) must classify identically and
	// record nothing anywhere — obs.Nop swallows all emission.
	r := newRig(windowCfg())
	f := r.newFlow(40000)
	f.send("GET / secret-keyword HTTP/1.1\r\n")
	if got := r.mb.FlowClass(f.key()); got != "hit" {
		t.Fatalf("untraced rig did not classify: %q", got)
	}
}

// TestKeywordSplitAcrossQuiesceMatches pins the stream-mode verdict across
// compaction: Quiesce empties a UDP flow's stream, but the flow goes on,
// and a keyword split across one or two compactions still classifies it,
// as the sticky scan state promises.
func TestKeywordSplitAcrossQuiesceMatches(t *testing.T) {
	for _, parts := range [][]string{
		{"xx split-", "keyword yy"},
		{"xx spl", "it-k", "eyword"},
		{"s", "p", "lit-keyword"},
		{"xxxx split-keywor", "d"},
	} {
		r := newRig(Config{
			Name:        "test",
			Rules:       []Rule{NewRule("hit", FamilyAny, MatchC2S, "split-keyword")},
			Mode:        InspectAllPackets,
			Reassembly:  ReassembleArrival,
			ClassifyUDP: true,
			Seed:        1,
		})
		key := packet.FlowKey{Proto: packet.ProtoUDP, Src: cAddr, Dst: sAddr, SrcPort: 40000, DstPort: 3478}
		for i, part := range parts {
			if i > 0 {
				r.mb.Quiesce()
			}
			if got := r.mb.FlowClass(key); got != "" {
				t.Fatalf("%q: classified %q before the keyword completed", parts, got)
			}
			r.env.FromClient(packet.NewUDP(cAddr, sAddr, 40000, 3478, []byte(part)).Serialize())
			r.clock.Run()
		}
		if got := r.mb.FlowClass(key); got != "hit" {
			t.Fatalf("%q: keyword split across Quiesce gave class %q, want hit", parts, got)
		}
	}
}
