package dpi

import (
	"fmt"
	"time"

	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/netem/vclock"
)

// Network is one assembled evaluation environment: a simulated path with a
// classifier somewhere on it. The fields expose ground truth for tests and
// experiment harnesses; lib·erate itself only ever uses client-observable
// signals.
type Network struct {
	Name  string
	Clock *vclock.Clock
	Env   *netem.Env

	// MB is the DPI middlebox (nil for AT&T, which uses Proxy, and for
	// Sprint, which has neither).
	MB *Middlebox
	// Proxy is AT&T's connection-terminating transparent proxy.
	Proxy *TransparentProxy
	// Counter is the subscriber data-usage counter (T-Mobile).
	Counter *UsageCounter

	// MiddleboxHops is the number of TTL-decrementing hops before the
	// classifier — ground truth that lib·erate's localization phase must
	// rediscover.
	MiddleboxHops int
	// TotalHops is the number of TTL-decrementing hops on the whole path.
	TotalHops int

	resets []func()
}

// ClassifiesUDPTraffic reports whether the network's classifier inspects
// UDP at all (only the testbed device did — §6.2, §6.5).
func (n *Network) ClassifiesUDPTraffic() bool {
	return n.MB != nil && n.MB.Cfg.ClassifyUDP
}

// GroundTruthClass returns the classifier's current class for a flow given
// in client orientation ("" = unclassified or no classifier).
func (n *Network) GroundTruthClass(clientKey packet.FlowKey) string {
	switch {
	case n.MB != nil:
		return n.MB.FlowClass(clientKey)
	case n.Proxy != nil:
		return n.Proxy.FlowClass(clientKey)
	}
	return ""
}

// ResetState clears classifier and firewall state between independent
// experiments. Real middleboxes obviously can't be reset; experiments that
// depend on state carry-over (the GFC blacklist) simply don't call this.
func (n *Network) ResetState() {
	if n.MB != nil {
		n.MB.ResetState()
	}
	if n.Proxy != nil {
		n.Proxy.ResetState()
	}
	if n.Counter != nil {
		n.Counter.Reset()
	}
	for _, f := range n.resets {
		f()
	}
}

var (
	// DefaultClientAddr and DefaultServerAddr are the endpoints used by
	// every profile.
	DefaultClientAddr = packet.AddrFrom("10.0.0.2")
	DefaultServerAddr = packet.AddrFrom("203.0.113.10")
)

func hopAddr(i int) packet.Addr {
	return packet.AddrFrom(fmt.Sprintf("10.9.%d.1", i))
}

func addHops(env *netem.Env, from, n int) {
	for i := 0; i < n; i++ {
		env.Append(&netem.Hop{Label: fmt.Sprintf("hop%d", from+i), Addr: hopAddr(from + i), EmitICMP: true})
	}
}

// videoRules are the content rules shared by the video-management
// profiles.
func videoRules() []Rule {
	return []Rule{
		NewRule("video", FamilyHTTP, MatchC2S, "cloudfront.net"),
		NewRule("video", FamilyHTTP, MatchC2S, "espn"),
		NewRule("video", FamilyTLS, MatchC2S, ".googlevideo.com"),
		NewRule("audio", FamilyHTTP, MatchC2S, "spotify"),
	}
}

// NewTestbed builds the carrier-grade DPI testbed of §6.1: a loosely
// validating, window-limited (5 packets), non-reassembling,
// match-and-forget classifier with a 120 s idle timeout shortened to 10 s
// by RSTs, fronted and backed by simple routers. The downstream router
// drops grossly malformed IP packets and ACK-less TCP segments, and
// fragments are reassembled before the server — both behaviours Table 3
// records for the testbed path.
func NewTestbed() *Network {
	clock := vclock.New()
	env := netem.New(clock, DefaultClientAddr, DefaultServerAddr)

	skype := Rule{
		Class: "voip", Family: FamilySTUN, Dir: MatchC2S,
		Keywords:     [][]byte{{0x80, 0x55}},
		AnchorPacket: 0, // MS-SERVICE-QUALITY in the first client packet
	}
	cfg := Config{
		Name:  "testbed-dpi",
		Rules: append(videoRules(), skype),
		Mode:  InspectWindow, WindowPackets: 5,
		Reassembly:      ReassembleNone,
		FirstPacketGate: true,
		GateStrict:      true,
		ValidatedDefects: packet.SetOf(
			packet.DefectTruncated,
			packet.DefectIPVersion,
			packet.DefectIPHeaderLength,
			packet.DefectIPTotalLengthShort,
			packet.DefectTCPDataOffset,
		),
		RequireSYN:           true,
		ClassifyUDP:          true,
		ParseWrongProtoAsTCP: true,
		MatchAndForget:       true,
		FlowTimeout:          120 * time.Second,
		RST:                  RSTShortensTimeout,
		RSTTimeout:           10 * time.Second,
		Seed:                 1,
		Policies: map[string]Policy{
			"video": {ThrottleBps: 2e6, ThrottleBurst: 32 << 10},
			"audio": {ThrottleBps: 2e6, ThrottleBurst: 32 << 10},
			"voip":  {ThrottleBps: 2e6, ThrottleBurst: 32 << 10},
		},
	}
	mb := NewMiddlebox(cfg)

	addHops(env, 1, 1)
	env.Append(mb)
	env.Append(&netem.Hop{Label: "hop2", Addr: hopAddr(2), EmitICMP: true,
		DropDefects: packet.SetOf(
			packet.DefectIPVersion,
			packet.DefectIPHeaderLength,
			packet.DefectIPTotalLengthLong,
			packet.DefectIPTotalLengthShort,
			packet.DefectIPChecksum,
			packet.DefectTCPNoACK,
		)})
	env.Append(&netem.PathReassembler{Label: "tb-reasm"})
	env.Append(&netem.Pipe{Label: "tb-link", RateBps: 50e6})

	return &Network{Name: "testbed", Clock: clock, Env: env, MB: mb, MiddleboxHops: 1, TotalHops: 2}
}

// NewTMobile builds the T-Mobile Binge On / Music Freedom model of §6.2:
// Host/SNI keyword rules, arrival-order reassembly gated on the first
// payload packet's protocol signature, a 5-packet window, sequence
// tracking, zero-rating plus 1.5 Mbps video shaping, immediate flush on
// RST, no idle flush within experiment horizons, no UDP classification,
// and a strict cellular firewall between classifier and Internet.
func NewTMobile() *Network {
	clock := vclock.New()
	env := netem.New(clock, DefaultClientAddr, DefaultServerAddr)

	validated := packet.AllDefects()
	for _, d := range []packet.Defect{packet.DefectIPOptionInvalid, packet.DefectIPOptionDeprecated} {
		validated &^= packet.SetOf(d)
	}
	cfg := Config{
		Name:  "tmus-bingeon",
		Rules: videoRules(),
		Mode:  InspectWindow, WindowPackets: 5,
		Reassembly:          ReassembleArrival,
		FirstPacketGate:     true,
		ValidatedDefects:    validated,
		TrackSeq:            true,
		RequireSYN:          true,
		ReassembleFragments: true, // Table 3 note 2: fragments are handled
		MatchAndForget:      true,
		RST:                 RSTKillsFlow,
		Seed:                2,
		Policies: map[string]Policy{
			"video": {ThrottleBps: 1.5e6, ThrottleBurst: 32 << 10, ZeroRate: true},
			"audio": {ZeroRate: true},
		},
	}
	mb := NewMiddlebox(cfg)
	counter := &UsageCounter{Label: "tmus-counter", MB: mb, Clock: clock, BackgroundBps: 18e3, JitterBytes: 6 << 10, Seed: 7}
	fw := &StatefulFirewall{
		Label:           "tmus-fw",
		DropDefects:     packet.AllDefects() &^ packet.SetOf(packet.DefectIPProtocol),
		DropOutOfWindow: true,
	}

	env.Append(counter)
	addHops(env, 1, 2)
	env.Append(mb)
	env.Append(&netem.PathReassembler{Label: "tmus-reasm"})
	env.Append(fw)
	env.Append(&netem.Pipe{Label: "tmus-link", RateBps: 11.2e6})
	env.Append(&netem.Hop{Label: "hop3", Addr: hopAddr(3), EmitICMP: true})

	n := &Network{Name: "tmobile", Clock: clock, Env: env, MB: mb, Counter: counter, MiddleboxHops: 2, TotalHops: 3}
	n.resets = append(n.resets, fw.Reset)
	return n
}

// NewGFC builds the Great Firewall of China model of §6.5: extensive
// packet validation, sequence-correct stream reassembly, keyword blocking
// (GET + economist.com) enforced with 3–5 injected RSTs, server:port
// blacklisting after two classified flows, load-dependent state eviction
// (Figure 4), RSTs killing only unclassified flow state, no UDP
// classification, and an in-path device that corrects TCP checksums.
func NewGFC() *Network {
	clock := vclock.New()
	env := netem.New(clock, DefaultClientAddr, DefaultServerAddr)

	load := GFCLoad()
	cfg := Config{
		Name:            "gfc",
		Rules:           []Rule{NewRule("blocked", FamilyHTTP, MatchC2S, "GET", "economist.com")},
		Mode:            InspectAllPackets,
		Reassembly:      ReassembleSeq,
		FirstPacketGate: true,
		ValidatedDefects: packet.SetOf(
			packet.DefectTruncated,
			packet.DefectIPVersion,
			packet.DefectIPHeaderLength,
			packet.DefectIPTotalLengthLong,
			packet.DefectIPTotalLengthShort,
			packet.DefectIPProtocol,
			packet.DefectIPChecksum,
			packet.DefectIPOptionInvalid,
			packet.DefectIPOptionDeprecated,
			packet.DefectTCPDataOffset,
			packet.DefectTCPFlagCombo,
		),
		TrackSeq:            true,
		RequireSYN:          true,
		ReassembleFragments: true,
		MatchAndForget:      true,
		RST:                 RSTKillsUnclassifiedOnly,
		Load:                &load,
		Seed:                3,
		Policies: map[string]Policy{
			"blocked": {Block: true, BlockRSTs: 3, BlacklistAfter: 2, BlacklistFor: 180 * time.Second},
		},
	}
	mb := NewMiddlebox(cfg)

	addHops(env, 1, 9)
	env.Append(mb)
	env.Append(&netem.Filter{Label: "cn-filter", DropDefects: packet.SetOf(
		packet.DefectIPVersion,
		packet.DefectIPHeaderLength,
		packet.DefectIPTotalLengthLong,
		packet.DefectIPTotalLengthShort,
		packet.DefectIPChecksum,
		packet.DefectIPOptionInvalid,
		packet.DefectIPOptionDeprecated,
		packet.DefectUDPLengthLong,
		packet.DefectUDPLengthShort,
	)})
	env.Append(&netem.TCPChecksumFixer{Label: "cn-nat"})
	env.Append(&netem.PathReassembler{Label: "cn-reasm"})
	env.Append(&netem.Pipe{Label: "cn-link", RateBps: 20e6})
	addHops(env, 10, 3)

	return &Network{Name: "gfc", Clock: clock, Env: env, MB: mb, MiddleboxHops: 9, TotalHops: 12}
}

// NewIran builds the Iranian censor model of §6.6: a stateless per-packet
// keyword matcher restricted to port 80, injecting a 403 block page plus
// two RSTs, behind a strict stateful firewall that also drops IP
// fragments. Because every packet is inspected independently, inert
// packets carrying blocked content cause misclassification (Table 3
// note 3), and splitting a keyword across segments evades entirely.
func NewIran() *Network {
	clock := vclock.New()
	env := netem.New(clock, DefaultClientAddr, DefaultServerAddr)

	blocked := NewRule("blocked", FamilyAny, MatchC2S, "facebook.com")
	blocked.Ports = []uint16{80}
	cfg := Config{
		Name:  "iran-censor",
		Rules: []Rule{blocked},
		Mode:  InspectPerPacket,
		ValidatedDefects: packet.SetOf(
			packet.DefectTruncated,
			packet.DefectIPVersion,
			packet.DefectIPHeaderLength,
			packet.DefectIPTotalLengthLong,
			packet.DefectIPTotalLengthShort,
			packet.DefectIPProtocol,
			packet.DefectIPChecksum,
		),
		PortFilter: []uint16{80},
		Seed:       4,
		Policies: map[string]Policy{
			"blocked": {Block: true, BlockRSTs: 2, BlockPage403: true},
		},
	}
	mb := NewMiddlebox(cfg)
	fw := &StatefulFirewall{
		Label: "ir-fw",
		DropDefects: packet.AllDefects() &^ packet.SetOf(
			packet.DefectUDPChecksum,
			packet.DefectUDPLengthLong,
			packet.DefectUDPLengthShort,
		),
		DropOutOfWindow: true,
		DropFragments:   true,
	}

	addHops(env, 1, 7)
	env.Append(mb)
	env.Append(fw)
	env.Append(&netem.Pipe{Label: "ir-link", RateBps: 10e6})
	addHops(env, 8, 3)

	n := &Network{Name: "iran", Clock: clock, Env: env, MB: mb, MiddleboxHops: 7, TotalHops: 10}
	n.resets = append(n.resets, fw.Reset)
	return n
}

// NewATT builds the AT&T Stream Saver model of §6.3: a transparent,
// connection-terminating HTTP proxy on port 80 that classifies on the
// reassembled request plus the response Content-Type and throttles video
// to 1.5 Mbps. Traffic on any other port bypasses it.
func NewATT() *Network {
	clock := vclock.New()
	env := netem.New(clock, DefaultClientAddr, DefaultServerAddr)

	videoRule := Rule{
		Class: "video", Family: FamilyHTTP, Dir: MatchEither,
		Keywords: [][]byte{[]byte("GET "), []byte("HTTP/1.1"), []byte("Content-Type: video")},
		Ports:    []uint16{80},
	}
	proxy := NewTransparentProxy(TransparentProxy{
		Label:           "att-streamsaver",
		Ports:           []uint16{80},
		Rules:           []Rule{videoRule},
		FirstPacketGate: true,
		ThrottleBps:     1.5e6,
		ThrottleBurst:   32 << 10,
	})

	addHops(env, 1, 2)
	env.Append(proxy)
	env.Append(&netem.Filter{Label: "att-filter", DropDefects: packet.AllDefects()})
	env.Append(&netem.Pipe{Label: "att-link", RateBps: 12e6})
	env.Append(&netem.Hop{Label: "hop3", Addr: hopAddr(3), EmitICMP: true})

	return &Network{Name: "att", Clock: clock, Env: env, Proxy: proxy, MiddleboxHops: 2, TotalHops: 3}
}

// NewSprint builds the Sprint model of §6.4: no DPI, no header-space
// differentiation — the study's null result.
func NewSprint() *Network {
	clock := vclock.New()
	env := netem.New(clock, DefaultClientAddr, DefaultServerAddr)
	addHops(env, 1, 2)
	env.Append(&netem.Pipe{Label: "sprint-link", RateBps: 15e6})
	env.Append(&netem.Hop{Label: "hop3", Addr: hopAddr(3), EmitICMP: true})
	return &Network{Name: "sprint", Clock: clock, Env: env, MiddleboxHops: -1, TotalHops: 3}
}

// NewBaseline builds a clean path with no classifier and no filters — used
// to measure endpoint-OS responses to malformed packets in isolation (the
// rightmost columns of Table 3).
func NewBaseline() *Network {
	clock := vclock.New()
	env := netem.New(clock, DefaultClientAddr, DefaultServerAddr)
	addHops(env, 1, 2)
	env.Append(&netem.Pipe{Label: "base-link", RateBps: 50e6})
	return &Network{Name: "baseline", Clock: clock, Env: env, MiddleboxHops: -1, TotalHops: 2}
}

// AllNetworks builds one of each evaluated environment, in paper order.
func AllNetworks() []*Network {
	return []*Network{NewTestbed(), NewTMobile(), NewGFC(), NewIran(), NewATT(), NewSprint()}
}

// ByName builds the named network profile.
func ByName(name string) (*Network, error) {
	switch name {
	case "testbed":
		return NewTestbed(), nil
	case "tmobile":
		return NewTMobile(), nil
	case "gfc":
		return NewGFC(), nil
	case "iran":
		return NewIran(), nil
	case "att":
		return NewATT(), nil
	case "sprint":
		return NewSprint(), nil
	}
	return nil, fmt.Errorf("dpi: unknown network profile %q", name)
}
