package dpi

import (
	"bytes"
	"testing"

	"repro/internal/detrand"
	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/netem/vclock"
)

func newProxyRig() (*rig, *TransparentProxy) {
	proxy := NewTransparentProxy(TransparentProxy{
		Label: "proxy",
		Ports: []uint16{80},
		Rules: []Rule{{
			Class: "video", Family: FamilyHTTP, Dir: MatchEither,
			Keywords: [][]byte{[]byte("GET "), []byte("Content-Type: video")},
			Ports:    []uint16{80},
		}},
		FirstPacketGate: true,
	})
	return newProxyRigWith(proxy), proxy
}

// newProxyRigWith wires the given proxy between two capture endpoints.
func newProxyRigWith(proxy *TransparentProxy) *rig {
	r := &rig{clock: vclock.New()}
	r.env = netem.New(r.clock, cAddr, sAddr)
	r.env.Append(proxy)
	r.env.SetServer(netem.EndpointFunc(func(raw []byte) {
		r.atServer = append(r.atServer, append([]byte(nil), raw...))
	}))
	r.env.SetClient(netem.EndpointFunc(func(raw []byte) {
		r.atClient = append(r.atClient, append([]byte(nil), raw...))
	}))
	return r
}

func serverPayloads(r *rig) []byte {
	var out []byte
	for _, raw := range r.atServer {
		p, _ := packet.Inspect(raw)
		out = append(out, p.Payload...)
	}
	return out
}

func TestProxyNormalizesSegments(t *testing.T) {
	r, _ := newProxyRig()
	f := r.newFlow(40000)
	// Deliberately reordered split of one request.
	f.sendAt(16, "keyword-tail\r\n\r\n")
	f.send("GET /vid HTTP/1.") // exactly 16 bytes, abutting the tail
	r.clock.Run()
	got := serverPayloads(r)
	if !bytes.Contains(got, []byte("GET /vid HTTP/1.")) {
		t.Fatalf("normalized stream missing head: %q", got)
	}
	// The proxy must deliver in order despite reordering.
	if bytes.Index(got, []byte("GET /vid")) > bytes.Index(got, []byte("keyword-tail")) {
		t.Fatalf("proxy did not reorder into stream order: %q", got)
	}
}

func TestProxyOverlapFirstCopyWins(t *testing.T) {
	r, _ := newProxyRig()
	f := r.newFlow(40000)
	// A 17-byte head overlaps a buffered tail at +16 by one byte; the
	// head's copy of the overlapping byte must win and the tail must still
	// drain.
	f.sendAt(16, "Xeyword-tail")
	f.send("GET /vid HTTP/1.Z") // 17 bytes; 'Z' overlaps the tail's 'X'
	r.clock.Run()
	got := serverPayloads(r)
	if !bytes.Contains(got, []byte("GET /vid HTTP/1.Zeyword-tail")) {
		t.Fatalf("overlap handling wrong: %q", got)
	}
}

func TestProxyDropsMalformed(t *testing.T) {
	r, _ := newProxyRig()
	f := r.newFlow(40000)
	bad := packet.NewTCP(cAddr, sAddr, f.sport, 80, f.seq, f.ack, packet.FlagACK|packet.FlagPSH, []byte("INERT"))
	bad.TCP.Checksum ^= 0xdead
	r.env.FromClient(bad.Serialize())
	r.clock.Run()
	if bytes.Contains(serverPayloads(r), []byte("INERT")) {
		t.Fatal("proxy forwarded a wrong-checksum segment")
	}
}

func TestProxyDropsMidstreamFlows(t *testing.T) {
	r, _ := newProxyRig()
	// No SYN seen: a terminating proxy cannot adopt the connection.
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 777, 1, packet.FlagACK|packet.FlagPSH, []byte("GET / HTTP/1.1\r\n"))
	r.env.FromClient(p.Serialize())
	r.clock.Run()
	if len(serverPayloads(r)) != 0 {
		t.Fatal("proxy forwarded midstream data")
	}
}

func TestProxyBypassesOtherPorts(t *testing.T) {
	r, proxy := newProxyRig()
	p := packet.NewTCP(cAddr, sAddr, 40000, 8080, 777, 1, packet.FlagACK|packet.FlagPSH, []byte("GET /vid HTTP/1.1\r\n"))
	r.env.FromClient(p.Serialize())
	r.clock.Run()
	if len(r.atServer) != 1 {
		t.Fatal("non-proxied port did not pass through")
	}
	key := packet.FlowKey{Proto: packet.ProtoTCP, Src: cAddr, Dst: sAddr, SrcPort: 40000, DstPort: 8080}
	if proxy.FlowClass(key) != "" {
		t.Fatal("proxy classified a bypassed port")
	}
}

func TestProxyClassifiesOnResponse(t *testing.T) {
	r, proxy := newProxyRig()
	f := r.newFlow(40000)
	f.send("GET /vid HTTP/1.1\r\nHost: x\r\n\r\n")
	if proxy.FlowClass(f.key()) != "" {
		t.Fatal("classified before the response revealed Content-Type")
	}
	resp := packet.NewTCP(sAddr, cAddr, 80, f.sport, f.serverSeq, f.seq, packet.FlagACK|packet.FlagPSH,
		[]byte("HTTP/1.1 200 OK\r\nContent-Type: video/mp4\r\n\r\n"))
	r.env.FromServer(resp.Serialize())
	r.clock.Run()
	if proxy.FlowClass(f.key()) != "video" {
		t.Fatalf("response-side rule did not fire: %q", proxy.FlowClass(f.key()))
	}
}

// respond sends one server→client payload on the flow.
func (f *flow) respond(payload string) {
	p := packet.NewTCP(sAddr, cAddr, 80, f.sport, f.serverSeq, f.seq, packet.FlagACK|packet.FlagPSH, []byte(payload))
	f.r.env.FromServer(p.Serialize())
	f.serverSeq += uint32(len(payload))
	f.r.clock.Run()
}

// TestProxyCompiledVsNaive runs identical scripts through two AT&T
// proxies — one with the compiled program, one forced onto the naive
// rescan — and asserts identical classification after every packet:
// requests split out of order, responses, keywords planted across the
// c2s‖s2c seam, and quiescence compacting the flow mid-script.
func TestProxyCompiledVsNaive(t *testing.T) {
	cfg := *NewATT().Proxy
	rules := cfg.Rules
	rng := detrand.New(0xa77)
	for trial := 0; trial < 60; trial++ {
		fastProxy := NewTransparentProxy(cfg)
		slowProxy := NewTransparentProxy(cfg)
		slowProxy.prog = nil // force the naive rescan
		fast, slow := newProxyRigWith(fastProxy), newProxyRigWith(slowProxy)
		sport := uint16(42000 + trial)
		ff, fs := fast.newFlow(sport), slow.newFlow(sport)
		nPkts := 1 + rng.Intn(8)
		for pkt := 0; pkt < nPkts; pkt++ {
			payload := differentialPayload(rules, rng, pkt)
			if pkt == 0 && rng.Intn(4) != 0 {
				payload = "GET /v HTTP/1.1\r\n" + payload // pass the HTTP gate
			}
			planted := rng.Intn(3) == 0
			if planted {
				// End the request mid-keyword; the response completes it.
				kw := rules[0].Keywords[rng.Intn(len(rules[0].Keywords))]
				cut := rng.Intn(len(kw) + 1)
				ff.send(payload + string(kw[:cut]))
				fs.send(payload + string(kw[:cut]))
				payload = string(kw[cut:]) + payload
			}
			switch {
			case planted || rng.Intn(3) == 0:
				ff.respond(payload)
				fs.respond(payload)
			case rng.Intn(4) == 0 && len(payload) > 1:
				// The second half lands first, then the first half.
				cut := 1 + rng.Intn(len(payload)-1)
				ff.sendAt(cut, payload[cut:])
				fs.sendAt(cut, payload[cut:])
				ff.send(payload[:cut])
				fs.send(payload[:cut])
				ff.seq += uint32(len(payload) - cut)
				fs.seq += uint32(len(payload) - cut)
			default:
				ff.send(payload)
				fs.send(payload)
			}
			if rng.Intn(6) == 0 {
				fastProxy.Quiesce()
				slowProxy.Quiesce()
			}
			if got, want := fastProxy.FlowClass(ff.key()), slowProxy.FlowClass(fs.key()); got != want {
				t.Fatalf("trial %d pkt %d: compiled class %q != naive class %q (payload %q)",
					trial, pkt, got, want, payload)
			}
		}
	}
}

// TestProxyCompactionRestartsMatching pins the proxy's compaction
// semantics: once Quiesce compacts a flow, classification sees only the
// bytes that arrive afterwards, on the compiled path as on the naive one,
// so keywords seen before the compaction no longer count.
func TestProxyCompactionRestartsMatching(t *testing.T) {
	cfg := *NewATT().Proxy
	for _, compiled := range []bool{true, false} {
		proxy := NewTransparentProxy(cfg)
		if !compiled {
			proxy.prog = nil
		}
		r := newProxyRigWith(proxy)
		f := r.newFlow(40000)
		f.send("GET /v HTTP/1.1\r\nHost: x\r\n\r\n")
		proxy.Quiesce()
		f.respond("Content-Type: video/mp4\r\n\r\n")
		if got := proxy.FlowClass(f.key()); got != "" {
			t.Fatalf("compiled=%v: keywords from before the compaction classified the flow as %q", compiled, got)
		}
	}
}

// FuzzProxyMatchesNaive pins the proxy's incremental matching to the
// naive rescan: arbitrary c2s and s2c bytes arrive interleaved in
// arbitrary chunks (plan bytes pick the direction and size), and after
// every chunk each rule's compiled verdict must equal Rule.MatchBytes
// over the stream its Dir names, c2s‖s2c for MatchEither. The rules are
// every profile's keyword sets under each Dir.
func FuzzProxyMatchesNaive(f *testing.F) {
	f.Add([]byte("GET /v HTTP/1.1\r\nAccept: */*\r\nContent-Ty"), []byte("pe: video/mp4\r\n\r\n"), []byte{0x10, 0x21, 0x7f})
	f.Add([]byte("GET /v HTTP/1.1\r\nHost: cloudfront.ne"), []byte("t\r\n"), []byte{0x00, 0x01})
	f.Add([]byte("xxGE"), []byte("T HTTP/1."), []byte{0x06, 0x03, 0x02})
	f.Add([]byte("facebook.c"), []byte("om"), []byte{0x02})
	f.Add([]byte{}, []byte("Content-Type: video"), []byte{})
	var rules []Rule
	for _, n := range AllNetworks() {
		var set []Rule
		if n.MB != nil {
			set = append(set, n.MB.Cfg.Rules...)
		}
		if n.Proxy != nil {
			set = append(set, n.Proxy.Rules...)
		}
		for _, r := range set {
			for _, d := range []MatchDir{MatchC2S, MatchS2C, MatchEither} {
				rules = append(rules, Rule{Class: r.Class, Dir: d, Keywords: r.Keywords})
			}
		}
	}
	f.Fuzz(func(t *testing.T, c2s, s2c, plan []byte) {
		x := NewTransparentProxy(TransparentProxy{Rules: rules})
		if x.prog == nil {
			t.Fatal("profile keywords exceed the program's pattern budget")
		}
		fl := new(proxyFlow)
		src := [2][]byte{c2s, s2c}
		for step := 0; len(src[0])+len(src[1]) > 0; step++ {
			b := byte(step)
			if len(plan) > 0 {
				b = plan[step%len(plan)]
			}
			di := int(b & 1)
			if len(src[di]) == 0 {
				di = 1 - di
			}
			n := min(1+int(b>>1)%16, len(src[di]))
			fl.stream[di] = append(fl.stream[di], src[di][:n]...)
			src[di] = src[di][n:]
			both := append(append([]byte(nil), fl.stream[0]...), fl.stream[1]...)
			for i := range x.Rules {
				r := &x.Rules[i]
				buf := both
				switch r.Dir {
				case MatchC2S:
					buf = fl.stream[0]
				case MatchS2C:
					buf = fl.stream[1]
				}
				if got, want := x.matches(fl, r, i), r.MatchBytes(buf); got != want {
					t.Fatalf("step %d rule %d (%v %q): compiled=%v naive=%v c2s=%q s2c=%q",
						step, i, r.Dir, r.Keywords, got, want, fl.stream[0], fl.stream[1])
				}
			}
		}
	})
}

func TestStatefulFirewallDropsOutOfWindow(t *testing.T) {
	clock := vclock.New()
	env := netem.New(clock, cAddr, sAddr)
	fw := &StatefulFirewall{Label: "fw", DropOutOfWindow: true}
	env.Append(fw)
	var atServer []*packet.Packet
	env.SetServer(netem.EndpointFunc(func(raw []byte) {
		p, _ := packet.Inspect(raw)
		atServer = append(atServer, p)
	}))
	env.SetClient(netem.EndpointFunc(func([]byte) {}))

	syn := packet.NewTCP(cAddr, sAddr, 40000, 80, 1000, 0, packet.FlagSYN, nil)
	env.FromClient(syn.Serialize())
	ok := packet.NewTCP(cAddr, sAddr, 40000, 80, 1001, 1, packet.FlagACK|packet.FlagPSH, []byte("in-window"))
	env.FromClient(ok.Serialize())
	bad := packet.NewTCP(cAddr, sAddr, 40000, 80, 1001+2_000_000, 1, packet.FlagACK|packet.FlagPSH, []byte("wild-seq"))
	env.FromClient(bad.Serialize())
	clock.Run()
	if len(atServer) != 2 { // SYN + in-window data
		t.Fatalf("server got %d packets, want 2", len(atServer))
	}
	for _, p := range atServer {
		if bytes.Contains(p.Payload, []byte("wild-seq")) {
			t.Fatal("out-of-window segment leaked")
		}
	}
}

func TestStatefulFirewallDropsFragments(t *testing.T) {
	clock := vclock.New()
	env := netem.New(clock, cAddr, sAddr)
	fw := &StatefulFirewall{Label: "fw", DropFragments: true}
	env.Append(fw)
	n := 0
	env.SetServer(netem.EndpointFunc(func([]byte) { n++ }))
	p := packet.NewTCP(cAddr, sAddr, 40000, 80, 1, 0, packet.FlagACK, make([]byte, 600))
	p.IP.ID = 5
	p.Finalize()
	for _, f := range packet.Fragment(p, 2) {
		env.FromClient(f.Serialize())
	}
	clock.Run()
	if n != 0 {
		t.Fatalf("fragments leaked: %d", n)
	}
}

func TestRuleMatching(t *testing.T) {
	r := NewRule("c", FamilyHTTP, MatchC2S, "alpha", "beta")
	if !r.MatchBytes([]byte("xx alpha yy beta zz")) {
		t.Fatal("conjunction failed")
	}
	if r.MatchBytes([]byte("only alpha here")) {
		t.Fatal("partial conjunction matched")
	}
	r.Ports = []uint16{80, 443}
	if !r.AppliesToPort(443) || r.AppliesToPort(8080) {
		t.Fatal("port filter wrong")
	}
}

func TestFamilyRecognition(t *testing.T) {
	cases := []struct {
		fam    Family
		data   string
		full   bool
		viable bool
	}{
		{FamilyHTTP, "GET / HTTP/1.1", true, true},
		{FamilyHTTP, "G", false, true},
		{FamilyHTTP, "XET /", false, false},
		{FamilyTLS, "\x16\x03\x01", true, true},
		{FamilyTLS, "\x16", false, true},
		{FamilyTLS, "\x17\x03", false, false},
		{FamilyAny, "anything", true, true},
	}
	for _, c := range cases {
		if got := RecognizeFamily(c.fam, []byte(c.data)); got != c.full {
			t.Errorf("RecognizeFamily(%s, %q) = %v", c.fam, c.data, got)
		}
		if got := FamilyViable(c.fam, []byte(c.data)); got != c.viable {
			t.Errorf("FamilyViable(%s, %q) = %v", c.fam, c.data, got)
		}
	}
	stun := []byte{0, 1, 0, 0, 0x21, 0x12, 0xa4, 0x42}
	if !RecognizeFamily(FamilySTUN, stun) {
		t.Error("STUN cookie not recognized")
	}
	if RecognizeFamily(FamilySTUN, stun[:6]) {
		t.Error("truncated STUN recognized")
	}
}

func TestProfilesConstruct(t *testing.T) {
	for _, n := range AllNetworks() {
		if n.Env == nil || n.Clock == nil {
			t.Fatalf("%s: incomplete network", n.Name)
		}
		if n.Name != "sprint" && n.Name != "att" && n.MB == nil {
			t.Fatalf("%s: no middlebox", n.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	for _, name := range []string{"testbed", "tmobile", "gfc", "iran", "att", "sprint"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
