package dpi

import (
	"sync"
	"time"

	"repro/internal/netem"
	"repro/internal/netem/packet"
	"repro/internal/obs"
)

// TransparentProxy models AT&T Stream Saver (§6.3): a connection-
// terminating transparent HTTP proxy on port 80. It validates and
// normalizes everything — reassembling each direction's byte stream and
// re-emitting it as clean, in-order segments — so no packet-level evasion
// technique survives it. Classification runs over the reassembled streams
// (request keywords plus the response Content-Type), and classified flows
// are throttled. Traffic to any other port bypasses it entirely, which is
// why simply changing the server port evades Stream Saver.
type TransparentProxy struct {
	Label string
	// Ports the proxy intercepts (AT&T: 80 only).
	Ports []uint16
	// Rules are evaluated over the reassembled streams.
	Rules []Rule
	// FirstPacketGate requires the client stream to open with a recognized
	// protocol before rules fire (why server-assisted dummy-prepending
	// evades even AT&T).
	FirstPacketGate bool
	// ThrottleBps shapes the response direction of classified flows.
	ThrottleBps   float64
	ThrottleBurst int

	prog  *ruleProgram // compiled Rules (nil = naive scan), shared by forks
	flows map[packet.FlowKey]*proxyFlow
	// bufFree holds stream buffers reclaimed from cleanly closed flows
	// (compactFlow) for reuse by new flows on this proxy instance. Local,
	// never shared with forks.
	bufFree [][]byte
}

type proxyFlow struct {
	class       string
	gateChecked bool
	famBits     uint8 // recognized gate families (famBit bits)
	// Per direction (0 = c2s, 1 = s2c) stream state.
	exp       [2]uint32
	expValid  [2]bool
	fin       [2]bool
	forwarded [2]uint32 // stream offset already re-emitted
	ooo       [2]map[uint32][]byte
	stream    [2][]byte
	kwHits    [2]uint64 // sticky compiled-program hits
	fed       [2]int    // stream bytes scanned into kwHits
	shaper    *shaper
}

// NewTransparentProxy returns a proxy configured as x, rules compiled.
func NewTransparentProxy(x TransparentProxy) *TransparentProxy {
	x.prog = compileRules(x.Rules)
	return &x
}

// Name implements netem.Element.
func (x *TransparentProxy) Name() string { return x.Label }

// Intercepts reports whether the proxy terminates flows to this port.
func (x *TransparentProxy) Intercepts(port uint16) bool {
	for _, p := range x.Ports {
		if p == port {
			return true
		}
	}
	return false
}

// FlowClass exposes classification ground truth.
func (x *TransparentProxy) FlowClass(clientKey packet.FlowKey) string {
	ck, _ := clientKey.Canonical()
	if f, ok := x.flows[ck]; ok {
		return f.class
	}
	return ""
}

// ResetState clears per-flow state.
func (x *TransparentProxy) ResetState() { x.flows = nil }

// ForkElement implements netem.Forkable: per-flow reassembly buffers,
// classification, forwarding offsets, and shaper positions are deep-copied.
// Ports, Rules and the compiled program are shared read-only configuration.
func (x *TransparentProxy) ForkElement() netem.Element {
	c := *x
	c.bufFree = nil // never share the reclaimed-buffer free list
	if x.flows != nil {
		c.flows = make(map[packet.FlowKey]*proxyFlow, len(x.flows))
		for k, f := range x.flows {
			c.flows[k] = f.clone()
		}
	}
	return &c
}

// proxyFlowPool recycles proxied-flow records (with their grown stream
// buffers) across proxy instances, mirroring mbFlowPool:
// single-trial forks deep-copy every live flow, and reassembled streams
// are the bulk of fork cost.
var proxyFlowPool = sync.Pool{New: func() any { return new(proxyFlow) }}

// clearProxyFlow resets a flow record for reuse, keeping stream capacity;
// out-of-order maps are dropped.
func clearProxyFlow(f *proxyFlow) {
	s0, s1 := f.stream[0][:0], f.stream[1][:0]
	*f = proxyFlow{}
	f.stream[0], f.stream[1] = s0, s1
}

// Release returns all flow records to the process-wide pool. Legal only
// once the proxy is dead: its trial finished and every result derived
// from it has been read.
func (x *TransparentProxy) Release() {
	for _, f := range x.flows {
		clearProxyFlow(f)
		proxyFlowPool.Put(f)
	}
	clear(x.flows)
}

// clone deep-copies one proxied flow into a pooled record, reusing the
// recycled record's stream capacity.
func (f *proxyFlow) clone() *proxyFlow {
	c := proxyFlowPool.Get().(*proxyFlow)
	s0, s1 := c.stream[0][:0], c.stream[1][:0]
	*c = *f
	c.stream[0] = append(s0, f.stream[0]...)
	c.stream[1] = append(s1, f.stream[1]...)
	for di := 0; di < 2; di++ {
		if f.ooo[di] != nil {
			c.ooo[di] = make(map[uint32][]byte, len(f.ooo[di]))
			for seq, data := range f.ooo[di] {
				c.ooo[di][seq] = append([]byte(nil), data...)
			}
		}
	}
	if f.shaper != nil {
		sh := *f.shaper
		c.shaper = &sh
	}
	return c
}

// Process implements netem.Element.
func (x *TransparentProxy) Process(ctx netem.Context, dir netem.Direction, fr *packet.Frame) {
	p, defects := fr.Parse()
	if p.TCP == nil {
		// Non-TCP traffic is not proxied.
		if defects.Empty() {
			ctx.Forward(fr)
		}
		return
	}
	serverPort := p.TCP.DstPort
	if dir == netem.ToClient {
		serverPort = p.TCP.SrcPort
	}
	if !x.Intercepts(serverPort) {
		ctx.Forward(fr)
		return
	}
	// A terminating proxy accepts nothing malformed.
	if !defects.Empty() {
		return
	}
	if x.flows == nil {
		x.flows = make(map[packet.FlowKey]*proxyFlow)
	}
	key := p.Flow()
	if dir == netem.ToClient {
		key = key.Reverse()
	}
	ck, _ := p.CanonicalFlow()
	f := x.flows[ck]
	t := p.TCP

	if t.Flags.Has(packet.FlagSYN) && !t.Flags.Has(packet.FlagACK) {
		f = proxyFlowPool.Get().(*proxyFlow)
		for di := 0; di < 2; di++ {
			if n := len(x.bufFree); f.stream[di] == nil && n > 0 {
				f.stream[di] = x.bufFree[n-1]
				x.bufFree[n-1] = nil
				x.bufFree = x.bufFree[:n-1]
			}
		}
		f.exp[0] = t.Seq + 1
		f.expValid[0] = true
		x.flows[ck] = f
		ctx.Forward(fr)
		return
	}
	if f == nil {
		// Mid-stream traffic the proxy has no state for is dropped: a
		// terminating proxy cannot adopt a connection it never saw open.
		return
	}
	di := 0
	if dir == netem.ToClient {
		di = 1
	}
	if t.Flags.Has(packet.FlagSYN) && t.Flags.Has(packet.FlagACK) {
		f.exp[1] = t.Seq + 1
		f.expValid[1] = true
		ctx.Forward(fr)
		return
	}
	if t.Flags.Has(packet.FlagRST) {
		ctx.Forward(fr)
		return
	}

	if len(p.Payload) > 0 {
		x.ingest(f, di, t.Seq, p.Payload)
		x.classifyStreams(ctx, f, key, serverPort)
		x.drain(ctx, dir, f, di, p)
	}
	if t.Flags.Has(packet.FlagFIN) {
		f.fin[di] = true
	}
	if len(p.Payload) == 0 || t.Flags.Has(packet.FlagFIN) {
		// Pure ACKs and FINs pass through once their sequence numbers are
		// consistent with the normalized stream position.
		if t.Seq == f.exp[di] || len(p.Payload) == 0 {
			ctx.Forward(fr)
		}
	}
	if f.fin[0] && f.fin[1] &&
		f.forwarded[0] == uint32(len(f.stream[0])) && f.forwarded[1] == uint32(len(f.stream[1])) {
		x.compactFlow(f)
	}
}

// Quiesce implements netem.Quiescer: with nothing in flight every flow
// is dead, so all reassembly state compacts away. Classification stays —
// FlowClass keeps answering for past flows — and the parent's flow map
// staying compact is what keeps ForkElement cheap for trial replicas.
func (x *TransparentProxy) Quiesce() {
	for _, f := range x.flows {
		x.compactFlow(f)
	}
}

// compactFlow retires a cleanly closed flow's reassembly state, parking
// its stream buffers on the proxy's local free list. The record stays in
// the flow map so classification ground truth (FlowClass) remains
// queryable, but later forks no longer deep-copy dead connection
// history — fork cost tracks open flows, not every flow ever proxied.
func (x *TransparentProxy) compactFlow(f *proxyFlow) {
	for di := 0; di < 2; di++ {
		if c := f.stream[di]; cap(c) > 0 {
			x.bufFree = append(x.bufFree, c[:0])
		}
		f.stream[di] = nil
		f.ooo[di] = nil
		f.forwarded[di] = 0
		f.kwHits[di] = 0
		f.fed[di] = 0
	}
	f.shaper = nil
}

// ingest adds payload to the direction's reassembly, first copy wins.
func (x *TransparentProxy) ingest(f *proxyFlow, di int, seq uint32, payload []byte) {
	if !f.expValid[di] {
		f.exp[di] = seq
		f.expValid[di] = true
	}
	const win = 1 << 17
	switch {
	case seq == f.exp[di]:
		f.stream[di] = append(f.stream[di], payload...)
		f.exp[di] += uint32(len(payload))
	case seq-f.exp[di] < win:
		if f.ooo[di] == nil {
			f.ooo[di] = make(map[uint32][]byte)
		}
		if _, dup := f.ooo[di][seq]; !dup {
			f.ooo[di][seq] = append([]byte(nil), payload...)
		}
	case f.exp[di]-seq < win && seq+uint32(len(payload))-f.exp[di] < win && seq+uint32(len(payload)) != f.exp[di]:
		tail := payload[f.exp[di]-seq:]
		f.stream[di] = append(f.stream[di], tail...)
		f.exp[di] += uint32(len(tail))
	default:
		return
	}
	drainOOO(f.ooo[di], &f.stream[di], &f.exp[di], 0)
}

// drainOOO integrates buffered out-of-order segments into the contiguous
// stream, including segments that partially overlap the head (their new
// tail is kept, matching first-copy-wins semantics). cap_ of 0 means no
// stream cap.
func drainOOO(ooo map[uint32][]byte, stream *[]byte, exp *uint32, cap_ int) {
	for {
		if next, ok := ooo[*exp]; ok {
			delete(ooo, *exp)
			*stream = appendMaybeCapped(*stream, next, cap_)
			*exp += uint32(len(next))
			continue
		}
		// Look for a buffered segment overlapping the head from the left.
		found := false
		for seq, data := range ooo {
			if *exp-seq < 1<<17 && seq+uint32(len(data))-*exp < 1<<17 && seq+uint32(len(data)) != *exp {
				tail := data[*exp-seq:]
				delete(ooo, seq)
				*stream = appendMaybeCapped(*stream, tail, cap_)
				*exp += uint32(len(tail))
				found = true
				break
			}
		}
		if !found {
			return
		}
	}
}

func appendMaybeCapped(buf, data []byte, cap_ int) []byte {
	buf = append(buf, data...)
	if cap_ > 0 && len(buf) > cap_ {
		buf = buf[:cap_]
	}
	return buf
}

func (x *TransparentProxy) classifyStreams(ctx netem.Context, f *proxyFlow, key packet.FlowKey, serverPort uint16) {
	if f.class != "" {
		return
	}
	if !f.gateChecked && len(f.stream[0]) >= 4 {
		f.gateChecked = true
		for _, fam := range gateFamilies {
			if RecognizeFamily(fam, f.stream[0]) {
				f.famBits |= famBit(fam)
			}
		}
	}
	for i := range x.Rules {
		r := &x.Rules[i]
		if !r.AppliesToPort(serverPort) || len(r.Keywords) == 0 {
			continue
		}
		if x.FirstPacketGate && r.Family != FamilyAny && f.famBits&famBit(r.Family) == 0 {
			continue
		}
		if x.matches(f, r, i) {
			f.class = r.Class
			if ctx.Traced() {
				rec := ctx.Rec()
				rec.Record(obs.Event{VNS: ctx.VNS(), Kind: obs.KindDPIMatch, Actor: x.Label,
					Label: r.Class, Flow: key.String(), Value: int64(i)})
				rec.Add(obs.CtrRuleMatches, 1)
				rec.Record(obs.Event{VNS: ctx.VNS(), Kind: obs.KindDPIClassify, Actor: x.Label,
					Label: r.Class, Flow: key.String(), Value: int64(i)})
				rec.Add(obs.CtrClassifications, 1)
			}
			break
		}
	}
}

// matches reports whether rule i's keywords all occur in the stream its
// Dir names, MatchEither meaning c2s‖s2c. The compiled path scans only
// bytes gained since the last scan, so a flow no rule passes the gates
// for is never scanned and a later scan catches up exactly; MatchEither
// adds the window around the seam where c2s currently ends.
func (x *TransparentProxy) matches(f *proxyFlow, r *Rule, i int) bool {
	pg := x.prog
	if pg == nil {
		buf := f.stream[0]
		switch r.Dir {
		case MatchS2C:
			buf = f.stream[1]
		case MatchEither:
			buf = append(buf[:len(buf):len(buf)], f.stream[1]...)
		}
		return r.MatchBytes(buf)
	}
	for di, s := range f.stream {
		if len(s) > f.fed[di] {
			f.kwHits[di] = pg.scan(s, f.fed[di], f.kwHits[di])
			f.fed[di] = len(s)
		}
	}
	mask, hits := pg.ruleMask[i], f.kwHits[0]
	switch r.Dir {
	case MatchS2C:
		hits = f.kwHits[1]
	case MatchEither:
		if hits |= f.kwHits[1]; hits&mask != mask {
			hits |= pg.boundary(f.stream[0], f.stream[1])
		}
	}
	return hits&mask == mask
}

// drain re-emits newly contiguous stream bytes as clean MTU segments with
// regenerated headers — the proxy's own packets, not the client's.
func (x *TransparentProxy) drain(ctx netem.Context, dir netem.Direction, f *proxyFlow, di int, tmpl *packet.Packet) {
	start := f.forwarded[di]
	// Stream offsets are relative to the initial sequence number exp was
	// seeded with; forwarded tracks how many stream bytes went out.
	avail := uint32(len(f.stream[di]))
	if start >= avail {
		return
	}
	base := f.exp[di] - avail // sequence number of stream[0]
	var delay time.Duration
	if f.class != "" && x.ThrottleBps > 0 && di == 1 {
		if f.shaper == nil {
			f.shaper = newShaper(x.ThrottleBps, x.ThrottleBurst)
		}
	}
	for off := start; off < avail; {
		end := off + MSSu32
		if end > avail {
			end = avail
		}
		chunk := f.stream[di][off:end]
		seg := ctx.Arena().NewTCP(tmpl.IP.Src, tmpl.IP.Dst, tmpl.TCP.SrcPort, tmpl.TCP.DstPort,
			base+off, tmpl.TCP.Ack, packet.FlagACK|packet.FlagPSH, chunk)
		out := ctx.FrameOf(seg)
		if f.shaper != nil && di == 1 {
			delay = f.shaper.delay(ctx.Now(), out.Len())
		}
		if delay > 0 {
			if ctx.Traced() {
				rec := ctx.Rec()
				rec.Record(obs.Event{VNS: ctx.VNS(), Kind: obs.KindDPIThrottle, Actor: x.Label,
					Label: f.class, Value: int64(delay)})
				rec.Add(obs.CtrThrottleDelays, 1)
			}
			ctx.ForwardAfter(delay, out)
		} else {
			ctx.Forward(out)
		}
		off = end
	}
	f.forwarded[di] = avail
}

// MSSu32 is the proxy's re-segmentation size.
const MSSu32 = uint32(packet.MTU - 40)
