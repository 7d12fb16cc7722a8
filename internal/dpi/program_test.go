package dpi

import (
	"testing"

	"repro/internal/detrand"
)

// profileRuleSets gathers every profile's rule set (middlebox and proxy)
// so the differential tests cover exactly the patterns the study runs.
func profileRuleSets(t *testing.T) map[string][]Rule {
	t.Helper()
	sets := make(map[string][]Rule)
	for _, n := range AllNetworks() {
		if n.MB != nil && len(n.MB.Cfg.Rules) > 0 {
			sets[n.Name+"/mb"] = n.MB.Cfg.Rules
		}
		if n.Proxy != nil && len(n.Proxy.Rules) > 0 {
			sets[n.Name+"/proxy"] = n.Proxy.Rules
		}
	}
	if len(sets) < 4 {
		t.Fatalf("expected rule sets from at least 4 profiles, got %d", len(sets))
	}
	return sets
}

// corpus builds a deterministic payload corpus mixing random bytes with
// planted keywords (whole, split across a boundary marker, duplicated,
// prefix-truncated) so both hit and near-miss paths are exercised.
func corpus(rules []Rule, seed int64) [][]byte {
	rng := detrand.New(seed)
	var kws [][]byte
	for _, r := range rules {
		kws = append(kws, r.Keywords...)
	}
	rand := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			// Bias into keyword-ish byte space so partial matches happen.
			if rng.Intn(3) == 0 && len(kws) > 0 {
				kw := kws[rng.Intn(len(kws))]
				if len(kw) > 0 {
					b[i] = kw[rng.Intn(len(kw))]
					continue
				}
			}
			b[i] = byte(rng.Intn(256))
		}
		return b
	}
	var out [][]byte
	out = append(out, nil, []byte{}, rand(1), rand(3), rand(64), rand(1500))
	for _, kw := range kws {
		if len(kw) == 0 {
			continue
		}
		out = append(out,
			kw,                     // exact
			append(rand(8), kw...), // keyword at the end
			append(append([]byte(nil), kw...), rand(8)...), // keyword at the start
			append(append(rand(5), kw...), rand(5)...),     // embedded
			kw[:len(kw)-1], // one byte short
			append(append([]byte(nil), kw[:len(kw)/2+1]...), rand(4)...), // truncated prefix
			append(append(append(rand(3), kw...), kw...), rand(3)...),    // doubled
		)
	}
	// All keywords of one rule concatenated (conjunction satisfied).
	for _, r := range rules {
		var all []byte
		for _, kw := range r.Keywords {
			all = append(all, kw...)
			all = append(all, rand(2)...)
		}
		out = append(out, all)
	}
	return out
}

// TestProgramMatchesNaiveScan verifies, for every profile rule set, that
// the compiled program's hit mask reproduces Rule.MatchBytes exactly on
// a mixed corpus — both via one-shot matching and via incremental scans
// of adversarially small chunks (keywords split across chunk boundaries).
func TestProgramMatchesNaiveScan(t *testing.T) {
	for name, rules := range profileRuleSets(t) {
		t.Run(name, func(t *testing.T) {
			pg := compileRules(rules)
			if pg == nil {
				t.Fatalf("compileRules returned nil for %d rules", len(rules))
			}
			rng := detrand.New(0xd1ff)
			for ci, data := range corpus(rules, 0xc0de) {
				oneShot := pg.matchOnce(data)
				// Incremental: random chunking must agree with one-shot.
				var incr uint64
				for off := 0; off < len(data); {
					n := min(1+rng.Intn(7), len(data)-off)
					incr = pg.scan(data[:off+n], off, incr)
					off += n
				}
				if incr != oneShot {
					t.Fatalf("corpus[%d]: incremental hits %#x != one-shot %#x", ci, incr, oneShot)
				}
				for i := range rules {
					naive := rules[i].MatchBytes(data)
					compiled := oneShot&pg.ruleMask[i] == pg.ruleMask[i]
					if naive != compiled {
						t.Fatalf("corpus[%d] rule %d (%s): naive=%v compiled=%v data=%q",
							ci, i, rules[i].Class, naive, compiled, data)
					}
				}
			}
		})
	}
}

// TestProgramStickyHitsMatchStreamRescan checks the stream-mode contract:
// scanning an append-only stream's new bytes, with hits carried across
// packets, classifies exactly like rescanning the whole stream per packet.
func TestProgramStickyHitsMatchStreamRescan(t *testing.T) {
	for name, rules := range profileRuleSets(t) {
		t.Run(name, func(t *testing.T) {
			pg := compileRules(rules)
			rng := detrand.New(0x57ea)
			for trial := 0; trial < 50; trial++ {
				var stream []byte
				var hits uint64
				for pkt := 0; pkt < 8; pkt++ {
					var chunk []byte
					if rng.Intn(2) == 0 && len(rules) > 0 {
						r := rules[rng.Intn(len(rules))]
						if len(r.Keywords) > 0 {
							kw := r.Keywords[rng.Intn(len(r.Keywords))]
							// Sometimes split the keyword across two appends.
							cut := rng.Intn(len(kw) + 1)
							chunk = append(chunk, kw[:cut]...)
							hits = pg.scan(append(stream, chunk...), len(stream), hits)
							stream = append(stream, chunk...)
							chunk = append([]byte(nil), kw[cut:]...)
						}
					}
					for i := 0; i < rng.Intn(20); i++ {
						chunk = append(chunk, byte(rng.Intn(256)))
					}
					hits = pg.scan(append(stream, chunk...), len(stream), hits)
					stream = append(stream, chunk...)
					for i := range rules {
						naive := rules[i].MatchBytes(stream)
						compiled := hits&pg.ruleMask[i] == pg.ruleMask[i]
						if naive != compiled {
							t.Fatalf("trial %d pkt %d rule %d: naive=%v compiled=%v stream=%q",
								trial, pkt, i, naive, compiled, stream)
						}
					}
				}
			}
		})
	}
}

// TestMiddleboxCompiledVsNaive runs identical packet sequences through two
// rigged middleboxes — one with the compiled program, one forced onto the
// naive scan — across every profile middlebox config, asserting identical
// classification outcomes (including anchor-packet and family-gate
// behavior, and sequence splits for reassembling classifiers).
func TestMiddleboxCompiledVsNaive(t *testing.T) {
	for _, n := range AllNetworks() {
		if n.MB == nil || len(n.MB.Cfg.Rules) == 0 {
			continue
		}
		cfg := n.MB.Cfg
		t.Run(n.Name, func(t *testing.T) {
			rng := detrand.New(0xbeef ^ cfg.Seed)
			for trial := 0; trial < 25; trial++ {
				fast := newRig(cfg)
				slow := newRig(cfg)
				slow.mb.prog = nil // force the naive per-rule scan
				sport := uint16(41000 + trial)
				ff, fs := fast.newFlow(sport), slow.newFlow(sport)
				nPkts := 1 + rng.Intn(5)
				for pkt := 0; pkt < nPkts; pkt++ {
					payload := differentialPayload(cfg.Rules, rng, pkt)
					if rng.Intn(4) == 0 && len(payload) > 1 {
						// Split across two segments: the second half lands
						// first (out of order), then the first half. Both
						// rigs see the identical script, so any per-config
						// drop/reassembly policy applies to both equally.
						cut := 1 + rng.Intn(len(payload)-1)
						ff.sendAt(cut, payload[cut:])
						fs.sendAt(cut, payload[cut:])
						ff.send(payload[:cut])
						fs.send(payload[:cut])
						ff.seq += uint32(len(payload) - cut)
						fs.seq += uint32(len(payload) - cut)
					} else {
						ff.send(payload)
						fs.send(payload)
					}
					got, want := fast.mb.FlowClass(ff.key()), slow.mb.FlowClass(fs.key())
					if got != want {
						t.Fatalf("trial %d pkt %d: compiled class %q != naive class %q (payload %q)",
							trial, pkt, got, want, payload)
					}
				}
			}
		})
	}
}

// differentialPayload builds one deterministic client payload biased
// toward the interesting cases: family-recognizable heads, planted
// keywords (whole and rule conjunctions), near-miss prefixes, and noise.
func differentialPayload(rules []Rule, rng *detrand.Rand, pkt int) string {
	var b []byte
	switch rng.Intn(4) {
	case 0:
		b = append(b, "GET /x HTTP/1.1\r\nHost: h\r\n"...)
	case 1:
		b = append(b, 0x16, 0x03, 0x01, 0x00)
	case 2:
		b = append(b, 'Z') // defeats strict gates
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		if len(rules) == 0 {
			break
		}
		r := rules[rng.Intn(len(rules))]
		for _, kw := range r.Keywords {
			if len(kw) == 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				b = append(b, kw...) // full keyword
			case 1:
				b = append(b, kw[:1+rng.Intn(len(kw))]...) // possible near-miss
			}
			b = append(b, byte('a'+rng.Intn(26)))
		}
	}
	for i := 0; i < rng.Intn(12); i++ {
		b = append(b, byte(rng.Intn(256)))
	}
	if len(b) == 0 {
		b = []byte{byte('p'), byte('0' + pkt%10)}
	}
	return string(b)
}

// FuzzProgramMatchesNaive is the differential fuzz target behind
// TestProgramMatchesNaiveScan: for arbitrary stream bytes and an
// arbitrary chunking, every profile's compiled program must agree with
// the naive per-rule scan, both one-shot and scanned incrementally. The
// same chunking also cuts the bytes into compacted histories: the carry
// keepTail keeps, joined by boundary to the next chunk, must find exactly
// the keywords of the whole. The seed corpus runs on every plain
// `go test` (including CI's -race pass);
// `go test -fuzz FuzzProgramMatchesNaive ./internal/dpi` explores further.
func FuzzProgramMatchesNaive(f *testing.F) {
	f.Add([]byte("GET /video HTTP/1.1\r\nHost: youtube.com\r\n\r\n"), uint8(3))
	f.Add([]byte("\x16\x03\x01netflix.com"), uint8(1))
	f.Add([]byte("host: amazon"), uint8(7))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		step := 1 + int(chunk%7)
		for name, rules := range profileRuleSets(t) {
			pg := compileRules(rules)
			if pg == nil {
				continue
			}
			oneShot := pg.matchOnce(data)
			var incr, compacted uint64
			var carry []byte
			for off := 0; off < len(data); {
				n := min(step, len(data)-off)
				incr = pg.scan(data[:off+n], off, incr)
				chunk := data[off : off+n]
				compacted |= pg.boundary(carry, chunk) | pg.matchOnce(chunk)
				carry = pg.keepTail(carry, chunk)
				off += n
			}
			if incr != oneShot || compacted != oneShot {
				t.Fatalf("%s: incremental hits %#x, compacted %#x != one-shot %#x (step %d, data %q)",
					name, incr, compacted, oneShot, step, data)
			}
			for i := range rules {
				naive := rules[i].MatchBytes(data)
				compiled := oneShot&pg.ruleMask[i] == pg.ruleMask[i]
				if naive != compiled {
					t.Fatalf("%s rule %d (%s): naive=%v compiled=%v data=%q", name, i, rules[i].Class, naive, compiled, data)
				}
			}
		}
	})
}
