package dpi

import (
	"bytes"
	"math/bits"
)

// Compiled rule program: each distinct keyword pattern owns one bit in a
// uint64 and a rule compiles to the mask of its patterns' bits, so "all
// keywords present" (Rule.MatchBytes) becomes hits&mask == mask. Matching
// is one bytes.Index (SIMD substring search) per pattern not yet hit, over
// only the new bytes plus the len(p)-1 before them. Streams are
// append-only, so stream-mode hits stay sticky per flow direction: equal
// to a full rescan, yet each byte is searched once per pattern. Cost grows
// with the pattern count; built-in rule sets have at most 5, where a few
// vectorized scans beat a byte-at-a-time automaton walk.
//
// boundary matches across a seam between two byte runs: the proxy's
// MatchEither rules over c2s‖s2c, and a middlebox stream compacted away
// (keepTail keeps its last maxLen-1 bytes) that the flow continues.
//
// Programs are built once per element and shared read-only across
// ForkElement copies. They are deliberately NOT part of Config:
// Network.Fingerprint hashes Config with %+v, and a pointer field would
// hash its address. Rule sets with more than 64 distinct patterns fall
// back to the naive scan (prog == nil).

// ruleProgram is the compiled form of a []Rule.
type ruleProgram struct {
	// patterns are the distinct non-empty keywords; bit i is patterns[i].
	patterns [][]byte
	// ruleMask[i] is the bit-mask of rule i's distinct non-empty keyword
	// patterns; hits&ruleMask[i] == ruleMask[i] ⇔ Rules[i].MatchBytes.
	ruleMask []uint64
	// ruleFamBit[i] caches famBit(Rules[i].Family).
	ruleFamBit []uint8
	allMask    uint64
	maxLen     int // longest pattern
}

// maxProgramPatterns bounds the distinct patterns a program can track.
const maxProgramPatterns = 64

// compileRules builds the program, or returns nil when the rule set
// exceeds the pattern budget (callers then keep the naive scan).
func compileRules(rules []Rule) *ruleProgram {
	if len(rules) == 0 {
		return nil
	}
	bit := make(map[string]uint64)
	pg := &ruleProgram{
		ruleMask:   make([]uint64, len(rules)),
		ruleFamBit: make([]uint8, len(rules)),
	}
	for i := range rules {
		pg.ruleFamBit[i] = famBit(rules[i].Family)
		for _, kw := range rules[i].Keywords {
			if len(kw) == 0 {
				continue // empty pattern matches everything; contributes no bit
			}
			b, ok := bit[string(kw)]
			if !ok {
				if len(pg.patterns) >= maxProgramPatterns {
					return nil
				}
				b = 1 << uint(len(pg.patterns))
				bit[string(kw)] = b
				pg.patterns = append(pg.patterns, kw)
				pg.maxLen = max(pg.maxLen, len(kw))
			}
			pg.ruleMask[i] |= b
			pg.allMask |= b
		}
	}
	return pg
}

// scan ors into hits every pattern that occurs in buf, given that
// buf[:fed] was already scanned into hits: each pattern not yet hit is
// searched for only where it could end in buf[fed:].
func (pg *ruleProgram) scan(buf []byte, fed int, hits uint64) uint64 {
	for miss := pg.allMask &^ hits; miss != 0; miss &= miss - 1 {
		i := bits.TrailingZeros64(miss)
		p := pg.patterns[i]
		if bytes.Index(buf[max(0, fed-len(p)+1):], p) >= 0 {
			hits |= 1 << uint(i)
		}
	}
	return hits
}

// matchOnce scans one isolated payload.
func (pg *ruleProgram) matchOnce(data []byte) uint64 { return pg.scan(data, 0, 0) }

// boundary returns the hits of left‖right's seam window: the last maxLen-1
// bytes of left joined to the first maxLen-1 bytes of right, which holds
// every occurrence that spans the seam.
func (pg *ruleProgram) boundary(left, right []byte) uint64 {
	k := pg.maxLen - 1
	if k == 0 || len(left) == 0 || len(right) == 0 {
		return 0
	}
	var win [128]byte
	seam := append(append(win[:0], left[max(0, len(left)-k):]...), right[:min(len(right), k)]...)
	return pg.matchOnce(seam)
}

// keepTail returns the last maxLen-1 bytes of carry‖s, reusing carry's
// storage: what boundary needs of a history whose stream s is compacted
// away.
func (pg *ruleProgram) keepTail(carry, s []byte) []byte {
	k := pg.maxLen - 1
	if len(s) >= k {
		return append(carry[:0], s[len(s)-k:]...)
	}
	if drop := len(carry) + len(s) - k; drop > 0 {
		carry = carry[:copy(carry, carry[drop:])]
	}
	return append(carry, s...)
}

// gateFamilies is the fixed set of protocol families first-packet gates
// recognize, hoisted so gate evaluation allocates nothing per flow.
var gateFamilies = [...]Family{FamilyHTTP, FamilyTLS, FamilySTUN}

// famBit maps a gate family to its bit in a flow's famBits. Families
// outside the gate set map to 0 (never recognized).
func famBit(f Family) uint8 {
	switch f {
	case FamilyHTTP:
		return 1
	case FamilyTLS:
		return 2
	case FamilySTUN:
		return 4
	}
	return 0
}
