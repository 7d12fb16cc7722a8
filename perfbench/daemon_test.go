package main

import (
	"math/rand"
	"testing"
)

// Every segment asks the same kinds of keys: its rounds cover whole
// cycles of fingerprint=1 rounds.
func TestSegmentsHoldTheSameRequests(t *testing.T) {
	for start := 0; start < 3*roundsPerSegment; start += roundsPerSegment {
		fp := 0
		for r := start; r < start+roundsPerSegment; r++ {
			fp += fpRound(r % roundsPerSegment)
		}
		if fp != roundsPerSegment/fpEvery {
			t.Errorf("segment at round %d has %d fingerprint=1 keys, want %d", start, fp, roundsPerSegment/fpEvery)
		}
	}
}

func TestInterleaveBodies(t *testing.T) {
	pool := coldPool(false)
	got := interleaveBodies(rand.New(rand.NewSource(1)), pool)
	if len(got) != len(pool) {
		t.Fatalf("%d cells, want %d", len(got), len(pool))
	}
	seen := map[string]bool{}
	for _, c := range got {
		seen[c.key()] = true
	}
	if len(seen) != len(pool) {
		t.Errorf("%d distinct cells, want %d", len(seen), len(pool))
	}
	// Every full round deals each body size once.
	for i := 0; i+len(coldBodies) <= 7*len(coldBodies); i += len(coldBodies) {
		for j, b := range coldBodies {
			if got[i+j].Body != b {
				t.Fatalf("cell %d has body %d, want %d", i+j, got[i+j].Body, b)
			}
		}
	}
}
