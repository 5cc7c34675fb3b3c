// Package quorum is in the deterministic scope: its sampling must be
// seed-derived.
package quorum

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func sample() float64 {
	return rand.Float64() // want "math/rand.Float64 draws from the process-global source"
}

func sampleSeeded(r *rand.Rand) float64 {
	return r.Float64()
}

// newRand is the one place a stream may be built, so building one here is
// no finding.
func newRand(seed int64, key [32]byte) (*rand.Rand, *randv2.ChaCha8) {
	c := randv2.NewChaCha8(key)
	c.Seed(key)
	return rand.New(rand.NewSource(seed)), c
}

// wallSeeded is still a finding here: a stream seeded from the wall clock
// does not replay.
func wallSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "math/rand.NewSource seeded from the wall clock"
}
