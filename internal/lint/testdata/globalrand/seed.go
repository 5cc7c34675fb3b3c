// Package fixture is the module root (in scope: the real module root
// constructs the diffusion RNG). oldDiffusionRNG reproduces the exact
// pre-PR-6 tcp.go pattern: gossip peer selection seeded from the wall
// clock, unreplayable by construction.
package fixture

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func oldDiffusionRNG() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "math/rand.NewSource seeded from the wall clock"
}

func globalDraw(n int) int {
	return rand.Intn(n) // want "math/rand.Intn draws from the process-global source"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "math/rand.Shuffle draws from the process-global source"
}

// seeded builds its own source from configuration: replayable, but a
// stream whose independence from the others rests on how its seed was made.
func seeded(seed int64, n int) int {
	return rand.New(rand.NewSource(seed)).Intn(n) // want "math/rand.NewSource builds a stream outside internal/quorum: use quorum.NewRand"
}

// keyed builds and keys v2's generators by hand, which is the same thing.
func keyed(key [32]byte) *randv2.ChaCha8 {
	_ = randv2.NewPCG(1, 2)     // want "math/rand/v2.NewPCG builds a stream outside internal/quorum"
	c := randv2.NewChaCha8(key) // want "math/rand/v2.NewChaCha8 builds a stream outside internal/quorum"
	c.Seed(key)                 // want "math/rand/v2.ChaCha8.Seed keys a stream by hand: use quorum.NewRand"
	return c
}
