package quorum

import (
	"encoding/binary"
	"math/rand"
	randv2 "math/rand/v2"
)

// Stream names what a seeded stream is for, so a harness passes its run
// seed through unchanged and tells its streams apart by kind and index.
type Stream uint8

// The stream kinds. StreamCrashes is the last: TestStreamsFollowTheLaw
// covers the kinds up to it.
const (
	StreamClient     Stream = iota // a register client's quorum sampler
	StreamArrival                  // a simulated client's arrival process
	StreamCell                     // one cell's sampler in a multi-cell client
	StreamDiffusion                // a diffusion engine's peer choice
	StreamSigningKey               // the entropy a writer's signing key is made from
	StreamPicks                    // a measurement that only samples quorums
	StreamCrashes                  // a measurement that draws crash patterns
)

// NewRand returns the stream (seed, kind, index), the one seeded generator:
// math/rand/v2's ChaCha8 keyed by the seed in bytes 0–7 of its 32-byte key,
// the kind in byte 8 and the index in bytes 16–23, so distinct (seed, kind,
// index) are distinct keys, and independent streams, by construction. It
// sits behind the math/rand Source64 the samplers take, one 320 B
// allocation where math/rand's own source is a 5 KB table.
func NewRand(seed int64, kind Stream, index uint64) *rand.Rand {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[0:], uint64(seed))
	key[8] = byte(kind)
	binary.LittleEndian.PutUint64(key[16:], index)
	src := new(chacha8)
	src.ChaCha8.Seed(key)
	return rand.New(src)
}

// chacha8 adapts ChaCha8 to math/rand's Source64.
type chacha8 struct{ randv2.ChaCha8 }

func (c *chacha8) Int63() int64 { return int64(c.Uint64() >> 1) }

// Seed is never called: a stream is keyed once, by NewRand.
func (c *chacha8) Seed(int64) { panic("quorum: a NewRand stream cannot be re-seeded") }
