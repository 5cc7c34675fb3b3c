// Package ts provides the timestamps that order write operations in the
// quorum access protocols of Section 3.1: each writer tags every write with
// a value strictly greater than any it used before, and readers select the
// value with the highest timestamp. Stamps carry the writer id so that the
// order is total even across writers (the paper's protocols are
// single-writer; the writer component makes the library safe to extend to
// multiple writers per key, as Section 3.1 suggests via [Lam86, IS92]).
package ts

import (
	"fmt"
	"math"
	"sync"
)

// Stamp is a logical timestamp: a per-writer monotonic counter with the
// writer id breaking ties. The zero Stamp orders before every stamp a
// writer can produce.
type Stamp struct {
	// Counter is the writer-local sequence number, starting at 1.
	Counter uint64
	// Writer identifies the client that produced the stamp.
	Writer uint32
}

// IsZero reports whether s is the zero stamp (no write observed).
func (s Stamp) IsZero() bool { return s.Counter == 0 && s.Writer == 0 }

// Less reports whether s orders strictly before o (lexicographic on
// counter, then writer).
func (s Stamp) Less(o Stamp) bool {
	if s.Counter != o.Counter {
		return s.Counter < o.Counter
	}
	return s.Writer < o.Writer
}

// Compare returns -1, 0 or +1 as s orders before, equal to or after o.
func (s Stamp) Compare(o Stamp) int {
	switch {
	case s.Less(o):
		return -1
	case o.Less(s):
		return 1
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (s Stamp) String() string { return fmt.Sprintf("%d@%d", s.Counter, s.Writer) }

// Clock issues strictly increasing stamps for one writer. The zero value is
// not usable; construct with NewClock. Clock is safe for concurrent use.
//
// Witness ignores a counter above witnessCap (MaxUint64 − 2^32): no honest
// writer reaches one, and adopting it would leave too little headroom before
// the counter wraps to 0, after which every write of this writer would lose
// to its earlier ones. A clock therefore never passes witnessCap by
// witnessing, and has 2^32 Next calls left from there.
type Clock struct {
	mu     sync.Mutex
	writer uint32
	last   uint64
}

// NewClock returns a Clock for the given writer id.
func NewClock(writer uint32) *Clock {
	return &Clock{writer: writer}
}

// Writer returns the writer id the clock stamps with.
func (c *Clock) Writer() uint32 {
	return c.writer
}

// Next returns a stamp strictly greater than every stamp this clock has
// returned or witnessed.
func (c *Clock) Next() Stamp {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.last++
	return Stamp{Counter: c.last, Writer: c.writer}
}

// witnessCap is the highest counter Witness adopts (see Clock).
const witnessCap = math.MaxUint64 - 1<<32

// Witness advances the clock past an observed stamp, so that subsequent
// Next calls dominate it. Required when a writer recovers its state by
// reading, or when extending the protocol to multiple writers. A counter
// above witnessCap is ignored.
func (c *Clock) Witness(s Stamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.Counter > c.last && s.Counter <= witnessCap {
		c.last = s.Counter
	}
}
