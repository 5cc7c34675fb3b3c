package register

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/ring"
	"pqs/internal/transport"
)

// ViewKey is the reserved register key under which a multi-cell deployment
// stores its encoded ring.View. It lives in cell 0 — routing to it never
// depends on the view itself, so every client can bootstrap or refresh its
// ring from a fixed location — and diffusion spreads it replica-to-replica
// within that cell like any other entry.
const ViewKey = "\x00pqs/ring-view"

// Client is the public face of the package: a router over one or more
// per-cell gather engines. With Options.Cells <= 1 it wraps a single cell
// over servers [0, n) and behaves exactly as the classic client did; with
// Options.Cells = C it partitions the keyspace by consistent hashing
// (internal/ring) across C independent cells, cell i owning servers
// [i*n, (i+1)*n) of the transport, each with its own strategy instance,
// ε budget and stats.
//
// The routing decision — key → cell — is the ONLY identity-dependent step:
// once a key is routed, the cell's dispatch, hedging, spare promotion and
// drain are identity-blind exactly as before (mechanized by the epsblind
// analyzer), so the paper's ε analysis applies to each cell independently
// and the deployment's ε is the max over cells of their per-cell ε.
type Client struct {
	cells []*cell
	// n is the per-cell universe size (System.N()); global server id of
	// cell i's local server s is i*n + s.
	n int
	// clock mirrors the engines' vtime clock for RetryingClient.backoff.
	clock clockShim

	// mu guards ring and view; Read/Write take the read lock only on the
	// multi-cell path.
	mu   sync.RWMutex
	ring *ring.Ring
	view ring.View
}

// clockShim is the subset of vtime.Clock the router itself needs.
type clockShim interface {
	SleepCtx(ctx context.Context, d time.Duration) error
}

// NewClient validates opts and returns a client. With Cells > 1 the
// option set is instantiated once per cell: each cell gets the transport
// offset to its slice of the server universe and a private rng derived
// from Options.Rand (so multi-cell runs stay deterministic under a fixed
// seed), while the write Clock is shared (ts.Clock is concurrency safe and
// per-writer monotonic across all cells).
func NewClient(opts Options) (*Client, error) {
	if opts.Cells < 0 {
		return nil, fmt.Errorf("register: Cells %d must be non-negative", opts.Cells)
	}
	if opts.Cells <= 1 {
		// Single-cell fast path: hand the engine the caller's options
		// verbatim (same rng, same transport) so existing deployments,
		// seeds and replayable histories are bit-for-bit unchanged.
		eng, err := newCell(opts)
		if err != nil {
			return nil, err
		}
		return &Client{cells: []*cell{eng}, n: opts.System.N(), clock: eng.clock}, nil
	}
	if opts.System == nil {
		return nil, errors.New("register: Options.System is required")
	}
	if opts.Rand == nil {
		return nil, errors.New("register: Options.Rand is required")
	}
	n := opts.System.N()
	c := &Client{cells: make([]*cell, 0, opts.Cells), n: n}
	members := make([]int, opts.Cells)
	for i := 0; i < opts.Cells; i++ {
		copt := opts
		copt.Cells = 0
		copt.Transport = transport.Offset(opts.Transport, quorum.ServerID(i*n))
		// Key the cell's stream by a draw from the caller's and the cell's
		// index: deterministic under a fixed seed, yet a distinct stream per
		// cell.
		copt.Rand = quorum.NewRand(opts.Rand.Int63(), quorum.StreamCell, uint64(i))
		eng, err := newCell(copt)
		if err != nil {
			return nil, fmt.Errorf("register: cell %d: %w", i, err)
		}
		c.cells = append(c.cells, eng)
		members[i] = i
	}
	c.clock = c.cells[0].clock
	// Vnodes 0 is ring.DefaultVnodes.
	c.view = ring.View{Version: 1, Members: members}
	r, err := c.view.Ring()
	if err != nil {
		return nil, err
	}
	c.ring = r
	return c, nil
}

// routeCell maps a key to its owning cell via the current ring view. This
// is the one sanctioned identity-dependent step of the access path (see
// the Client doc comment); everything downstream is identity-blind.
func (c *Client) routeCell(key string) *cell {
	if len(c.cells) == 1 {
		return c.cells[0]
	}
	c.mu.RLock()
	r := c.ring
	c.mu.RUnlock()
	return c.cells[r.Lookup(key)]
}

// CellFor returns the index of the cell currently owning key (always 0 for
// a single-cell client). Exposed for the measurement stack: the chaos
// checker attributes each operation to a cell for per-cell ε accounting.
func (c *Client) CellFor(key string) int {
	if len(c.cells) == 1 {
		return 0
	}
	c.mu.RLock()
	r := c.ring
	c.mu.RUnlock()
	return r.Lookup(key)
}

// Cells returns the number of quorum cells the client routes across.
func (c *Client) Cells() int { return len(c.cells) }

// Write routes key to its cell and runs the Section 3.1 write protocol
// there; see the cell Write for the protocol contract.
func (c *Client) Write(ctx context.Context, key string, value []byte) (WriteResult, error) {
	return c.routeCell(key).Write(ctx, key, value)
}

// Read routes key to its cell and runs the mode's read protocol there; see
// the cell Read for the protocol contract.
func (c *Client) Read(ctx context.Context, key string) (ReadResult, error) {
	return c.routeCell(key).Read(ctx, key)
}

// Update implements the read-modify-write pattern that extends the
// single-writer protocol toward multiple writers, following the paper's
// Section 3.1 pointer to [Lam86, IS92]: read the variable (witnessing the
// highest timestamp seen, so the local clock dominates it), apply f to the
// value read, and write the result. With one writer per key this is exactly
// read-then-write; with several concurrent writers the per-writer tiebreak
// on timestamps keeps the register's history totally ordered (last writer
// wins), giving regular-variable-style behavior rather than atomicity —
// sufficient for the lock and counter patterns the paper's applications
// use.
//
// The cell is pinned once for the whole cycle, so a concurrent view change
// cannot split the read and the write across different cells mid-RMW.
func (c *Client) Update(ctx context.Context, key string, f func(old []byte, found bool) []byte) (WriteResult, error) {
	eng := c.routeCell(key)
	r, err := eng.Read(ctx, key)
	if err != nil {
		return WriteResult{}, fmt.Errorf("register: update read: %w", err)
	}
	next := f(r.Value, r.Found)
	return eng.Write(ctx, key, next)
}

// Stats returns the client's straggler-tolerance counters. Single-cell
// clients return their cell's snapshot unchanged; multi-cell clients sum
// the event counters across cells, with the adaptive-hedge estimator
// fields (SRTT, RTTVar, HedgeDelay) taken from cell 0 as a representative
// — use CellStats for the per-cell estimators.
func (c *Client) Stats() AccessStats {
	if len(c.cells) == 1 {
		return c.cells[0].Stats()
	}
	agg := c.cells[0].Stats()
	for _, eng := range c.cells[1:] {
		s := eng.Stats()
		agg.SparesPromoted += s.SparesPromoted
		agg.EarlyCompletions += s.EarlyCompletions
		agg.LateReplies += s.LateReplies
		agg.LateRepairs += s.LateRepairs
		agg.ServerDownFastFails += s.ServerDownFastFails
		agg.SigChecks += s.SigChecks
		agg.SigReused += s.SigReused
		agg.LatencySamples += s.LatencySamples
	}
	return agg
}

// CellStats returns cell i's own counter snapshot.
func (c *Client) CellStats(i int) AccessStats { return c.cells[i].Stats() }

// WaitDrained blocks until every cell's background drains have finished.
func (c *Client) WaitDrained() {
	for _, eng := range c.cells {
		eng.WaitDrained()
	}
}

// ServerLatencies merges the per-cell latency estimates into global server
// ids (cell i's local server s reported as i*n + s). Nil unless
// AdaptiveHedge is enabled.
func (c *Client) ServerLatencies() map[quorum.ServerID]time.Duration {
	var out map[quorum.ServerID]time.Duration
	for i, eng := range c.cells {
		m := eng.ServerLatencies()
		if m == nil {
			continue
		}
		if out == nil {
			out = make(map[quorum.ServerID]time.Duration, len(m)*len(c.cells))
		}
		base := quorum.ServerID(i * c.n)
		for id, d := range m {
			out[base+id] = d
		}
	}
	return out
}

// View returns the ring view the client currently routes by. The zero View
// (Version 0, no members) is returned by single-cell clients, which have
// no ring.
func (c *Client) View() ring.View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v := c.view
	v.Members = append([]int(nil), v.Members...)
	return v
}

// ApplyView swaps the routing ring to v if it is strictly newer than the
// view in effect. Members must index into the construction-time cell set:
// a view may shrink the serving set (cell crash/Leave) or restore it
// (Join), but cannot reference cells the client has no engines for. New
// keys route to the new view immediately; operations already routed finish
// on the cell they started on.
func (c *Client) ApplyView(v ring.View) error {
	if len(c.cells) == 1 {
		return errors.New("register: single-cell client has no ring view")
	}
	for _, m := range v.Members {
		if m < 0 || m >= len(c.cells) {
			return fmt.Errorf("register: view member %d outside configured cells [0,%d)", m, len(c.cells))
		}
	}
	// A stale view builds no ring (checked again below: a newer one may land
	// while this one is built).
	c.mu.RLock()
	stale := v.Version <= c.view.Version
	c.mu.RUnlock()
	if stale {
		return nil
	}
	r, err := v.Ring()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.Version <= c.view.Version {
		return nil // stale or duplicate advertisement; keep routing as is
	}
	c.ring = r
	c.view = v
	return nil
}

// AdvertiseView publishes v under ViewKey (in cell 0, where every client
// can find it regardless of view) and applies it locally. Diffusion, when
// enabled on the cluster, then spreads the entry through cell 0's replicas
// so clients that refresh against any quorum observe it.
func (c *Client) AdvertiseView(ctx context.Context, v ring.View) error {
	if len(c.cells) == 1 {
		return errors.New("register: single-cell client has no ring view")
	}
	if err := c.ApplyView(v); err != nil {
		return err
	}
	if _, err := c.cells[0].Write(ctx, ViewKey, v.Encode()); err != nil {
		return fmt.Errorf("register: advertise view: %w", err)
	}
	return nil
}

// RefreshView reads ViewKey from cell 0 and applies any newer view found
// there. It returns the view in effect after the refresh.
func (c *Client) RefreshView(ctx context.Context) (ring.View, error) {
	if len(c.cells) == 1 {
		return ring.View{}, errors.New("register: single-cell client has no ring view")
	}
	r, err := c.cells[0].Read(ctx, ViewKey)
	if err != nil {
		return c.View(), fmt.Errorf("register: refresh view: %w", err)
	}
	if r.Found && len(r.Value) > 0 {
		v, derr := ring.DecodeView(r.Value)
		if derr != nil {
			return c.View(), derr
		}
		if aerr := c.ApplyView(v); aerr != nil {
			return c.View(), aerr
		}
	}
	return c.View(), nil
}
