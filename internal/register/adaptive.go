package register

import (
	"sync"
	"time"

	"pqs/internal/quorum"
)

// Adaptive hedging (Options.AdaptiveHedge): instead of a hand-tuned fixed
// HedgeDelay, the client estimates the reply-latency distribution online
// and hedges at an upper quantile of it, so the delay tracks the cluster —
// tightening as it speeds up, backing off as it degrades — without
// retuning.
//
// The estimator is the Jacobson/Karels RTT filter TCP retransmission
// timers use: a latency EWMA (SRTT, gain 1/8) plus a deviation EWMA
// (RTTVAR, gain 1/4), with the hedge firing at SRTT + 4·RTTVAR (the classic
// RTO multiplier). For a roughly symmetric latency
// distribution that sits past the far tail of normal replies, so hedges
// fire for genuine stragglers, not for ordinary variance.
//
// ε-preservation: the delay for an operation is computed once, before any
// of its calls resolve, from POOLED history of earlier operations. Which
// servers the current access set contains never enters the computation —
// per-server EWMAs exist only for observability (ServerLatencies). The
// hedge timer therefore remains the "timer independent of server identity"
// the PR 1 promotion argument requires: conditioned on the timer firing,
// the completing access set is still the strategy's sample conditioned on
// liveness. TestAdaptiveDelayIdentityBlind locks the pooling in;
// TestAdaptiveHedgeEpsilonPreserved re-measures ε under adaptive hedging.

const (
	// srttGain and rttvarGain are the classic Jacobson/Karels filter
	// gains (α = 1/8, β = 1/4).
	srttGain   = 0.125
	rttvarGain = 0.25
	// hedgeDeviations is k in SRTT + k·RTTVAR — the classic RTO multiplier.
	hedgeDeviations = 4.0
	// adaptiveWarmup is the number of latency samples required before the
	// estimate replaces the bootstrap HedgeDelay.
	adaptiveWarmup = 8
	// minAdaptiveDelay floors the computed delay so a cluster with
	// near-zero measured latency cannot drive the hedge timer to zero and
	// promote every spare on every operation.
	minAdaptiveDelay = 10 * time.Microsecond
)

// latencyEstimator maintains the pooled SRTT/RTTVAR pair and the
// per-server observability EWMAs. Safe for concurrent use.
type latencyEstimator struct {
	mu        sync.Mutex
	samples   uint64
	srtt      float64 // nanoseconds
	rttvar    float64 // nanoseconds
	perServer map[quorum.ServerID]float64
}

// observe folds one successful reply latency into the estimate.
func (e *latencyEstimator) observe(id quorum.ServerID, d time.Duration) {
	x := float64(d)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples == 0 {
		e.srtt = x
		e.rttvar = x / 2
	} else {
		diff := e.srtt - x
		if diff < 0 {
			diff = -diff
		}
		e.rttvar += rttvarGain * (diff - e.rttvar)
		e.srtt += srttGain * (x - e.srtt)
	}
	e.samples++
	if e.perServer == nil {
		e.perServer = make(map[quorum.ServerID]float64)
	}
	if cur, ok := e.perServer[id]; ok {
		e.perServer[id] = cur + srttGain*(x-cur)
	} else {
		e.perServer[id] = x
	}
}

// delay returns the current hedge delay: the bootstrap fallback until
// warmed up, then SRTT + hedgeDeviations·RTTVAR floored at minAdaptiveDelay.
func (e *latencyEstimator) delay(fallback time.Duration) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples < adaptiveWarmup {
		return fallback
	}
	d := time.Duration(e.srtt + hedgeDeviations*e.rttvar)
	if d < minAdaptiveDelay {
		d = minAdaptiveDelay
	}
	return d
}

// snapshot returns the pooled estimator state for AccessStats.
func (e *latencyEstimator) snapshot() (samples uint64, srtt, rttvar time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.samples, time.Duration(e.srtt), time.Duration(e.rttvar)
}

// hedgeDelay returns the delay the next operation hedges at: the static
// Options.HedgeDelay, or the adaptive estimate once warmed up.
func (c *cell) hedgeDelay() time.Duration {
	if !c.opts.AdaptiveHedge {
		return c.opts.HedgeDelay
	}
	return c.lat.delay(c.opts.HedgeDelay)
}

// ServerLatencies returns a snapshot of the per-server reply-latency EWMAs
// the adaptive estimator has observed — observability only; the hedge
// delay never reads them (see the ε-preservation note above).
func (c *cell) ServerLatencies() map[quorum.ServerID]time.Duration {
	c.lat.mu.Lock()
	defer c.lat.mu.Unlock()
	out := make(map[quorum.ServerID]time.Duration, len(c.lat.perServer))
	for id, v := range c.lat.perServer {
		out[id] = time.Duration(v)
	}
	return out
}
