package transport

import (
	"context"

	"pqs/internal/quorum"
)

// Offset returns a view of t whose server ids are shifted by base: a call
// to local id s is delivered to global id base+s. This is how a multi-cell
// client hands each per-cell gather engine a transport over ITS n replicas
// while the engine keeps working in cell-local ids [0, n): the engine's
// dispatch, hedging and drain never see a global identity, so the
// identity-blindness invariant (and the epsblind analyzer that mechanizes
// it) applies per cell unchanged.
//
// The view has t's optional capabilities and no others, each translated
// into the same local id space: per-server health (HealthReporter — a
// breaker-enabled TCPClient), so per-cell engines keep their t=0 fast-fail
// path on degraded members, and TryCaller (MemNetwork), so they keep
// running calls that cannot park on the caller.
func Offset(t Transport, base quorum.ServerID) Transport {
	o := offset{inner: t, base: base}
	hr, isHR := t.(HealthReporter)
	tc, isTC := t.(TryCaller)
	switch {
	case isHR && isTC:
		return &offsetHealthTry{o, healthShift{hr, base}, tryShift{tc, base}}
	case isHR:
		return &offsetHealth{o, healthShift{hr, base}}
	case isTC:
		return &offsetTry{o, tryShift{tc, base}}
	}
	return &o
}

// offset shifts server ids on the way down.
type offset struct {
	inner Transport
	base  quorum.ServerID
}

// Call implements Transport.
func (o *offset) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	return o.inner.Call(ctx, o.base+to, req)
}

// healthShift forwards per-server health in local ids.
type healthShift struct {
	hr   HealthReporter
	base quorum.ServerID
}

// ServerDown implements HealthReporter.
func (h healthShift) ServerDown(id quorum.ServerID) bool { return h.hr.ServerDown(h.base + id) }

// tryShift forwards TryCall in local ids.
type tryShift struct {
	tc   TryCaller
	base quorum.ServerID
}

// TryCall implements TryCaller.
func (t tryShift) TryCall(ctx context.Context, to quorum.ServerID, req any) (any, bool, error) {
	return t.tc.TryCall(ctx, t.base+to, req)
}

// The three views with capabilities: Go has no way to add a method to a
// value at run time, so each combination is a type.
type (
	offsetHealth struct {
		offset
		healthShift
	}
	offsetTry struct {
		offset
		tryShift
	}
	offsetHealthTry struct {
		offset
		healthShift
		tryShift
	}
)
