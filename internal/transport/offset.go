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
// The view forwards Start when t is a Starter (a MemNetwork, a TCPClient),
// tags untouched, and is Call-only otherwise, for StarterOf to adapt. It
// always offers ServerDown, which reports the server up when t reports no
// health (a TCPClient's breaker does).
func Offset(t Transport, base quorum.ServerID) Transport {
	o := offset{inner: t, base: base}
	o.health, _ = t.(HealthReporter)
	if st, ok := t.(Starter); ok {
		return &startOffset{o, st}
	}
	return &o
}

// offset shifts server ids on the way down.
type offset struct {
	inner  Transport
	base   quorum.ServerID
	health HealthReporter // nil: t reports no per-server health
}

// startOffset is an offset over a Starter.
type startOffset struct {
	offset
	start Starter
}

// Call implements Transport.
func (o *offset) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	return o.inner.Call(ctx, o.base+to, req)
}

// ServerDown implements HealthReporter.
func (o *offset) ServerDown(id quorum.ServerID) bool {
	return o.health != nil && o.health.ServerDown(o.base+id)
}

// Start implements Starter.
func (o *startOffset) Start(ctx context.Context, to quorum.ServerID, req any, sink Sink, tag int) (any, error, bool) {
	return o.start.Start(ctx, o.base+to, req, sink, tag)
}
