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
// The view always offers TryCall, Start and ServerDown, translated into the
// same local id space. Each forwards to t's capability when t has it — a
// MemNetwork's TryCall and Start, a TCPClient's Start and breaker-fed
// ServerDown — and otherwise declines, or reports the server up. Declining
// is always a legal answer, so one type serves every transport.
func Offset(t Transport, base quorum.ServerID) Transport {
	o := &offset{inner: t, base: base}
	o.health, _ = t.(HealthReporter)
	o.try, _ = t.(TryCaller)
	o.start, _ = t.(Starter)
	return o
}

// offset shifts server ids on the way down.
type offset struct {
	inner  Transport
	base   quorum.ServerID
	health HealthReporter // nil: t reports no per-server health
	try    TryCaller      // nil: t has no TryCall
	start  Starter        // nil: t has no Start
}

// Call implements Transport.
func (o *offset) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	return o.inner.Call(ctx, o.base+to, req)
}

// TryCall implements TryCaller.
func (o *offset) TryCall(ctx context.Context, to quorum.ServerID, req any) (any, bool, error) {
	if o.try == nil {
		return nil, false, nil
	}
	return o.try.TryCall(ctx, o.base+to, req)
}

// Start implements Starter.
func (o *offset) Start(ctx context.Context, to quorum.ServerID, req any, done func(any, error)) bool {
	return o.start != nil && o.start.Start(ctx, o.base+to, req, done)
}

// ServerDown implements HealthReporter.
func (o *offset) ServerDown(id quorum.ServerID) bool {
	return o.health != nil && o.health.ServerDown(o.base+id)
}
