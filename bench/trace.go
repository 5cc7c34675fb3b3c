package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/transport"
	"pqs/internal/wire"
)

// The traced run records three kinds of span, all from outside the product
// code: `op` around each client call (generator.go), `rpc` from a
// transport.Transport decorator around Call, `handle` from a
// transport.Handler decorator around Replica.Handle. Spans live in buffers
// allocated before the window opens and are analysed (and sampled to a
// JSON-lines file) after it closes.

// span is one timed interval; start and end are nanoseconds since the
// tracer's base.
type span struct {
	start, end int64
	server     int32
	op         int32 // id of the op this span is or belongs to; -1 when unknown (handle spans over TCP)
	write      bool
}

// opRec is an `op` span plus the slots its `rpc` children claim.
type opRec struct {
	span
	nrpc atomic.Int32
	rpc  []span
}

// workerTrace is one worker's preallocated op buffer. ctx carries the
// worker down through register into the decorators; cur is the op it is
// running (a worker runs one at a time).
type workerTrace struct {
	tr   *tracer
	id   int
	ctx  context.Context
	cur  atomic.Pointer[opRec]
	ops  []opRec
	used int
}

type serverTrace struct {
	n     atomic.Int64 // handle calls seen, including any beyond the buffer
	spans []span
}

type traceKey struct{}

type tracer struct {
	base    time.Time
	workers []*workerTrace
	servers []serverTrace
	// handles switches the handle decorators on for the traced slices; the
	// rpc decorator needs no switch, it follows the op its context carries.
	handles atomic.Bool
}

// newTracer allocates room for maxOps ops of fanout rpcs each, spread over
// the workers, and for the handle spans they cause on n servers. Every
// page is touched now so the window takes no faults for them.
func newTracer(nworkers, maxOps, fanout, n int) *tracer {
	tr := &tracer{base: time.Now(), servers: make([]serverTrace, n)}
	per := maxOps / nworkers
	for id := 0; id < nworkers; id++ {
		wt := &workerTrace{tr: tr, id: id, ops: make([]opRec, per)}
		wt.ctx = context.WithValue(context.Background(), traceKey{}, wt)
		slab := make([]span, per*fanout)
		for i := range slab {
			slab[i].op = -1
		}
		for i := range wt.ops {
			wt.ops[i].rpc = slab[i*fanout : (i+1)*fanout : (i+1)*fanout]
		}
		tr.workers = append(tr.workers, wt)
	}
	// Twice the expected share, so an unlucky server still fits.
	perServer := 2*maxOps*fanout/n + 1024
	for i := range tr.servers {
		tr.servers[i].spans = make([]span, perServer)
		for j := range tr.servers[i].spans {
			tr.servers[i].spans[j].op = -1
		}
	}
	return tr
}

func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.base)) }

// now is the decorators' clock: time.Since reads only the monotonic clock,
// about half the cost of time.Now, and the decorators read it four times
// per rpc.
func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// begin opens the worker's next op span; nil when its buffer is full.
func (wt *workerTrace) begin(write bool, t0 time.Time) *opRec {
	if wt.used == len(wt.ops) {
		return nil
	}
	rec := &wt.ops[wt.used]
	rec.start, rec.write = wt.tr.since(t0), write
	rec.op = int32(wt.id*len(wt.ops) + wt.used)
	wt.used++
	wt.cur.Store(rec)
	return rec
}

func (wt *workerTrace) end(rec *opRec, t1 time.Time) {
	rec.end = wt.tr.since(t1)
	wt.cur.Store(nil)
}

// current returns the op a context belongs to, if it is being traced.
func current(ctx context.Context) *opRec {
	if wt, ok := ctx.Value(traceKey{}).(*workerTrace); ok {
		return wt.cur.Load()
	}
	return nil
}

type tracedTransport struct {
	tr    *tracer
	inner transport.Transport
}

func (tr *tracer) transport(inner transport.Transport) transport.Transport {
	return &tracedTransport{tr: tr, inner: inner}
}

// Call records an `rpc` span under the op its context carries. The span is
// written before Call returns, and register only completes an op after
// every dispatched call has returned, so the op's worker reads it safely.
func (t *tracedTransport) Call(ctx context.Context, to quorum.ServerID, req any) (any, error) {
	op := current(ctx)
	if op == nil {
		return t.inner.Call(ctx, to, req)
	}
	start := t.tr.now()
	resp, err := t.inner.Call(ctx, to, req)
	end := t.tr.now()
	if i := int(op.nrpc.Add(1)) - 1; i < len(op.rpc) {
		op.rpc[i] = span{start: start, end: end, server: int32(to), op: op.op, write: op.write}
	}
	return resp, err
}

type tracedHandler struct {
	tr     *tracer
	server int
	inner  transport.Handler
}

func (tr *tracer) handler(server int, inner transport.Handler) transport.Handler {
	return &tracedHandler{tr: tr, server: server, inner: inner}
}

// Handle records a `handle` span. On the mem plane the context propagates,
// so the parent op is exact; over TCP only the server and the request kind
// are known.
func (h *tracedHandler) Handle(ctx context.Context, req any) (any, error) {
	if !h.tr.handles.Load() {
		return h.inner.Handle(ctx, req)
	}
	parent := int32(-1)
	if op := current(ctx); op != nil {
		parent = op.op
	}
	_, write := req.(wire.WriteRequest)
	start := h.tr.now()
	resp, err := h.inner.Handle(ctx, req)
	end := h.tr.now()
	st := &h.tr.servers[h.server]
	if i := st.n.Add(1) - 1; i < int64(len(st.spans)) {
		st.spans[i] = span{start: start, end: end, server: int32(h.server), op: parent, write: write}
	}
	return resp, err
}

// room is how many more ops every worker's span buffer can take.
func (tr *tracer) room() int {
	room := len(tr.workers[0].ops)
	for _, wt := range tr.workers {
		room = min(room, len(wt.ops)-wt.used)
	}
	return room * len(tr.workers)
}

// spanStats is what the traced window's spans say.
type spanStats struct {
	ops          int
	opMeanUs     float64 // mean op span
	unionUs      float64 // mean union of an op's rpc spans
	selfUs       float64 // mean op span minus that union: register's own time
	dispatchUs   float64 // mean op start -> last rpc start
	gatherTailUs float64 // mean last rpc end -> op end
	rpcsPerOp    float64
	rpcMeanUs    float64
	rpcP50Us     float64
	rpcP99Us     float64
	handleMeanUs float64
	handlesPerOp float64
	loadSkew     float64 // hottest server's share of ops / (q/n)
}

// analyse folds the recorded spans. load is the system's q/n.
func (tr *tracer) analyse(load float64) spanStats {
	var st spanStats
	var opNs, unionNs, dispatchNs, tailNs, rpcNs int64
	var rpcs int
	var rpcDur []float64
	perServer := make([]int, len(tr.servers))
	for _, wt := range tr.workers {
		for i := range wt.ops[:wt.used] {
			op := &wt.ops[i]
			n := int(op.nrpc.Load())
			if n > len(op.rpc) {
				n = len(op.rpc)
			}
			kids := op.rpc[:n]
			sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
			st.ops++
			opNs += op.end - op.start
			rpcs += n
			lastStart, lastEnd, covered, reach := op.start, op.start, int64(0), op.start
			for _, r := range kids {
				perServer[r.server]++
				rpcNs += r.end - r.start
				rpcDur = append(rpcDur, float64(r.end-r.start)/1e3)
				if r.start > lastStart {
					lastStart = r.start
				}
				if r.end > lastEnd {
					lastEnd = r.end
				}
				// Union of the children, clipped to the op.
				lo, hi := max(r.start, reach), min(r.end, op.end)
				if hi > lo {
					covered += hi - lo
					reach = hi
				}
			}
			unionNs += covered
			dispatchNs += lastStart - op.start
			tailNs += op.end - min(lastEnd, op.end)
		}
	}
	if st.ops == 0 {
		return st
	}
	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / float64(st.ops) }
	st.opMeanUs, st.unionUs = perOp(opNs), perOp(unionNs)
	st.selfUs = perOp(opNs - unionNs)
	st.dispatchUs, st.gatherTailUs = perOp(dispatchNs), perOp(tailNs)
	st.rpcsPerOp = float64(rpcs) / float64(st.ops)
	if rpcs > 0 {
		st.rpcMeanUs = float64(rpcNs) / 1e3 / float64(rpcs)
		sort.Float64s(rpcDur)
		st.rpcP50Us, st.rpcP99Us = quantile(rpcDur, 0.50), quantile(rpcDur, 0.99)
	}
	hottest := 0
	for _, n := range perServer {
		hottest = max(hottest, n)
	}
	st.loadSkew = float64(hottest) / float64(st.ops) / load

	var handles, stored, handleNs int64
	for i := range tr.servers {
		s := &tr.servers[i]
		n := s.n.Load()
		handles += n
		for _, h := range s.spans[:min(n, int64(len(s.spans)))] {
			stored++
			handleNs += h.end - h.start
		}
	}
	st.handlesPerOp = float64(handles) / float64(st.ops)
	if stored > 0 {
		st.handleMeanUs = float64(handleNs) / 1e3 / float64(stored)
	}
	return st
}

// spanLine is one line of the span file.
type spanLine struct {
	Span    string `json:"span"`
	ID      *int32 `json:"id,omitempty"`
	Parent  *int32 `json:"parent,omitempty"`
	Server  *int32 `json:"server,omitempty"`
	Kind    string `json:"kind"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanFileOps is how many ops per worker the span file samples; the
// metrics always use every recorded span.
const spanFileOps = 1000

// writeSpans writes a sample of the span trees as JSON lines: the first
// spanFileOps ops of each worker with their rpc children, the handle spans
// that name one of them as parent, and (over TCP, where the parent is
// unknown) the first spanFileOps handle spans of each server.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	kind := func(write bool) string {
		if write {
			return "write"
		}
		return "read"
	}
	line := func(name string, s span) spanLine {
		l := spanLine{Span: name, Kind: kind(s.write), StartNs: s.start, EndNs: s.end}
		if name == "op" {
			l.ID = &s.op
			return l
		}
		l.Parent, l.Server = &s.op, &s.server
		return l
	}
	written := map[int32]bool{}
	for _, wt := range tr.workers {
		for i := range wt.ops[:min(wt.used, spanFileOps)] {
			op := &wt.ops[i]
			written[op.op] = true
			if err := enc.Encode(line("op", op.span)); err != nil {
				return err
			}
			for _, r := range op.rpc[:min(int(op.nrpc.Load()), len(op.rpc))] {
				if err := enc.Encode(line("rpc", r)); err != nil {
					return err
				}
			}
		}
	}
	for i := range tr.servers {
		s := &tr.servers[i]
		unlinked := 0
		for _, h := range s.spans[:min(s.n.Load(), int64(len(s.spans)))] {
			if h.op < 0 {
				if unlinked++; unlinked > spanFileOps {
					continue
				}
			} else if !written[h.op] {
				continue
			}
			if err := enc.Encode(line("handle", h)); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
