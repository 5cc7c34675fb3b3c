package pqs

import (
	"encoding/json"
	"net/http"

	"pqs/internal/replica"
	"pqs/internal/transport"
)

// ServerStats is the observability snapshot a replica server exposes over
// its admin endpoint (pqsd -admin): the store's key count and counters, the TCP
// endpoint's frame/flush counters (including how many writes the flush
// coalescing batched), and the per-connection binary codec counters.
type ServerStats struct {
	// ID is the replica's server id; Addr its bound data-plane address.
	ID   int    `json:"id"`
	Addr string `json:"addr"`
	// Codec names the wire codec the data plane speaks.
	Codec string `json:"codec"`
	// UptimeSeconds counts from ListenAndServe.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Store reports the store: its key count, get/apply/adoption counters
	// and adoption sequence.
	Store replica.StoreStats `json:"store"`
	// Transport reports the server's TCP counters: connections, frames,
	// bytes, flushes, coalesced writes, and the aggregated message-codec
	// counters (Transport.Codec).
	Transport transport.TCPStats `json:"transport"`
	// WireCodec reports this server's aggregated message-codec counters —
	// per-connection counters folded together, replacing the process-wide
	// counters the wire package used to keep.
	WireCodec transport.ConnCodecStats `json:"wire_codec"`
	// PerConnCodec breaks WireCodec down by live connection.
	PerConnCodec []transport.ConnCodecStats `json:"per_conn_codec,omitempty"`
}

// Stats returns a snapshot of the server's observability counters.
func (s *Server) Stats() ServerStats {
	tstats := s.srv.Stats()
	return ServerStats{
		ID:            int(s.rep.ID()),
		Addr:          s.srv.Addr(),
		Codec:         s.srv.Codec().String(),
		UptimeSeconds: s.clock.Since(s.started).Seconds(),
		Store:         s.rep.Store().Stats(),
		Transport:     tstats,
		WireCodec:     tstats.Codec,
		PerConnCodec:  s.srv.ConnStats(),
	}
}

// AdminHandler returns the HTTP handler pqsd mounts on its admin listener:
//
//	GET /stats    the ServerStats snapshot as JSON
//	GET /healthz  200 ok
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}
