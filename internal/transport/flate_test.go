package transport

import (
	"bytes"
	"context"
	"testing"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/wire"
)

// TestTCPFlateRoundTripAndCounters runs the full exchange under
// CodecBinaryFlate with a compressible payload and checks that the
// compression counters surface through Stats: raw bytes exceed wire bytes,
// and the saved difference is consistent on both endpoints.
func TestTCPFlateRoundTripAndCounters(t *testing.T) {
	srv, err := ListenTCPCodec("127.0.0.1:0", &echoHandler{id: 3}, CodecBinaryFlate)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Codec() != CodecBinaryFlate {
		t.Fatalf("server codec %v", srv.Codec())
	}
	client := NewTCPClientOpts(map[quorum.ServerID]string{3: srv.Addr()}, TCPClientOptions{Codec: CodecBinaryFlate})
	defer client.Close()

	// Small control traffic stays below the threshold: no compression.
	if _, err := client.Call(context.Background(), 3, wire.PingRequest{}); err != nil {
		t.Fatal(err)
	}
	cs := client.Stats()
	if cs.Codec.BytesSaved != 0 {
		t.Fatalf("sub-threshold ping saved %d bytes", cs.Codec.BytesSaved)
	}

	// A compressible multi-KB value compresses on both legs (echo).
	value := bytes.Repeat([]byte("wan-compression-pays-here!"), 512)
	resp, err := client.Call(context.Background(), 3, wire.WriteRequest{Key: "k", Value: value})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(wire.WriteRequest); !bytes.Equal(got.Value, value) {
		t.Fatalf("echoed value mismatch: %d bytes", len(got.Value))
	}
	for name, s := range map[string]TCPStats{"client": client.Stats(), "server": srv.Stats()} {
		c := s.Codec
		if c.RawBytes == 0 || c.WireBytes == 0 {
			t.Fatalf("%s: compression counters did not advance: %+v", name, c)
		}
		if c.WireBytes >= c.RawBytes {
			t.Errorf("%s: wire %d >= raw %d for a compressible payload", name, c.WireBytes, c.RawBytes)
		}
		if c.BytesSaved != c.RawBytes-c.WireBytes {
			t.Errorf("%s: BytesSaved %d != raw-wire %d", name, c.BytesSaved, c.RawBytes-c.WireBytes)
		}
	}
}

// TestTCPFlateVersionSkewFailsLoudly pins the transport-level failure mode
// of the minted TagCompressed: a CodecBinary client talking to a flate
// server works for sub-threshold traffic (byte-identical layout) but a
// compressed reply kills the call with an error — never a silent desync.
func TestTCPFlateVersionSkewFailsLoudly(t *testing.T) {
	srv, err := ListenTCPCodec("127.0.0.1:0", &echoHandler{id: 4}, CodecBinaryFlate)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	legacy := NewTCPClientOpts(map[quorum.ServerID]string{4: srv.Addr()}, TCPClientOptions{Codec: CodecBinary})
	defer legacy.Close()

	// Sub-threshold exchanges are codec-agnostic.
	if _, err := legacy.Call(context.Background(), 4, wire.PingRequest{}); err != nil {
		t.Fatalf("sub-threshold cross-codec call failed: %v", err)
	}

	// A compressible echo forces a compressed reply the legacy client
	// cannot parse: the call must error, not hang or misparse.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	value := bytes.Repeat([]byte("compress-me-compress-me!"), 512)
	if _, err := legacy.Call(ctx, 4, wire.WriteRequest{Key: "k", Value: value}); err == nil {
		t.Fatal("legacy client parsed a compressed reply")
	}
}

// TestParseCodec covers the flag-level codec names.
func TestParseCodec(t *testing.T) {
	for name, want := range map[string]Codec{
		"binary":       CodecBinary,
		"binary-flate": CodecBinaryFlate,
	} {
		got, err := ParseCodec(name)
		if err != nil || got != want {
			t.Errorf("ParseCodec(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("Codec(%v).String() = %q, want %q", got, got.String(), name)
		}
	}
	for _, name := range []string{"zstd", "gob"} {
		if _, err := ParseCodec(name); err == nil {
			t.Errorf("ParseCodec accepted %q", name)
		}
	}
}
