package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pqs/internal/ts"
)

// binaryRoundTrip encodes msg with the binary codec and decodes it back.
func binaryRoundTrip(t *testing.T, msg any) any {
	t.Helper()
	b, err := AppendMessage(nil, msg)
	if err != nil {
		t.Fatalf("AppendMessage(%T): %v", msg, err)
	}
	out, rest, err := DecodeMessage(b)
	if err != nil {
		t.Fatalf("DecodeMessage(%T): %v", msg, err)
	}
	if len(rest) != 0 {
		t.Fatalf("DecodeMessage(%T): %d trailing bytes", msg, len(rest))
	}
	return out
}

// gobRoundTrip encodes msg with encoding/gob (through an Envelope, so the
// payload travels as an interface value) and decodes it back: the reference
// the binary codec is compared against.
func gobRoundTrip(t *testing.T, msg any) any {
	t.Helper()
	RegisterGob()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Envelope{ID: 1, Payload: msg}); err != nil {
		t.Fatalf("gob encode %T: %v", msg, err)
	}
	var out Envelope
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", msg, err)
	}
	return out.Payload
}

// randBytes draws a value/sig field biased toward the edge cases the codecs
// must agree on: nil, empty, and occasionally large slices.
func randBytes(r *rand.Rand) []byte {
	switch r.Intn(5) {
	case 0:
		return nil
	case 1:
		return []byte{}
	case 2:
		b := make([]byte, 16+r.Intn(64))
		r.Read(b)
		return b
	case 3:
		b := make([]byte, 4096+r.Intn(8192)) // large value
		r.Read(b)
		return b
	default:
		b := make([]byte, 1+r.Intn(8))
		r.Read(b)
		return b
	}
}

func randKey(r *rand.Rand) string {
	if r.Intn(8) == 0 {
		return ""
	}
	return fmt.Sprintf("key-%d/%s", r.Intn(1000), strings.Repeat("x", r.Intn(40)))
}

func randStamp(r *rand.Rand) ts.Stamp {
	return ts.Stamp{Counter: r.Uint64() >> uint(r.Intn(64)), Writer: uint32(r.Uint32() >> uint(r.Intn(32)))}
}

func randItems(r *rand.Rand) []Item {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []Item{}
	default:
		items := make([]Item, r.Intn(20))
		for i := range items {
			items[i] = Item{Key: randKey(r), Value: randBytes(r), Stamp: randStamp(r), Sig: randBytes(r)}
		}
		return items
	}
}

// TestBinaryMatchesGobRoundTrip is the codec equivalence property of the
// data-plane fast path: for every one of the 10 wire message types, decoding
// a binary encoding yields exactly what decoding a gob encoding yields —
// including the nil/empty-slice normalization gob performs and multi-KB
// values.
func TestBinaryMatchesGobRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const trials = 200
	for i := 0; i < trials; i++ {
		msgs := []any{
			ReadRequest{Key: randKey(r)},
			ReadReply{Found: r.Intn(2) == 0, Value: randBytes(r), Stamp: randStamp(r), Sig: randBytes(r)},
			WriteRequest{Key: randKey(r), Value: randBytes(r), Stamp: randStamp(r), Sig: randBytes(r)},
			WriteReply{Stored: r.Intn(2) == 0},
			GossipRequest{Entries: randItems(r)},
			GossipReply{Entries: randItems(r)},
			PingRequest{},
			PingReply{ServerID: r.Intn(1 << 20)},
			GossipDeltaRequest{Since: r.Uint64() >> uint(r.Intn(64)), Entries: randItems(r)},
			GossipDeltaReply{UpTo: r.Uint64() >> uint(r.Intn(64)), Entries: randItems(r)},
		}
		for _, m := range msgs {
			viaBinary := binaryRoundTrip(t, m)
			viaGob := gobRoundTrip(t, m)
			if !reflect.DeepEqual(viaBinary, viaGob) {
				t.Fatalf("trial %d, %T:\n binary RT: %#v\n    gob RT: %#v", i, m, viaBinary, viaGob)
			}
		}
	}
}

func TestBinaryEnvelopeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		env := Envelope{
			ID:      r.Uint64(),
			Payload: WriteRequest{Key: randKey(r), Value: randBytes(r), Stamp: randStamp(r), Sig: randBytes(r)},
		}
		b, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeEnvelope(b)
		if err != nil {
			t.Fatal(err)
		}
		want := Envelope{ID: env.ID, Payload: gobRoundTrip(t, env.Payload)}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("envelope round trip:\n got: %#v\nwant: %#v", got, want)
		}
	}
}

// TestDecodedBytesAreExactCopies: a decoded Value or Sig is a copy of the
// frame's bytes with cap == len, so neither a later frame read into the same
// buffer nor a consumer's append can reach the other's memory.
func TestDecodedBytesAreExactCopies(t *testing.T) {
	for _, size := range []int{1, 5, 33, 1000, 16 << 10} {
		value := bytes.Repeat([]byte{'v'}, size)
		sig := bytes.Repeat([]byte{'s'}, size+3)
		b, err := AppendMessage(nil, WriteRequest{Key: "k", Value: value, Stamp: ts.Stamp{Counter: 1}, Sig: sig})
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := DecodeMessage(b)
		if err != nil {
			t.Fatal(err)
		}
		got := out.(WriteRequest)
		for i := range b {
			b[i] = 0
		}
		for _, f := range []struct {
			name      string
			got, want []byte
		}{{"Value", got.Value, value}, {"Sig", got.Sig, sig}} {
			if !bytes.Equal(f.got, f.want) {
				t.Errorf("size %d: %s changed with the frame buffer", size, f.name)
			}
			if cap(f.got) != len(f.got) {
				t.Errorf("size %d: %s has cap %d, len %d", size, f.name, cap(f.got), len(f.got))
			}
		}
	}
}

func TestBinaryReplyEnvelopeRoundTrip(t *testing.T) {
	cases := []ReplyEnvelope{
		{ID: 1, Payload: WriteReply{Stored: true}},
		{ID: 2, Err: "storage exploded"}, // nil payload, unclassified error
		{ID: 3, Payload: ReadReply{Found: true, Value: []byte("v"), Stamp: ts.Stamp{Counter: 9, Writer: 2}}},
		{ID: 1<<64 - 1, Payload: PingReply{ServerID: 41}},
		{ID: 4, Err: "overloaded", ErrKind: ErrKindTransient},
		{ID: 5, Err: "bad codec", ErrKind: ErrKindPermanent},
	}
	for _, env := range cases {
		b, err := AppendReplyEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeReplyEnvelope(b)
		if err != nil {
			t.Fatalf("%+v: %v", env, err)
		}
		if got.ID != env.ID || got.Err != env.Err || got.ErrKind != env.ErrKind {
			t.Fatalf("reply round trip: got %+v want %+v", got, env)
		}
		if (got.Payload == nil) != (env.Payload == nil) {
			t.Fatalf("payload presence: got %+v want %+v", got, env)
		}
	}
}

// TestReplyEnvelopeErrKindSkew pins the version-skew story for the ErrKind
// extension (tag 9): unclassified error replies stay byte-identical to the
// legacy layout (TagNone in the payload slot), a new decoder reading a
// legacy error reply degrades to ErrKindUnknown, and a legacy decoder
// meeting a classified reply fails loudly with ErrUnknownTag — the package's
// documented failure mode for layout extensions — never a silent desync.
func TestReplyEnvelopeErrKindSkew(t *testing.T) {
	// Unclassified error replies carry TagNone: the exact legacy bytes.
	legacy, err := AppendReplyEnvelope(nil, ReplyEnvelope{ID: 7, Err: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	if got := legacy[len(legacy)-1]; got != TagNone {
		t.Fatalf("unclassified error reply ends in tag %d, want TagNone", got)
	}
	dec, err := DecodeReplyEnvelope(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ErrKind != ErrKindUnknown {
		t.Fatalf("legacy error reply decoded with ErrKind %d, want Unknown", dec.ErrKind)
	}

	// A classified reply puts TagErrKind in the payload slot; a decoder
	// predating the tag (simulated by handing the slot to DecodeMessage,
	// which is exactly what the old DecodeReplyEnvelope did) rejects it.
	classified, err := AppendReplyEnvelope(nil, ReplyEnvelope{ID: 7, Err: "boom", ErrKind: ErrKindTransient})
	if err != nil {
		t.Fatal(err)
	}
	slot := classified[len(classified)-2:]
	if slot[0] != TagErrKind {
		t.Fatalf("classified error reply payload slot starts with tag %d, want TagErrKind", slot[0])
	}
	if _, _, err := DecodeMessage(slot); !errors.Is(err, ErrUnknownTag) {
		t.Fatalf("legacy decode of TagErrKind slot: err = %v, want ErrUnknownTag", err)
	}

	// A truncated classified reply (tag without its kind byte) is rejected
	// before any field is trusted.
	if _, err := DecodeReplyEnvelope(classified[:len(classified)-1]); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("truncated ErrKind slot: err = %v, want ErrShortBuffer", err)
	}
}

func TestAppendMessageRejectsUnknownType(t *testing.T) {
	if _, err := AppendMessage(nil, struct{ X int }{1}); err == nil {
		t.Fatal("expected error for non-wire payload type")
	}
}

func TestDecodeMessageRejectsCorruptInput(t *testing.T) {
	cases := [][]byte{
		nil,                 // empty
		{99},                // unknown tag
		{TagReadRequest},    // missing key length
		{TagReadReply, 1},   // truncated after found
		{TagGossipReq, 250}, // item count exceeding buffer
	}
	for _, b := range cases {
		if _, _, err := DecodeMessage(b); err == nil {
			t.Errorf("DecodeMessage(%v) accepted corrupt input", b)
		}
	}
	// A huge length prefix must be rejected before allocation.
	b := append([]byte{TagReadRequest}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, _, err := DecodeMessage(b); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("huge length: err = %v, want ErrShortBuffer", err)
	}
}

// FuzzDecodeMessage asserts the decoders never panic or over-allocate on
// arbitrary bytes: whatever DecodeMessage accepts must re-encode, and the
// compressed-capable envelope decoders must error (not panic, not desync)
// on truncated or corrupted deflate streams and lying length prefixes.
func FuzzDecodeMessage(f *testing.F) {
	seed, err := AppendMessage(nil, WriteRequest{Key: "k", Value: []byte("v"), Stamp: ts.Stamp{Counter: 1, Writer: 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{TagGossipReq, 3, 1, 'k', 0, 1, 1, 0})
	f.Add([]byte{})
	// A well-formed compressed request envelope, plus truncated and
	// corrupted variants and a lying rawLen prefix, to steer the fuzzer
	// into the inflate path.
	env := Envelope{ID: 3, Payload: WriteRequest{Key: "k", Value: bytes.Repeat([]byte("abcd"), 512)}}
	comp, res, err := AppendEnvelopeFlate(nil, env)
	if err != nil {
		f.Fatal(err)
	}
	if !res.Compressed {
		f.Fatal("fuzz seed envelope unexpectedly raw")
	}
	f.Add(comp)
	f.Add(comp[:len(comp)/2])
	corrupt := append([]byte{}, comp...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	lying := append([]byte{}, comp...)
	lying[2] ^= 0x55 // inside the rawLen uvarint
	f.Add(lying)
	f.Add([]byte{TagCompressed, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The compressed-capable decoders must never panic; errors are the
		// expected outcome for hostile input.
		_, _ = DecodeEnvelopeFlate(data)
		_, _ = DecodeReplyEnvelopeFlate(data)
		msg, _, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if _, err := AppendMessage(nil, msg); err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
	})
}

func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	if len(*b) != 0 {
		t.Fatalf("pooled buffer has length %d", len(*b))
	}
	*b = append(*b, make([]byte, 1024)...)
	PutBuffer(b)
	b2 := GetBuffer()
	if len(*b2) != 0 {
		t.Fatalf("recycled buffer has length %d", len(*b2))
	}
	PutBuffer(b2)
}

// Codec activity counters are per-connection now (transport.ConnCodecStats);
// TestTCPStatsAndCoalescing and the admin endpoint test cover them.
