package wire

// This file implements the hand-rolled binary codec used by the TCP
// transport's fast path (transport.CodecBinary). See the package doc for the
// frame layout, the type-tag table and the versioning rule.
//
// Design constraints, in order:
//
//  1. Zero reflection on the hot path. Every message implements
//     AppendTo([]byte) []byte / DecodeFrom([]byte) ([]byte, error)
//     directly against the wire bytes.
//  2. Bounded allocation. Encoders append into caller-supplied (usually
//     pooled, see GetBuffer/PutBuffer) buffers; decoders copy variable-length
//     fields out of the shared read buffer exactly once, because the buffer
//     is reused for the next frame while decoded values escape to the
//     protocol layer.
//  3. Hostile input safety. Every length read from the wire is checked
//     against the bytes actually remaining before any allocation, so a
//     corrupt or malicious frame cannot make the decoder allocate more than
//     the frame's own size (FuzzDecodeMessage locks this in).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"pqs/internal/ts"
)

// Type tags identifying each message on the wire. Tags are append-only and
// never reused: changing a message's field layout requires minting a new tag
// (see the versioning rule in the package doc). Tag 0 is reserved for "no
// payload" in reply envelopes.
const (
	TagNone         byte = 0
	TagReadRequest  byte = 1
	TagReadReply    byte = 2
	TagWriteRequest byte = 3
	TagWriteReply   byte = 4
	TagGossipReq    byte = 5
	TagGossipReply  byte = 6
	TagPingRequest  byte = 7
	TagPingReply    byte = 8
	// TagErrKind is valid only in a reply envelope's payload slot: it
	// carries no message, just one ErrKind* byte classifying the reply's
	// error. Minted (rather than appending a field to the envelope layout)
	// so a decoder predating it fails the frame with ErrUnknownTag instead
	// of desyncing; see the versioning rule in the package doc.
	TagErrKind byte = 9
	// TagCompressed wraps a DEFLATE-compressed tagged message in an
	// envelope's payload slot (transport.CodecBinaryFlate; see flate.go).
	// Minted as its own tag so a decoder predating compression fails the
	// frame with ErrUnknownTag instead of misparsing deflate bytes.
	TagCompressed byte = 10
	// TagGossipDeltaReq / TagGossipDeltaReply carry the watermark-bounded
	// anti-entropy exchange that supersedes the full-snapshot
	// GossipRequest/GossipReply pair for WAN deployments.
	TagGossipDeltaReq   byte = 11
	TagGossipDeltaReply byte = 12
)

// Codec decode errors.
var (
	// ErrShortBuffer indicates a message was truncated.
	ErrShortBuffer = errors.New("wire: short buffer")
	// ErrUnknownTag indicates an unrecognized message type tag.
	ErrUnknownTag = errors.New("wire: unknown message tag")
)

// Codec activity counters live with the transport now, one set per
// connection (transport.ConnCodecStats): the process-wide atomics this
// package used to bump on every encode and decode were a single cache line
// shared by every connection in the process — measurable contention on the
// hot path, and useless for attributing traffic. The codec itself is
// counter-free.

// bufPool recycles encode scratch buffers across calls and connections.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// GetBuffer returns a pooled byte buffer (length 0) for encoding frames.
// Return it with PutBuffer when the bytes have been flushed to the wire.
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer recycles a buffer obtained from GetBuffer. Oversized buffers
// (from the occasional huge gossip frame) are dropped rather than pinned in
// the pool.
func PutBuffer(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// --- primitive append/decode helpers -----------------------------------

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func decodeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrShortBuffer
	}
	return v, b[n:], nil
}

// appendBytes writes a uvarint length followed by the raw bytes. nil and
// empty slices are indistinguishable on the wire (both decode to nil, which
// matches what an encoding/gob round trip produces).
func appendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// decodeBytes reads a length-prefixed field, copying it out of b (the read
// buffer is reused for the next frame, decoded values escape) into a slice
// of its exact length, so a consumer's append reallocates. A zero length
// decodes to nil.
func decodeBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := decodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, ErrShortBuffer
	}
	if n == 0 {
		return nil, rest, nil
	}
	// make(len(src)) then copy(src) is the form the compiler fuses into one
	// allocation that skips zeroing the bytes the copy overwrites.
	src := rest[:n]
	out := make([]byte, len(src))
	copy(out, src)
	return out, rest[n:], nil
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func decodeString(b []byte) (string, []byte, error) {
	n, rest, err := decodeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, ErrShortBuffer
	}
	return string(rest[:n]), rest[n:], nil
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func decodeBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, ErrShortBuffer
	}
	return b[0] != 0, b[1:], nil
}

func appendStamp(b []byte, s ts.Stamp) []byte {
	b = appendUvarint(b, s.Counter)
	return appendUvarint(b, uint64(s.Writer))
}

func decodeStamp(b []byte) (ts.Stamp, []byte, error) {
	c, b, err := decodeUvarint(b)
	if err != nil {
		return ts.Stamp{}, nil, err
	}
	w, b, err := decodeUvarint(b)
	if err != nil {
		return ts.Stamp{}, nil, err
	}
	return ts.Stamp{Counter: c, Writer: uint32(w)}, b, nil
}

// --- per-message AppendTo / DecodeFrom ---------------------------------

// AppendTo appends the message body (no tag) to b.
func (m ReadRequest) AppendTo(b []byte) []byte { return appendString(b, m.Key) }

// DecodeFrom decodes the message body from b, returning the unconsumed rest.
func (m *ReadRequest) DecodeFrom(b []byte) ([]byte, error) {
	var err error
	m.Key, b, err = decodeString(b)
	return b, err
}

// AppendTo appends the message body (no tag) to b.
func (m ReadReply) AppendTo(b []byte) []byte {
	b = appendBool(b, m.Found)
	b = appendBytes(b, m.Value)
	b = appendStamp(b, m.Stamp)
	return appendBytes(b, m.Sig)
}

// DecodeFrom decodes the message body from b, returning the unconsumed rest.
func (m *ReadReply) DecodeFrom(b []byte) ([]byte, error) {
	var err error
	if m.Found, b, err = decodeBool(b); err != nil {
		return nil, err
	}
	if m.Value, b, err = decodeBytes(b); err != nil {
		return nil, err
	}
	if m.Stamp, b, err = decodeStamp(b); err != nil {
		return nil, err
	}
	m.Sig, b, err = decodeBytes(b)
	return b, err
}

// AppendTo appends the message body (no tag) to b.
func (m WriteRequest) AppendTo(b []byte) []byte {
	b = appendString(b, m.Key)
	b = appendBytes(b, m.Value)
	b = appendStamp(b, m.Stamp)
	return appendBytes(b, m.Sig)
}

// DecodeFrom decodes the message body from b, returning the unconsumed rest.
func (m *WriteRequest) DecodeFrom(b []byte) ([]byte, error) {
	var err error
	if m.Key, b, err = decodeString(b); err != nil {
		return nil, err
	}
	if m.Value, b, err = decodeBytes(b); err != nil {
		return nil, err
	}
	if m.Stamp, b, err = decodeStamp(b); err != nil {
		return nil, err
	}
	m.Sig, b, err = decodeBytes(b)
	return b, err
}

// AppendTo appends the message body (no tag) to b.
func (m WriteReply) AppendTo(b []byte) []byte { return appendBool(b, m.Stored) }

// DecodeFrom decodes the message body from b, returning the unconsumed rest.
func (m *WriteReply) DecodeFrom(b []byte) ([]byte, error) {
	var err error
	m.Stored, b, err = decodeBool(b)
	return b, err
}

func appendItem(b []byte, it Item) []byte {
	b = appendString(b, it.Key)
	b = appendBytes(b, it.Value)
	b = appendStamp(b, it.Stamp)
	return appendBytes(b, it.Sig)
}

func decodeItem(b []byte) (Item, []byte, error) {
	var it Item
	var err error
	if it.Key, b, err = decodeString(b); err != nil {
		return it, nil, err
	}
	if it.Value, b, err = decodeBytes(b); err != nil {
		return it, nil, err
	}
	if it.Stamp, b, err = decodeStamp(b); err != nil {
		return it, nil, err
	}
	it.Sig, b, err = decodeBytes(b)
	return it, b, err
}

func appendItems(b []byte, items []Item) []byte {
	b = appendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = appendItem(b, it)
	}
	return b
}

func decodeItems(b []byte) ([]Item, []byte, error) {
	n, b, err := decodeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, b, nil
	}
	// Every item occupies at least 5 bytes (three length prefixes plus a
	// minimal two-uvarint stamp), so a count beyond len/5 is corrupt;
	// reject it before allocating anything for it.
	if n > uint64(len(b))/5 {
		return nil, nil, ErrShortBuffer
	}
	items := make([]Item, 0, n)
	for i := uint64(0); i < n; i++ {
		var it Item
		if it, b, err = decodeItem(b); err != nil {
			return nil, nil, err
		}
		items = append(items, it)
	}
	return items, b, nil
}

// AppendTo appends the message body (no tag) to b.
func (m GossipRequest) AppendTo(b []byte) []byte { return appendItems(b, m.Entries) }

// DecodeFrom decodes the message body from b, returning the unconsumed rest.
func (m *GossipRequest) DecodeFrom(b []byte) ([]byte, error) {
	var err error
	m.Entries, b, err = decodeItems(b)
	return b, err
}

// AppendTo appends the message body (no tag) to b.
func (m GossipReply) AppendTo(b []byte) []byte { return appendItems(b, m.Entries) }

// DecodeFrom decodes the message body from b, returning the unconsumed rest.
func (m *GossipReply) DecodeFrom(b []byte) ([]byte, error) {
	var err error
	m.Entries, b, err = decodeItems(b)
	return b, err
}

// AppendTo appends the message body (no tag) to b.
func (m GossipDeltaRequest) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.Since)
	return appendItems(b, m.Entries)
}

// DecodeFrom decodes the message body from b, returning the unconsumed rest.
func (m *GossipDeltaRequest) DecodeFrom(b []byte) ([]byte, error) {
	var err error
	if m.Since, b, err = decodeUvarint(b); err != nil {
		return nil, err
	}
	m.Entries, b, err = decodeItems(b)
	return b, err
}

// AppendTo appends the message body (no tag) to b.
func (m GossipDeltaReply) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.UpTo)
	return appendItems(b, m.Entries)
}

// DecodeFrom decodes the message body from b, returning the unconsumed rest.
func (m *GossipDeltaReply) DecodeFrom(b []byte) ([]byte, error) {
	var err error
	if m.UpTo, b, err = decodeUvarint(b); err != nil {
		return nil, err
	}
	m.Entries, b, err = decodeItems(b)
	return b, err
}

// uvarintLen returns the encoded size of v as a uvarint, without encoding.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EncodedSize returns the exact number of bytes appendItem would emit for
// it, computed arithmetically so byte accounting (diffusion's
// suppressed-bytes counters) never has to serialize anything.
func (it Item) EncodedSize() int {
	return uvarintLen(uint64(len(it.Key))) + len(it.Key) +
		uvarintLen(uint64(len(it.Value))) + len(it.Value) +
		uvarintLen(it.Stamp.Counter) + uvarintLen(uint64(it.Stamp.Writer)) +
		uvarintLen(uint64(len(it.Sig))) + len(it.Sig)
}

// AppendTo appends the message body (no tag) to b.
func (m PingRequest) AppendTo(b []byte) []byte { return b }

// DecodeFrom decodes the message body from b, returning the unconsumed rest.
func (m *PingRequest) DecodeFrom(b []byte) ([]byte, error) { return b, nil }

// AppendTo appends the message body (no tag) to b.
func (m PingReply) AppendTo(b []byte) []byte {
	return binary.AppendVarint(b, int64(m.ServerID))
}

// DecodeFrom decodes the message body from b, returning the unconsumed rest.
func (m *PingReply) DecodeFrom(b []byte) ([]byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return nil, ErrShortBuffer
	}
	m.ServerID = int(v)
	return b[n:], nil
}

// --- tagged messages and envelopes -------------------------------------

// AppendMessage appends msg's type tag and body to b. It fails on payload
// types outside the 10 wire messages (the binary codec is deliberately
// closed; see the versioning rule in the package doc).
func AppendMessage(b []byte, msg any) ([]byte, error) {

	switch m := msg.(type) {
	case ReadRequest:
		b = m.AppendTo(append(b, TagReadRequest))
	case ReadReply:
		b = m.AppendTo(append(b, TagReadReply))
	case WriteRequest:
		b = m.AppendTo(append(b, TagWriteRequest))
	case WriteReply:
		b = m.AppendTo(append(b, TagWriteReply))
	case GossipRequest:
		b = m.AppendTo(append(b, TagGossipReq))
	case GossipReply:
		b = m.AppendTo(append(b, TagGossipReply))
	case GossipDeltaRequest:
		b = m.AppendTo(append(b, TagGossipDeltaReq))
	case GossipDeltaReply:
		b = m.AppendTo(append(b, TagGossipDeltaReply))
	case PingRequest:
		b = m.AppendTo(append(b, TagPingRequest))
	case PingReply:
		b = m.AppendTo(append(b, TagPingReply))
	default:
		return b, fmt.Errorf("wire: cannot binary-encode %T", msg)
	}
	return b, nil
}

// DecodeMessage decodes one tagged message from b, returning the decoded
// value (a concrete wire struct, not a pointer) and
// the unconsumed rest.
func DecodeMessage(b []byte) (any, []byte, error) {
	if len(b) < 1 {
		return nil, nil, ErrShortBuffer
	}
	tag, body := b[0], b[1:]
	var (
		msg  any
		rest []byte
		err  error
	)
	switch tag {
	case TagReadRequest:
		var m ReadRequest
		rest, err = m.DecodeFrom(body)
		msg = m
	case TagReadReply:
		var m ReadReply
		rest, err = m.DecodeFrom(body)
		msg = m
	case TagWriteRequest:
		var m WriteRequest
		rest, err = m.DecodeFrom(body)
		msg = m
	case TagWriteReply:
		var m WriteReply
		rest, err = m.DecodeFrom(body)
		msg = m
	case TagGossipReq:
		var m GossipRequest
		rest, err = m.DecodeFrom(body)
		msg = m
	case TagGossipReply:
		var m GossipReply
		rest, err = m.DecodeFrom(body)
		msg = m
	case TagGossipDeltaReq:
		var m GossipDeltaRequest
		rest, err = m.DecodeFrom(body)
		msg = m
	case TagGossipDeltaReply:
		var m GossipDeltaReply
		rest, err = m.DecodeFrom(body)
		msg = m
	case TagPingRequest:
		var m PingRequest
		rest, err = m.DecodeFrom(body)
		msg = m
	case TagPingReply:
		var m PingReply
		rest, err = m.DecodeFrom(body)
		msg = m
	default:
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	if err != nil {
		return nil, nil, err
	}
	return msg, rest, nil
}

// AppendEnvelope appends a request envelope body (no frame length prefix;
// the transport adds it) to b.
func AppendEnvelope(b []byte, env Envelope) ([]byte, error) {
	b = appendUvarint(b, env.ID)
	return AppendMessage(b, env.Payload)
}

// DecodeEnvelope decodes a request envelope body produced by AppendEnvelope.
func DecodeEnvelope(b []byte) (Envelope, error) {
	var env Envelope
	var err error
	if env.ID, b, err = decodeUvarint(b); err != nil {
		return env, err
	}
	env.Payload, b, err = DecodeMessage(b)
	if err != nil {
		return env, err
	}
	if len(b) != 0 {
		return env, fmt.Errorf("wire: %d trailing bytes after envelope", len(b))
	}
	return env, nil
}

// AppendReplyEnvelope appends a reply envelope body to b. Error replies
// carry no payload: their payload slot holds TagNone when the error is
// unclassified — byte-identical to the pre-ErrKind layout — or TagErrKind
// plus one classification byte otherwise (a minted tag, per the versioning
// rule, so decoders predating it fail the frame instead of desyncing).
// Success replies with a nil payload are written as TagNone.
func AppendReplyEnvelope(b []byte, env ReplyEnvelope) ([]byte, error) {
	b = appendUvarint(b, env.ID)
	b = appendString(b, env.Err)
	if env.Err != "" {
		if env.ErrKind == ErrKindUnknown {
			return append(b, TagNone), nil
		}
		return append(b, TagErrKind, env.ErrKind), nil
	}
	if env.Payload == nil {
		return append(b, TagNone), nil
	}
	return AppendMessage(b, env.Payload)
}

// DecodeReplyEnvelope decodes a reply envelope body produced by
// AppendReplyEnvelope. A payload slot holding TagNone leaves ErrKind at
// ErrKindUnknown, so replies from peers predating the kind extension decode
// as unclassified (retryable) rather than failing.
func DecodeReplyEnvelope(b []byte) (ReplyEnvelope, error) {
	var env ReplyEnvelope
	var err error
	if env.ID, b, err = decodeUvarint(b); err != nil {
		return env, err
	}
	if env.Err, b, err = decodeString(b); err != nil {
		return env, err
	}
	if len(b) < 1 {
		return env, ErrShortBuffer
	}
	switch b[0] {
	case TagNone:
		b = b[1:]
	case TagErrKind:
		if len(b) < 2 {
			return env, ErrShortBuffer
		}
		env.ErrKind = b[1]
		b = b[2:]
	default:
		if env.Payload, b, err = DecodeMessage(b); err != nil {
			return env, err
		}
	}
	if len(b) != 0 {
		return env, fmt.Errorf("wire: %d trailing bytes after reply envelope", len(b))
	}
	return env, nil
}
