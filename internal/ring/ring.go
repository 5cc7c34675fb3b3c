// Package ring implements the consistent-hash keyspace partition behind
// multi-cell clients: an immutable ring of virtual nodes mapping every key
// to one quorum *cell* (a fixed group of n replicas running its own
// probabilistic quorum system).
//
// The construction is the classical consistent-hash ring (Karger et al.;
// the same shape production sharded clients such as memcache routers use):
// each member cell contributes Vnodes points on a 64-bit hash circle, a key
// hashes to a point on the circle, and the first member point at or after
// it (wrapping) owns the key. Virtual nodes smooth the arc lengths, so the
// expected fraction of the keyspace per cell is 1/|members| with variance
// shrinking as Vnodes grows; when the member set changes, only the keys on
// the arcs adjacent to the joining or leaving cell's points move — the
// property that makes Join/Leave rebalancing cheap.
//
// Everything here is a pure function of its inputs: hashing is FNV-1a
// (seedless, stable across processes), so every client that holds the same
// View routes every key identically — which is what lets the chaos
// harness replay multi-cell runs byte-for-byte and lets the per-cell ε
// accounting attribute each operation to exactly one cell.
package ring

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is the virtual-node count per cell used when a View or
// client configuration leaves Vnodes zero. 64 keeps the max/mean keyspace
// imbalance within a few percent for small member counts while keeping
// ring construction and lookup (binary search over members×64 points)
// trivially cheap.
const DefaultVnodes = 64

// MaxVnodes caps the virtual-node count per cell a ring is built with, a
// decoded view's included: a ring of 16-byte points then costs at most
// 64 KiB per member, so a hostile view cannot make a client allocate
// gigabytes.
const MaxVnodes = 4096

// point is one virtual node: a position on the hash circle owned by a cell.
type point struct {
	hash uint64
	cell int
}

// Ring is an immutable consistent-hash ring over a set of member cells.
// Construct with New (or View.Ring); safe for concurrent use.
type Ring struct {
	points []point
}

// New builds a ring over the given member cell ids with vnodes virtual
// nodes per member (0 means DefaultVnodes, at most MaxVnodes). Member ids
// must be non-negative and distinct.
func New(members []int, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ring: at least one member cell is required")
	}
	if vnodes == 0 {
		vnodes = DefaultVnodes
	}
	if vnodes < 1 || vnodes > MaxVnodes {
		return nil, fmt.Errorf("ring: vnodes %d outside [1, %d]", vnodes, MaxVnodes)
	}
	seen := make(map[int]bool, len(members))
	r := &Ring{points: make([]point, 0, len(members)*vnodes)}
	for _, m := range members {
		if m < 0 {
			return nil, fmt.Errorf("ring: member cell id %d must be non-negative", m)
		}
		if seen[m] {
			return nil, fmt.Errorf("ring: duplicate member cell id %d", m)
		}
		seen[m] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: pointHash(m, v), cell: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit collision between distinct vnodes is astronomically
		// unlikely; break it by cell id so the order — and with it every
		// client's routing — is still a pure function of the member set.
		return r.points[i].cell < r.points[j].cell
	})
	return r, nil
}

// Lookup returns the member cell owning key: the cell of the first virtual
// node at or clockwise-after the key's position on the circle.
func (r *Ring) Lookup(key string) int {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the circle's start
	}
	return r.points[i].cell
}

// keyHash positions a key on the circle: FNV-1a 64 finalized with
// splitmix64. Raw FNV of short structured inputs leaves the high bits
// poorly mixed (vnode points would cluster on the circle and skew arc
// lengths badly); the finalizer decorrelates them.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// pointHash positions virtual node v of cell m on the circle. The input is
// a fixed 16-byte encoding rather than a formatted string, so the layout
// can never collide with (or allocate like) key hashing.
func pointHash(m, v int) uint64 {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(m))
	binary.BigEndian.PutUint64(buf[8:16], uint64(v))
	h := fnv.New64a()
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// mix64 is the standard splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// View is a versioned description of the ring membership — the unit
// diffusion re-advertises when cells join or leave. Higher versions win;
// clients swap their ring atomically when they learn a newer view (see
// register.Client.ApplyView / RefreshView).
type View struct {
	// Version orders views; a client only adopts a view strictly newer
	// than the one it routes by.
	Version uint64 `json:"version"`
	// Members are the cell ids currently serving the keyspace.
	Members []int `json:"members"`
	// Vnodes is the virtual-node count per member (0 = DefaultVnodes).
	Vnodes int `json:"vnodes,omitempty"`
}

// Ring materializes the view.
func (v View) Ring() (*Ring, error) { return New(v.Members, v.Vnodes) }

// viewMagic versions the View wire encoding.
const viewMagic = 0x52 // 'R'

// Encode serializes the view for storage in a replicated register entry
// (fixed-width big-endian fields; deterministic, so the same view encodes
// to the same bytes on every writer).
func (v View) Encode() []byte {
	buf := make([]byte, 0, 1+8+4+4+4*len(v.Members))
	buf = append(buf, viewMagic)
	buf = binary.BigEndian.AppendUint64(buf, v.Version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(v.Vnodes))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Members)))
	for _, m := range v.Members {
		buf = binary.BigEndian.AppendUint32(buf, uint32(m))
	}
	return buf
}

// DecodeView parses an encoded view, refusing a Vnodes above MaxVnodes: a
// decoded view's ring is bounded by its input.
func DecodeView(b []byte) (View, error) {
	if len(b) < 1+8+4+4 || b[0] != viewMagic {
		return View{}, fmt.Errorf("ring: malformed view encoding (%d bytes)", len(b))
	}
	v := View{
		Version: binary.BigEndian.Uint64(b[1:9]),
		Vnodes:  int(binary.BigEndian.Uint32(b[9:13])),
	}
	if v.Vnodes > MaxVnodes {
		return View{}, fmt.Errorf("ring: view has %d vnodes per member, more than %d", v.Vnodes, MaxVnodes)
	}
	n := int(binary.BigEndian.Uint32(b[13:17]))
	if len(b) != 17+4*n {
		return View{}, fmt.Errorf("ring: view encoding truncated: %d members, %d bytes", n, len(b))
	}
	v.Members = make([]int, n)
	for i := 0; i < n; i++ {
		v.Members[i] = int(binary.BigEndian.Uint32(b[17+4*i : 21+4*i]))
	}
	return v, nil
}
