package ring

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

func TestLookupDeterministicAndInMembers(t *testing.T) {
	r, err := New([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		c := r.Lookup(key)
		if c < 0 || c > 3 {
			t.Fatalf("Lookup(%q) = %d outside members", key, c)
		}
		if c2 := r2.Lookup(key); c2 != c {
			t.Fatalf("rings built from the same members disagree on %q: %d vs %d", key, c, c2)
		}
	}
}

func TestBalance(t *testing.T) {
	const cells, keys = 4, 4000
	r, err := New([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cells)
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("key-%d", i))]++
	}
	for c, got := range counts {
		// With 64 vnodes/cell the arc lengths concentrate tightly; accept a
		// generous 2x band around the mean so the test pins gross imbalance
		// (e.g. a cell owning no arc at all), not hash luck.
		if got < keys/cells/2 || got > keys*2/cells {
			t.Fatalf("cell %d owns %d/%d keys; want within [%d, %d]", c, got, keys, keys/cells/2, keys*2/cells)
		}
	}
}

func TestRebalanceMovesOnlyDepartedArcs(t *testing.T) {
	const keys = 2000
	full, err := New([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	without2, err := New([]int{0, 1, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Lookup(key)
		after := without2.Lookup(key)
		if before != 2 && after != before {
			t.Fatalf("key %q moved from surviving cell %d to %d when cell 2 left", key, before, after)
		}
		if before == 2 {
			if after == 2 {
				t.Fatalf("key %q still routes to departed cell 2", key)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the departed cell; balance test should have caught this")
	}
}

func TestNewRejectsBadMembers(t *testing.T) {
	if _, err := New(nil, 0); err == nil {
		t.Fatal("New(nil) should fail")
	}
	if _, err := New([]int{0, 0}, 0); err == nil {
		t.Fatal("duplicate members should fail")
	}
	if _, err := New([]int{-1}, 0); err == nil {
		t.Fatal("negative member should fail")
	}
	if _, err := New([]int{0}, -3); err == nil {
		t.Fatal("negative vnodes should fail")
	}
}

func TestViewEncodeDecodeRoundTrip(t *testing.T) {
	v := View{Version: 7, Members: []int{0, 1, 3}, Vnodes: 32}
	got, err := DecodeView(v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != v.Version || got.Vnodes != v.Vnodes || len(got.Members) != len(v.Members) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, v)
	}
	for i := range v.Members {
		if got.Members[i] != v.Members[i] {
			t.Fatalf("member %d: %d vs %d", i, got.Members[i], v.Members[i])
		}
	}
	if _, err := DecodeView(nil); err == nil {
		t.Fatal("DecodeView(nil) should fail")
	}
	if _, err := DecodeView(v.Encode()[:10]); err == nil {
		t.Fatal("truncated view should fail")
	}
	if _, err := DecodeView(append(v.Encode(), 0)); err == nil {
		t.Fatal("over-long view should fail")
	}
}

func TestVnodesAreCapped(t *testing.T) {
	if _, err := New([]int{0}, MaxVnodes); err != nil {
		t.Fatalf("MaxVnodes refused: %v", err)
	}
	if _, err := New([]int{0}, MaxVnodes+1); err == nil {
		t.Fatal("more than MaxVnodes accepted")
	}
	b := View{Version: 1, Members: []int{0}, Vnodes: MaxVnodes + 1}.Encode()
	if _, err := DecodeView(b); err == nil {
		t.Fatal("a view with more than MaxVnodes decoded")
	}
	b = View{Version: 1, Members: []int{0}}.Encode()
	binary.BigEndian.PutUint32(b[9:13], 0xFFFFFFFF)
	if _, err := DecodeView(b); err == nil {
		t.Fatal("a view with 2^32-1 vnodes decoded")
	}
}

// FuzzDecodeView: whatever the bytes, DecodeView does not panic; a view it
// accepts holds one member per four input bytes past the header and at most
// MaxVnodes, so its ring has no more points than the input bounds, and it
// re-encodes to the same bytes.
func FuzzDecodeView(f *testing.F) {
	f.Add(View{Version: 7, Members: []int{0, 1, 3}, Vnodes: 32}.Encode())
	f.Add(View{Version: 1, Members: []int{0}, Vnodes: MaxVnodes}.Encode())
	f.Add(View{Version: 2, Members: []int{5, 5}}.Encode())
	f.Add([]byte{viewMagic, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := DecodeView(b)
		if err != nil {
			return
		}
		if want := (len(b) - 17) / 4; len(v.Members) != want || v.Vnodes > MaxVnodes {
			t.Fatalf("%d input bytes decoded to %d members and %d vnodes; want %d members and at most %d vnodes",
				len(b), len(v.Members), v.Vnodes, want, MaxVnodes)
		}
		if !bytes.Equal(v.Encode(), b) {
			t.Fatalf("round trip: %x re-encodes to %x", b, v.Encode())
		}
		if r, err := v.Ring(); err == nil && len(r.points) > len(v.Members)*MaxVnodes {
			t.Fatalf("%d members made %d points", len(v.Members), len(r.points))
		}
	})
}
