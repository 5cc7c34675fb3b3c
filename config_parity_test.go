package pqs

// The no-drift gate: the register client and every config that drives it
// share ONE access-tuning block (config.Tuning), the harness configs share
// ONE cluster-shape block (config.Topology), and none of them may grow a
// private copy of a knob.

import (
	"reflect"
	"testing"

	"pqs/internal/chaos"
	"pqs/internal/config"
	"pqs/internal/load"
	"pqs/internal/register"
)

// knobNames is every field name of the given shared blocks. A top-level
// field with one of these names on a config that embeds them is a knob
// copy.
func knobNames(blocks ...reflect.Type) map[string]bool {
	names := map[string]bool{}
	for _, blk := range blocks {
		for i := 0; i < blk.NumField(); i++ {
			names[blk.Field(i).Name] = true
		}
	}
	return names
}

// TestConfigKnobParity: each config embeds the shared blocks it is listed
// with (so every knob is reachable through the one spelling) and has no
// top-level field named like one of their knobs, except the frozen names
// below. Adding a private tuning field to any config fails this test;
// extend config.Tuning instead.
func TestConfigKnobParity(t *testing.T) {
	tuning, topology := reflect.TypeOf(config.Tuning{}), reflect.TypeOf(config.Topology{})
	cases := []struct {
		typ    reflect.Type
		embeds []reflect.Type
		// frozen lists top-level fields that share a knob's name without
		// being a copy of it.
		frozen []string
	}{
		// Transport is the transport.Transport object, not the plane selector.
		{reflect.TypeOf(ClientConfig{}), []reflect.Type{tuning, topology}, []string{"Transport"}},
		{reflect.TypeOf(chaos.Config{}), []reflect.Type{tuning, topology}, nil},
		{reflect.TypeOf(load.Config{}), []reflect.Type{tuning, topology}, nil},
		// The client itself: embeds config.Tuning, no flat copy. Its Cells
		// is its own field; it has no Topology.
		{reflect.TypeOf(register.Options{}), []reflect.Type{tuning}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.typ.String(), func(t *testing.T) {
			knobs := knobNames(tc.embeds...)
			frozen := map[string]bool{}
			for _, n := range tc.frozen {
				frozen[n] = true
			}
			embedded := map[reflect.Type]bool{}
			for i := 0; i < tc.typ.NumField(); i++ {
				f := tc.typ.Field(i)
				if f.Anonymous {
					embedded[f.Type] = true
					continue
				}
				if knobs[f.Name] && !frozen[f.Name] {
					t.Errorf("%s.%s is a flat copy of a shared knob; set it on the embedded block instead", tc.typ, f.Name)
				}
				delete(frozen, f.Name)
			}
			for _, blk := range tc.embeds {
				if !embedded[blk] {
					t.Errorf("%s does not embed %s", tc.typ, blk)
				}
			}
			for n := range frozen {
				t.Errorf("%s.%s is frozen but no longer exists; drop it from the list", tc.typ, n)
			}
		})
	}
}
