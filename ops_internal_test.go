package ares

import (
	"reflect"
	"testing"

	"github.com/ares-storage/ares/internal/cfg"
)

// TestRetiredTrail walks fake successor records: a clean chain ends where
// the records do, and a self-loop or a 2-cycle ends at the first repeated
// ID with the cycle reported.
func TestRetiredTrail(t *testing.T) {
	cases := []struct {
		name      string
		successor map[cfg.ID]cfg.ID
		trail     []string
		cycle     bool
	}{
		{"clean chain", map[cfg.ID]cfg.ID{"c0": "c1", "c1": "c2"}, []string{"c1", "c2"}, false},
		{"self-loop", map[cfg.ID]cfg.ID{"c0": "c0"}, []string{"c0"}, true},
		{"2-cycle", map[cfg.ID]cfg.ID{"c0": "c1", "c1": "c0"}, []string{"c1", "c0"}, true},
	}
	for _, tc := range cases {
		trail, cycle := retiredTrail("c0", func(id cfg.ID) (cfg.ID, bool) {
			next, ok := tc.successor[id]
			return next, ok
		})
		if !reflect.DeepEqual(trail, tc.trail) || cycle != tc.cycle {
			t.Errorf("%s: trail %v cycle %v, want %v %v", tc.name, trail, cycle, tc.trail, tc.cycle)
		}
	}
}
