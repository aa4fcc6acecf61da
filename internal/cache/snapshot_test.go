package cache

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
)

// snapshotFixture returns an L1-geometry cache whose sets are in every
// state a snapshot can meet — full, partly filled, and empty.
func snapshotFixture() *Cache {
	c := New(Config{Name: "L1D", Size: 4 << 10, LineSize: 32, Assoc: 4, HitLatency: 1}, nil, 50)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		// Sets 0..15 see up to 8 tags, sets 16..23 at most 2; the
		// upper half of the sets stays empty.
		si := rng.Intn(24)
		n := 8
		if si >= 16 {
			n = 2
		}
		tag := uint32(rng.Intn(n))<<c.fpShift | uint32(si)
		c.Access(arch.PhysAddr(tag) << c.setShift)
	}
	return c
}

// TestSnapshotRestoreRoundTrip pins that the column-form snapshot holds
// everything the set records need: the restored level has records,
// including the derived valid-way counts and fingerprints, equal to the
// captured ones, it snapshots
// and counts like the captured one, and it then serves accesses exactly
// as the captured level does.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c := snapshotFixture()
	snap := c.SnapshotState()
	r, err := Restore(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.SnapshotState(), snap) {
		t.Fatal("restored level snapshots differently from the captured one")
	}
	if got, want := occupancy(r), occupancy(c); got != want {
		t.Fatalf("restored occupancy %d, captured %d", got, want)
	}
	if r.stats != c.stats {
		t.Fatalf("restored stats %+v, captured %+v", r.stats, c.stats)
	}
	for si := range c.sets {
		if r.sets[si] != c.sets[si] {
			t.Fatalf("set %d restored as %+v, captured %+v", si, r.sets[si], c.sets[si])
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		pa := arch.PhysAddr(rng.Intn(16<<10)) &^ 31
		if got, want := r.Access(pa), c.Access(pa); got != want {
			t.Fatalf("access %d (%#x): restored level stalls %d, captured %d", i, pa, got, want)
		}
	}
	if r.stats != c.stats || !reflect.DeepEqual(r.SnapshotState(), c.SnapshotState()) {
		t.Fatal("restored level diverged from the captured one under the same accesses")
	}
}

// TestRestoreRejectsUnrepresentable feeds Restore snapshots that break
// an invariant of the set records. Each must fail with an error naming
// the broken invariant, never panic and never load.
func TestRestoreRejectsUnrepresentable(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(s *Snapshot, assoc int)
		want   string
	}{
		{
			// Set 16 holds two tags in ways 0 and 1: emptying way 0
			// leaves way 1 valid after an empty way.
			name: "valid way after an empty one",
			mutate: func(s *Snapshot, assoc int) {
				s.Tags[16*assoc] = tagInvalid
			},
			want: "valid after an empty way",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := snapshotFixture()
			if c.sets[16].used != 2 {
				t.Fatalf("fixture set 16 = %+v, want two valid ways", c.sets[16])
			}
			s := c.SnapshotState()
			tc.mutate(&s, c.assoc)
			if _, err := Restore(s, nil); err == nil {
				t.Fatal("Restore accepted the snapshot")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore error %q, want one containing %q", err, tc.want)
			}
		})
	}
}
