package tlb

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
)

// TestRestoreRoundTrip: a restored TLB holds the same entries and makes
// the same victim choices as the original.
func TestRestoreRoundTrip(t *testing.T) {
	a := New("main", 8, armv7.PagesPerLargePage)
	flags := arch.PTEValid | arch.PTEUser | arch.PTEExec
	for i := 0; i < 8; i++ {
		a.Insert(arch.VirtAddr(i%3)<<arch.PageShift, arch.ASID(1+i%4), arch.FrameNum(i), flags, armv7.DomainUser)
	}
	a.Lookup(0, 1, armv7.StockDACR(), arch.AccessFetch)
	b, err := Restore(a.SnapshotState(), armv7.PagesPerLargePage)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		va := arch.VirtAddr(10+i) << arch.PageShift
		if sa, sb := a.Insert(va, 1, 0, flags, armv7.DomainUser), b.Insert(va, 1, 0, flags, armv7.DomainUser); sa != sb {
			t.Fatalf("insert %d: original evicts slot %d, restored slot %d", i, sa, sb)
		}
	}
	if !reflect.DeepEqual(a.SnapshotState(), b.SnapshotState()) {
		t.Error("restored TLB diverged from the original")
	}
}

// TestRestoreRejects: snapshots no TLB can produce are errors.
func TestRestoreRejects(t *testing.T) {
	valid := func(vpn uint32, lastUse uint64) EntrySnapshot {
		return EntrySnapshot{Valid: true, VPN: vpn, ASID: 1, LastUse: lastUse}
	}
	for _, tc := range []struct {
		name    string
		entries []EntrySnapshot
		want    string
	}{
		{"no slots", nil, "no entry slots"},
		{"use after clock", []EntrySnapshot{valid(1, 11)}, "after clock"},
		{"unmasked large page", []EntrySnapshot{{Valid: true, VPN: 0x13, Large: true, LastUse: 1}}, "unmasked"},
		// Equal lastUse leaves the LRU order, and so every later victim,
		// undefined.
		{"duplicate last use", []EntrySnapshot{valid(1, 5), {}, valid(2, 7), valid(3, 5)}, "slots 0 and 3 share last use 5"},
	} {
		s := Snapshot{Name: "main", Clock: 10, Entries: tc.entries}
		if _, err := Restore(s, armv7.PagesPerLargePage); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
