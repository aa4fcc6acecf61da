// Persistent-image support: serializable snapshots (internal/imagestore).
// Only the architectural state — the entry array, the clock, and the
// counters — is stored; the derived index structures (bucket chains,
// validBits, LRU list) are rebuilt at restore, in the same way New plus
// a replay of inserts would build them.

package tlb

import (
	"fmt"
	"sort"

	"repro/internal/arch"
)

// EntrySnapshot is the serializable form of one TLB entry. VPN is the
// stored (pre-masked, for large pages) page number, exactly as Insert
// keeps it.
type EntrySnapshot struct {
	Valid   bool
	VPN     uint32
	ASID    arch.ASID
	Global  bool
	Large   bool
	Domain  uint8
	Frame   arch.FrameNum
	Flags   arch.PTEFlags
	LastUse uint64
}

// Snapshot is the serializable state of one TLB.
type Snapshot struct {
	Name            string
	DomainMatchInHW bool
	Clock           uint64
	Stats           Stats
	Entries         []EntrySnapshot
}

// SnapshotState captures the TLB's architectural state. Entries has one
// element per slot, invalid slots included, so slot numbers survive the
// round trip.
func (t *TLB) SnapshotState() Snapshot {
	s := Snapshot{
		Name:            t.name,
		DomainMatchInHW: t.DomainMatchInHW,
		Clock:           t.clock,
		Stats:           t.stats,
		Entries:         make([]EntrySnapshot, len(t.entries)),
	}
	for i, e := range t.entries {
		s.Entries[i] = EntrySnapshot{
			Valid: e.valid, VPN: e.vpn, ASID: e.asid, Global: e.global,
			Large: e.large, Domain: e.domain, Frame: e.frame,
			Flags: e.flags, LastUse: e.lastUse,
		}
	}
	return s
}

// Restore rebuilds a TLB from its snapshot. pagesPerLarge is the owning
// architecture's large-page factor, exactly as passed to New. The LRU
// list is reconstructed by pushing the valid slots in ascending lastUse
// order — exact, because lastUse values are unique (every Lookup and
// Insert ticks the clock). A snapshot with two valid entries of equal
// lastUse has no defined LRU order and is rejected.
func Restore(s Snapshot, pagesPerLarge int) (*TLB, error) {
	if len(s.Entries) == 0 {
		return nil, fmt.Errorf("tlb: snapshot %q has no entry slots", s.Name)
	}
	t := New(s.Name, len(s.Entries), pagesPerLarge)
	t.DomainMatchInHW = s.DomainMatchInHW
	t.clock = s.Clock
	t.stats = s.Stats
	var valid []int32
	for i, es := range s.Entries {
		if !es.Valid {
			continue
		}
		if es.LastUse > s.Clock {
			return nil, fmt.Errorf("tlb: snapshot %q slot %d used at %d, after clock %d", s.Name, i, es.LastUse, s.Clock)
		}
		if es.Large && es.VPN&t.largeMask != 0 {
			return nil, fmt.Errorf("tlb: snapshot %q slot %d has unmasked large-page VPN %#x", s.Name, i, es.VPN)
		}
		t.entries[i] = Entry{
			valid: true, vpn: es.VPN, asid: es.ASID, global: es.Global,
			large: es.Large, domain: es.Domain, frame: es.Frame,
			flags: es.Flags, lastUse: es.LastUse,
		}
		slot := int32(i)
		t.idxAdd(slot)
		t.setValid(slot)
		valid = append(valid, slot)
	}
	sort.Slice(valid, func(a, b int) bool {
		return t.entries[valid[a]].lastUse < t.entries[valid[b]].lastUse
	})
	for i, slot := range valid {
		if i > 0 && t.entries[slot].lastUse == t.entries[valid[i-1]].lastUse {
			a, b := min(slot, valid[i-1]), max(slot, valid[i-1])
			return nil, fmt.Errorf("tlb: snapshot %q slots %d and %d share last use %d", s.Name, a, b, t.entries[slot].lastUse)
		}
		t.lruPushBack(slot)
	}
	return t, nil
}
