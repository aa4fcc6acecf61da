// idxTable is the TLB's key-to-slot index: a small open-addressed hash
// table with linear probing and backward-shift deletion, replacing a Go
// map on the hottest simulator path (every lookup, insert and targeted
// flush probes it). It maps each resident key to the head of that key's
// slot chain (TLB.same). Capacity is four times the entry count rounded up to
// a power of two: at load factor ≤ 1/4 probe chains are nearly always a
// single cell, which keeps both get and the backward-shift in del short,
// and even the main TLB's table is only a few kilobytes. Purely an
// internal layout change: the differential tests against the reference
// linear TLB pin that behaviour is unchanged.

package tlb

// idxEmpty marks a free index cell. Real keys are entryKey values — a
// 20-bit VPN shifted left once — so they can never collide with it.
const idxEmpty = ^uint32(0)

type idxTable struct {
	keys  []uint32
	slots []int32
	mask  uint32
}

func newIdxTable(entries int) idxTable {
	capacity := 1
	for capacity < 4*entries {
		capacity <<= 1
	}
	it := idxTable{
		keys:  make([]uint32, capacity),
		slots: make([]int32, capacity),
		mask:  uint32(capacity - 1),
	}
	for i := range it.keys {
		it.keys[i] = idxEmpty
	}
	return it
}

// hash spreads the key with a Fibonacci multiplier; the xor-fold keeps
// the high bits relevant under the small mask.
func (it *idxTable) hash(k uint32) uint32 {
	h := k * 2654435769
	return (h ^ h>>16) & it.mask
}

// get returns the slot stored under k, or -1 when k is absent.
func (it *idxTable) get(k uint32) int32 {
	i := it.hash(k)
	for {
		kk := it.keys[i]
		if kk == k {
			return it.slots[i]
		}
		if kk == idxEmpty {
			return -1
		}
		i = (i + 1) & it.mask
	}
}

// set inserts k or overwrites its value. The caller keeps at most one
// live key per TLB entry, so the table, at most a quarter full, always
// has room.
func (it *idxTable) set(k uint32, v int32) {
	i := it.hash(k)
	for {
		kk := it.keys[i]
		if kk == k || kk == idxEmpty {
			it.keys[i] = k
			it.slots[i] = v
			return
		}
		i = (i + 1) & it.mask
	}
}

// del removes k, if present, with backward-shift deletion: later entries
// of the probe chain slide back so lookups never need tombstones.
func (it *idxTable) del(k uint32) {
	i := it.hash(k)
	for {
		kk := it.keys[i]
		if kk == idxEmpty {
			return
		}
		if kk == k {
			break
		}
		i = (i + 1) & it.mask
	}
	j := i
	for {
		it.keys[i] = idxEmpty
		var kk uint32
		for {
			j = (j + 1) & it.mask
			kk = it.keys[j]
			if kk == idxEmpty {
				return
			}
			// An entry whose home position lies cyclically in (i, j]
			// is still reachable from its home; leave it. Anything
			// else must slide back into the hole at i.
			h := it.hash(kk)
			if i <= j {
				if i < h && h <= j {
					continue
				}
			} else if h > i || h <= j {
				continue
			}
			break
		}
		it.keys[i] = kk
		it.slots[i] = it.slots[j]
		i = j
	}
}

// clone returns an independent copy, for checkpoint forks.
func (it *idxTable) clone() idxTable {
	return idxTable{
		keys:  append([]uint32(nil), it.keys...),
		slots: append([]int32(nil), it.slots...),
		mask:  it.mask,
	}
}
