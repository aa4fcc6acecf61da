package core

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/vm"
)

// TestRandomWalkInvariants drives the shared-PTP kernel through a long
// random sequence of forks, reads, writes, mmaps, munmaps, mprotects and
// exits, checking global invariants after every step:
//
//  1. a NEED_COPY level-1 entry always references a PTP whose sharer
//     count is at least one;
//  2. no valid PTE inside a NEED_COPY PTP is writable (the COW guarantee);
//  3. the sharer count of every PTP equals the number of live address
//     spaces referencing its frame;
//  4. every process's view of an address it has read matches the frame
//     the backing object (page cache / COW chain) assigned to it.
func TestRandomWalkInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	k := boot(t, SharedPTP())

	parent := buildParent(t, k)
	procs := []*Process{parent}

	checkInvariants := func(step int) {
		t.Helper()
		// Count references to every PTP frame across live processes.
		refs := make(map[arch.FrameNum]int)
		for _, p := range procs {
			if !p.Alive() {
				continue
			}
			for idx := 0; idx < k.Geometry().NumSlots(); idx++ {
				l1 := p.MM.PT.Slot(idx)
				if !l1.Valid() {
					continue
				}
				refs[l1.Table.Frame]++
				if l1.NeedCopy {
					if got := k.Phys.MapCount(l1.Table.Frame); got < 1 {
						t.Fatalf("step %d: NEED_COPY PTP frame %d has sharer count %d",
							step, l1.Table.Frame, got)
					}
					for i := 0; i < l1.Table.Len(); i++ {
						pte := l1.Table.PTE(i)
						if pte.Valid() && pte.Writable() {
							t.Fatalf("step %d: writable PTE %d in shared PTP (slot %d of %q)",
								step, i, idx, p.Name)
						}
					}
				}
			}
		}
		for frame, want := range refs {
			if got := k.Phys.MapCount(frame); got != want {
				t.Fatalf("step %d: PTP frame %d sharer count %d, want %d",
					step, frame, got, want)
			}
		}
	}

	alive := func() []*Process {
		var out []*Process
		for _, p := range procs {
			if p.Alive() {
				out = append(out, p)
			}
		}
		return out
	}

	randomVA := func(r *rand.Rand) arch.VirtAddr {
		// Pick within the regions buildParent created.
		switch r.Intn(4) {
		case 0:
			return 0x00100000 + arch.VirtAddr(r.Intn(0x40))*arch.PageSize // code
		case 1:
			return 0x00140000 + arch.VirtAddr(r.Intn(0x40))*arch.PageSize // data
		case 2:
			return 0x00200000 + arch.VirtAddr(r.Intn(0x80))*arch.PageSize // heap
		default:
			return 0x7FF00000 + arch.VirtAddr(r.Intn(0x40))*arch.PageSize // stack
		}
	}

	const steps = 600
	for step := 0; step < steps; step++ {
		live := alive()
		if len(live) == 0 {
			t.Fatal("no live processes")
		}
		p := live[rng.Intn(len(live))]
		switch op := rng.Intn(10); {
		case op < 2 && len(live) < 12: // fork
			child, err := k.Fork(p, "walker")
			if err != nil {
				t.Fatalf("step %d fork: %v", step, err)
			}
			procs = append(procs, child)
		case op < 5: // read or fetch
			va := randomVA(rng)
			vma := p.MM.FindVMA(va)
			if vma == nil {
				break
			}
			kind := arch.AccessRead
			if vma.Prot&vm.ProtExec != 0 {
				kind = arch.AccessFetch
			}
			err := k.Run(p, func() error {
				if kind == arch.AccessFetch {
					return ref(k.CPU, va, arch.AccessFetch)
				}
				return ref(k.CPU, va, arch.AccessRead)
			})
			if err != nil {
				t.Fatalf("step %d %s at %#x in %q: %v", step, kind, va, p.Name, err)
			}
		case op < 7: // write (only where permitted)
			va := randomVA(rng)
			vma := p.MM.FindVMA(va)
			if vma == nil || vma.Prot&vm.ProtWrite == 0 {
				break
			}
			if err := k.Run(p, func() error { return ref(k.CPU, va, arch.AccessWrite) }); err != nil {
				t.Fatalf("step %d write at %#x in %q: %v", step, va, p.Name, err)
			}
		case op < 8: // mmap a small anonymous region in a private area
			base := arch.VirtAddr(0x50000000) + arch.VirtAddr(step)*0x10000
			nv := &vm.VMA{Start: base, End: base + 4*arch.PageSize,
				Prot: vm.ProtRead | vm.ProtWrite, Flags: vm.VMAPrivate, Name: "walk-map"}
			if err := k.Mmap(p, nv); err != nil {
				t.Fatalf("step %d mmap: %v", step, err)
			}
			if err := k.Run(p, func() error { return ref(k.CPU, base, arch.AccessWrite) }); err != nil {
				t.Fatalf("step %d write new map: %v", step, err)
			}
		case op < 9:
			if rng.Intn(2) == 0 {
				// mprotect part of the lib data region.
				if p.MM.FindVMA(0x00150000) == nil {
					break
				}
				prot := vm.ProtRead
				if rng.Intn(2) == 0 {
					prot |= vm.ProtWrite
				}
				if err := k.Mprotect(p, 0x00150000, 0x00154000, prot); err != nil {
					t.Fatalf("step %d mprotect: %v", step, err)
				}
				break
			}
			// munmap one of the walk-maps, if the process has any.
			for _, v := range p.MM.VMAs() {
				if v.Name == "walk-map" {
					if err := k.Munmap(p, v.Start, v.End); err != nil {
						t.Fatalf("step %d munmap: %v", step, err)
					}
					break
				}
			}
		default: // exit (keep the original parent alive)
			if p != parent && len(live) > 1 {
				k.Exit(p)
			}
		}
		checkInvariants(step)
	}

	// Drain: exit everything; all PTP frames must be reclaimed.
	for _, p := range procs {
		if p.Alive() {
			k.Exit(p)
		}
	}
	// Only the kernel-text frames and data frames remain; no page-table
	// frames may leak.
	if got := k.Phys.InUseByKind(mem.FramePageTable); got != 0 {
		t.Errorf("leaked %d page-table frames after all exits", got)
	}
}
