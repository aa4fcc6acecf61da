package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/arch/sv39"
	"repro/internal/mem"
)

// TestCrossArchConservation runs the same fork/touch/exit workload under
// every registered MMU architecture and checks the count-conservation
// invariants that the paper's results rest on, independent of page-table
// geometry:
//
//  1. every PTP frame's sharer count equals the number of live address
//     spaces referencing it;
//  2. the per-slot populated counts sum to the page table's total;
//  3. forking N children from the zygote shares PTPs on every
//     architecture (the core claim: sharing does not need ARM domains);
//  4. after all exits no page-table frame leaks.
func TestCrossArchConservation(t *testing.T) {
	for _, m := range []arch.MMU{armv7.MMU(), sv39.MMU()} {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			k, err := New(testFrames, WithConfig(SharedPTPTLB()), WithArch(m))
			if err != nil {
				t.Fatal(err)
			}
			if got := k.Arch().Name(); got != m.Name() {
				t.Fatalf("kernel arch = %q, want %q", got, m.Name())
			}
			parent := buildParent(t, k)
			procs := []*Process{parent}
			for i := 0; i < 3; i++ {
				child, err := k.Fork(parent, "worker")
				if err != nil {
					t.Fatal(err)
				}
				procs = append(procs, child)
				// Touch code (shared read-only) and heap (COW) in each child.
				err = k.Run(child, func() error {
					for va := arch.VirtAddr(0x00100000); va < 0x00104000; va += arch.PageSize {
						if err := ref(k.CPU, va, arch.AccessFetch); err != nil {
							return err
						}
					}
					return ref(k.CPU, 0x00200000+arch.VirtAddr(i)*arch.PageSize, arch.AccessWrite)
				})
				if err != nil {
					t.Fatal(err)
				}
			}

			// Invariant 1+2: sharer counts and populated sums.
			refs := make(map[arch.FrameNum]int)
			sharedSlots := 0
			for _, p := range procs {
				pop := 0
				for idx := 0; idx < k.Geometry().NumSlots(); idx++ {
					l1 := p.MM.PT.Slot(idx)
					if !l1.Valid() {
						continue
					}
					refs[l1.Table.Frame]++
					pop += l1.Table.Populated()
					if l1.NeedCopy {
						sharedSlots++
					}
				}
				if got := p.MM.PT.PopulatedPTEs(); got != pop {
					t.Errorf("%s pid %d: PopulatedPTEs() = %d, slot sum = %d",
						m.Name(), p.PID, got, pop)
				}
			}
			for frame, want := range refs {
				if got := k.Phys.MapCount(frame); got != want {
					t.Errorf("%s: PTP frame %d sharer count %d, want %d",
						m.Name(), frame, got, want)
				}
			}

			// Invariant 3: PTP sharing happened without domain registers.
			if sharedSlots == 0 {
				t.Errorf("%s: no shared PTP slots after 3 zygote forks", m.Name())
			}
			ss := k.SharingStats()
			if ss.SharedPTPs == 0 || ss.DistinctPTPs >= ss.TotalPTPs {
				t.Errorf("%s: sharing stats show no sharing: %+v", m.Name(), ss)
			}

			// Invariant 4: all page-table frames reclaimed.
			for _, p := range procs {
				k.Exit(p)
			}
			if got := k.Phys.InUseByKind(mem.FramePageTable); got != 0 {
				t.Errorf("%s: leaked %d page-table frames after all exits", m.Name(), got)
			}
		})
	}
}
