package core

import (
	"fmt"
	"maps"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/arch/sv39"
	"repro/internal/cpu"
	"repro/internal/obs"
)

// machineSources returns every metric source of k: the kernel, each
// core's TLBs and L1s, and the L2 (Kernel.Sources), then each live
// process's address space, page table and CPU context.
func machineSources(k *Kernel) []obs.Source {
	out := k.Sources()
	for _, p := range k.Processes() {
		prefix := fmt.Sprintf("pid%d.", p.PID)
		out = append(out,
			obs.Prefix(prefix, p.MM),
			obs.Prefix(prefix, p.MM.PT),
			obs.Prefix(prefix, cpu.ContextSource{Ctx: p.Ctx}))
	}
	return out
}

// sourceTraffic runs every live process of k on alternating cores: it
// fetches code pages the zygote populated and writes one heap page
// chosen by round, so each round adds faults, walks and cache traffic.
func sourceTraffic(t *testing.T, k *Kernel, round int) {
	t.Helper()
	for i, p := range k.Processes() {
		heap := 0x00200000 + arch.VirtAddr(16*round+i)*arch.PageSize
		c := k.CPUAt(i % 2)
		err := k.RunOn(i%2, p, func() error {
			return c.AccessBatch([]arch.RefRun{
				{VA: 0x00100000, Stride: arch.PageSize, Count: 8, Kind: arch.AccessFetch},
				{VA: heap, Count: 1, Kind: arch.AccessWrite},
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSourceSnapshotContract pins the obs.Source contract on every
// source of a running machine, on both MMU architectures. Snapshot
// returns a fresh map on every call, so a caller that overwrites, adds
// or deletes keys in one changes nothing the source reports next, and a
// retained snapshot stays as taken through more simulation, a run of a
// Clone of the machine, and a Reset. A source that hands out (or
// refills) a map it keeps fails one of these.
func TestSourceSnapshotContract(t *testing.T) {
	for _, m := range []arch.MMU{armv7.MMU(), sv39.MMU()} {
		t.Run(m.Name(), func(t *testing.T) {
			k, err := New(testFrames, WithConfig(SharedPTPTLB()), WithArch(m), WithCPUs(2))
			if err != nil {
				t.Fatal(err)
			}
			parent := buildParent(t, k)
			for i := 0; i < 2; i++ {
				if _, err := k.Fork(parent, fmt.Sprintf("app%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			sourceTraffic(t, k, 0)
			srcs := machineSources(k)
			checkFresh(t, srcs, true)

			// Retain one snapshot per source; taken holds private copies
			// to compare them with.
			retained := make([]map[string]uint64, len(srcs))
			taken := make([]map[string]uint64, len(srcs))
			for i, s := range srcs {
				retained[i] = s.Snapshot()
				taken[i] = maps.Clone(retained[i])
			}
			unchanged := func(stage string, current []obs.Source) {
				t.Helper()
				for _, s := range current {
					s.Snapshot() // a source refilling a kept map would overwrite retained ones here
				}
				for i, s := range srcs {
					if !maps.Equal(retained[i], taken[i]) {
						t.Errorf("%s: retained %s snapshot changed: %v, taken as %v", stage, s.Name(), retained[i], taken[i])
					}
				}
			}

			sourceTraffic(t, k, 1)
			moved := 0
			for i, s := range srcs {
				if !maps.Equal(s.Snapshot(), taken[i]) {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("more traffic moved no counter; the retention checks would prove nothing")
			}
			unchanged("after more simulation", srcs)

			k2, _ := k.Clone()
			sourceTraffic(t, k2, 2)
			clones := machineSources(k2)
			checkFresh(t, clones, false)
			unchanged("after a clone of the machine ran", clones)

			for _, s := range srcs {
				s.Reset()
				for key, v := range s.Snapshot() {
					if v != 0 {
						t.Errorf("%s: %s = %d after Reset, want 0", s.Name(), key, v)
					}
				}
			}
			unchanged("after Reset", srcs)
		})
	}
}

// checkFresh overwrites, adds and deletes keys in one snapshot of each
// source and checks the next snapshot is unaffected. With moving set it
// also requires some non-zero counter in every source, so the traffic
// has reached all of them.
func checkFresh(t *testing.T, srcs []obs.Source, moving bool) {
	t.Helper()
	for _, s := range srcs {
		snap := s.Snapshot()
		want := maps.Clone(snap)
		keys := make([]string, 0, len(snap))
		nonZero := false
		for key, v := range snap {
			keys = append(keys, key)
			nonZero = nonZero || v != 0
		}
		sort.Strings(keys)
		if len(keys) == 0 || (moving && !nonZero) {
			t.Errorf("%s: snapshot %v has no non-zero counter", s.Name(), snap)
			continue
		}
		for _, key := range keys {
			snap[key] = ^snap[key]
		}
		snap["injected"] = 1
		delete(snap, keys[0])
		if got := s.Snapshot(); !maps.Equal(got, want) {
			t.Errorf("%s: mutating a returned snapshot leaked into the next: got %v, want %v", s.Name(), got, want)
		}
	}
}
