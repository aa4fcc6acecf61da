// Tests for the checkpoint determinism invariant, in three layers:
// a fork is observably identical to a fresh boot; mutating a fork —
// fork/exec, munmap, mprotect, SMP TLB shootdowns — leaves the image
// bit-for-bit unchanged; and an unmodified fork copies no PTE arrays and
// stays allocation-bounded.

package checkpoint

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/pagetable"
	"repro/internal/vm"
	"repro/internal/workload"
)

func bootSys(t *testing.T, opts android.Options) *android.System {
	t.Helper()
	sys, err := android.BootOpts(core.SharedPTP(), android.LayoutOriginal, workload.DefaultUniverse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// storedState is what an image of a machine stores: the system
// snapshot, and the contents of every leaf table and page-cache file it
// indexes.
type storedState struct {
	System android.SystemSnapshot
	Tables []leafState
	Pages  [][]vm.FilePage
}

// leafState is one leaf table's frame and PTEs.
type leafState struct {
	Frame arch.FrameNum
	PTEs  []pagetable.PTE
}

// stateOf renders the state an image of sys stores as JSON: two
// machines store the same state iff their renderings are equal, and the
// text locates a difference readably (see sameState).
func stateOf(sys *android.System) string {
	snap, files, tables := sys.SnapshotState()
	s := storedState{System: snap}
	for _, lt := range tables {
		s.Tables = append(s.Tables, leafState{lt.Frame, lt.SnapshotPTEs()})
	}
	for _, f := range files {
		s.Pages = append(s.Pages, f.SnapshotPages())
	}
	b, err := json.Marshal(&s)
	if err != nil {
		panic(err) // plain data: marshaling cannot fail
	}
	return string(b)
}

// sameState fails t, naming what and showing the text around the
// first difference, unless two stateOf renderings are equal.
func sameState(t *testing.T, got, want, what string) {
	t.Helper()
	if got == want {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	around := func(s string) string {
		return s[max(0, i-100):min(len(s), i+60)]
	}
	t.Errorf("%s: stored state differs at byte %d\n got:  ...%s...\n want: ...%s...", what, i, around(got), around(want))
}

func TestForkMatchesFreshBoot(t *testing.T) {
	img := Capture(bootSys(t, android.Options{}))
	fresh := stateOf(bootSys(t, android.Options{}))
	forkA := stateOf(img.Fork())
	forkB := stateOf(img.Fork())
	sameState(t, forkA, fresh, "fork vs fresh boot")
	sameState(t, forkB, forkA, "two forks of one image")
}

// exercise runs the heaviest mutation mix we have against sys: a full
// app launch/run/exit, plus munmap and mprotect on a zygote child
// (translation changes; with several CPUs these cost TLB shootdowns).
func exercise(t *testing.T, sys *android.System) {
	t.Helper()
	spec := workload.Suite()[0]
	prof := workload.BuildProfile(sys.Universe, spec)
	app, _, err := sys.LaunchApp(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.Exit(app.Proc)

	child, err := sys.ZygoteFork("mutator")
	if err != nil {
		t.Fatal(err)
	}
	var anon, file *vm.VMA
	for _, v := range child.MM.VMAs() {
		if v.File == nil && anon == nil {
			anon = v
		}
		if v.File != nil && file == nil {
			file = v
		}
	}
	if anon == nil || file == nil {
		t.Fatal("fixture child has no anonymous or file-backed VMA to mutate")
	}
	if err := sys.Kernel.Mprotect(child, file.Start, file.End, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := sys.Kernel.Munmap(child, anon.Start, anon.End); err != nil {
		t.Fatal(err)
	}
	sys.Kernel.Exit(child)
}

func TestMutatedForkLeavesImageUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts android.Options
	}{
		{"uniprocessor", android.Options{}},
		{"smp-shootdown", android.Options{CPUs: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := Capture(bootSys(t, tc.opts))
			before := stateOf(img.Proto())
			exercise(t, img.Fork())
			sameState(t, stateOf(img.Proto()), before, "image after mutating a fork")
			// And the image still mints pristine forks afterwards.
			sameState(t, stateOf(img.Fork()), before, "fork minted after mutations")
		})
	}
}

// TestConcurrentForks forks one image from several goroutines at once,
// as parallel sweep workers do, and runs an app launch on each fork. Run
// under the race detector it pins that a fork only reads the image; in
// any mode every fork must end in the same state and leave the image
// unchanged.
func TestConcurrentForks(t *testing.T) {
	img := Capture(bootSys(t, android.Options{}))
	before := stateOf(img.Proto())
	prof := workload.BuildProfile(workload.DefaultUniverse(), workload.HelloWorldSpec())
	const workers = 4
	results := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sys := img.Fork()
			app, _, err := sys.LaunchApp(prof, 1)
			if err != nil {
				t.Error(err)
				return
			}
			sys.Kernel.Exit(app.Proc)
			results[w] = stateOf(sys)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		sameState(t, results[w], results[0], fmt.Sprintf("fork %d vs fork 0 under concurrent forking", w))
	}
	sameState(t, stateOf(img.Proto()), before, "image after concurrent forks")
}

func TestCaptureDetachesFromSource(t *testing.T) {
	sys := bootSys(t, android.Options{})
	img := Capture(sys)
	before := stateOf(img.Proto())
	exercise(t, sys) // mutate the ORIGINAL after capturing
	sameState(t, stateOf(img.Proto()), before, "image after mutating the captured system")
}

func TestCacheMemoizesBoots(t *testing.T) {
	c := NewCache()
	boots := 0
	boot := func() (*android.System, error) {
		boots++
		return android.Boot(core.SharedPTP(), android.LayoutOriginal, workload.DefaultUniverse())
	}
	a, err := c.Image("k1", boot)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Image("k1", boot)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same key returned distinct images")
	}
	if boots != 1 {
		t.Errorf("boot ran %d times for one key, want 1", boots)
	}
	d, err := c.Image("k2", boot)
	if err != nil {
		t.Fatal(err)
	}
	if boots != 2 {
		t.Errorf("boot ran %d times for two keys, want 2", boots)
	}
	if distinct := map[*Image]bool{a: true, b: true, d: true}; len(distinct) != 2 {
		t.Errorf("three lookups of two keys returned %d distinct images, want 2", len(distinct))
	}
}

func TestKeySeparatesParameters(t *testing.T) {
	u := workload.DefaultUniverse()
	otherU := &workload.Universe{AppProcessPages: 1, Libs: u.Libs,
		JavaCodePages: u.JavaCodePages, JavaDataPages: u.JavaDataPages}
	base := Key(core.SharedPTP(), android.LayoutOriginal, u, android.Options{})
	for name, other := range map[string]string{
		"config":   Key(core.Stock(), android.LayoutOriginal, u, android.Options{}),
		"layout":   Key(core.SharedPTP(), android.Layout2MB, u, android.Options{}),
		"universe": Key(core.SharedPTP(), android.LayoutOriginal, otherU, android.Options{}),
		"options":  Key(core.SharedPTP(), android.LayoutOriginal, u, android.Options{CPUs: 4}),
		"arch":     Key(core.SharedPTP(), android.LayoutOriginal, u, android.Options{Arch: "sv39"}),
	} {
		if other == base {
			t.Errorf("key ignores the %s parameter", name)
		}
	}
	if again := Key(core.SharedPTP(), android.LayoutOriginal, u, android.Options{}); again != base {
		t.Error("equal parameters produce unequal keys")
	}
	// The key must be stable across processes: a second universe with the
	// same content and the normalized default architecture name the same
	// image. Both properties are what lets a persistent store built in
	// one process warm-start another.
	if k2 := Key(core.SharedPTP(), android.LayoutOriginal, workload.DefaultUniverse(), android.Options{}); k2 != base {
		t.Error("identical-content universes produce unequal keys")
	}
	if k2 := Key(core.SharedPTP(), android.LayoutOriginal, u, android.Options{Arch: "armv7"}); k2 != base {
		t.Error("explicit armv7 and default arch produce unequal keys")
	}
}

func TestForkSharesAllPTPStorage(t *testing.T) {
	img := Capture(bootSys(t, android.Options{}))
	fork := img.Fork()
	ptps, shared := 0, 0
	for _, p := range img.proto.Kernel.Processes() {
		fp := fork.Kernel.ProcessByPID(p.PID)
		if fp == nil {
			t.Fatalf("fork lost process %d", p.PID)
		}
		for i := 0; i < p.MM.PT.NumSlots(); i++ {
			a, b := p.MM.PT.Slot(i), fp.MM.PT.Slot(i)
			if a.Table == nil {
				continue
			}
			ptps++
			if a.Table.SharesStorage(b.Table) {
				shared++
			}
		}
	}
	if ptps == 0 {
		t.Fatal("fixture has no PTPs")
	}
	if shared != ptps {
		t.Errorf("unmodified fork copied %d of %d PTE arrays; want none", ptps-shared, ptps)
	}
	sc, total := fork.Kernel.Phys.SharedChunks()
	if sc != total {
		t.Errorf("unmodified fork privatized %d of %d frame-metadata chunks; want none", total-sc, total)
	}
}

func TestForkAllocationBounded(t *testing.T) {
	img := Capture(bootSys(t, android.Options{}))
	var sink *android.System
	allocs := testing.AllocsPerRun(10, func() {
		sink = img.Fork()
	})
	_ = sink
	// A fork's allocations are the eagerly copied hot state (TLB entry
	// slices, flat cache line arrays, process/context/File structs) — a
	// machine-shape cost of ~250, independent of how much memory the
	// machine maps. Copying page-cache contents or frame-metadata chunks
	// would add thousands of allocations (one per resident page / chunk),
	// so the bound fails loudly if O(memory-size) copying creeps in;
	// per-PTP copying is pinned directly by TestForkSharesAllPTPStorage.
	resident := 0
	for _, f := range img.proto.Files() {
		if f != nil {
			resident += f.ResidentPages()
		}
	}
	if resident < 1000 {
		t.Fatalf("fixture too small to be meaningful: %d resident pages", resident)
	}
	if max := 400.0; allocs > max {
		t.Errorf("Fork() = %.0f allocs, want <= %.0f (machine has %d resident file pages)", allocs, max, resident)
	}
}
