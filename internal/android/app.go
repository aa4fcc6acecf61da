// Application launch and steady-state execution.

package android

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Launch-window parameters, calibrated against Section 4.2.2: the window
// begins when the zygote-child first starts executing and ends right
// before it loads its application-specific Java classes; the procedure is
// identical across applications (the HelloWorld benchmark).
const (
	// launchCommonPages is the preloaded-code footprint of the common
	// launch path, drawn from the hottest zygote-populated pages; with
	// the stock kernel each of these costs a soft fault (~1,900 file
	// faults), with shared PTPs almost none do (~110).
	launchCommonPages = 1790
	// launchMapVMAs and launchMapPages describe the app-specific files
	// mapped during launch (dex, oat, resources).
	launchMapVMAs  = 18
	launchMapPages = 16
	// launchPrivateTouches is how many pages of those new mappings the
	// launch touches; these fault under every kernel.
	launchPrivateTouches = 108
	// Launch writes: framework initialization dirties part of the heap,
	// a few library data segments, boot-image data, and the stack.
	launchHeapWrites    = 40
	launchDataWriteLibs = 6
	launchDataWritePgs  = 2
	launchJavaDataPgs   = 10
	launchStackWrites   = 4
	// The compute portion: a hot loop over the most frequently executed
	// pages, with the demand faults of the common launch path
	// interleaved between iterations, as they are in a real launch. The
	// hot set fits the 32KB L1 I-cache, so the kernel fault path's
	// instruction footprint measurably evicts it under the stock
	// kernel; launchBulk abstract compute cycles per visit size the
	// launch so that fault handling is roughly a tenth of stock
	// execution time, as in Figure 7.
	launchHotPages  = 160
	launchHotIters  = 60
	launchVisitLen  = 64
	launchBulkInstr = 6400
)

// App is one launched application instance.
type App struct {
	// Sys is the hosting system.
	Sys *System
	// Proc is the application process.
	Proc *core.Process
	// Profile is the application's access pattern.
	Profile *workload.Profile

	rng       *rand.Rand
	mapCursor arch.VirtAddr

	otherLibPages []arch.VirtAddr
	privatePages  []arch.VirtAddr
	appFilePages  []arch.VirtAddr
	launchPages   []arch.VirtAddr
}

// LaunchStats are the launch-window measurements of Figures 7-9.
type LaunchStats struct {
	// Cycles is the execution time of the launch window.
	Cycles uint64
	// ICacheStalls is the L1 instruction cache stall cycles (Figure 8).
	ICacheStalls uint64
	// ITLBStalls is the instruction main-TLB stall cycles.
	ITLBStalls uint64
	// Instructions and KernelInstructions split the executed
	// instructions between user and kernel space.
	Instructions       uint64
	KernelInstructions uint64
	// FileFaults is the page faults for file-based mappings (Figure 9).
	FileFaults uint64
	// PageFaults is all soft page faults.
	PageFaults uint64
	// PTPsAllocated is the PTPs allocated during the window (Figure 9).
	PTPsAllocated uint64
}

// LaunchApp forks an application from the zygote and executes the common
// launch procedure, measuring the launch window. runSeed perturbs the
// run-to-run variation (the box-plot spread of Figures 7 and 8).
func (sys *System) LaunchApp(profile *workload.Profile, runSeed int64) (*App, LaunchStats, error) {
	proc, err := sys.ZygoteFork(profile.Spec.Name)
	if err != nil {
		return nil, LaunchStats{}, err
	}
	app := &App{
		Sys:       sys,
		Proc:      proc,
		Profile:   profile,
		rng:       rand.New(rand.NewSource(profile.Spec.Seed*1000 + runSeed)),
		mapCursor: appMapBase,
	}

	// Window start: snapshot the child's counters.
	k := sys.Kernel
	c0 := proc.Ctx.Stats
	m0 := proc.MM.Counters
	pt0 := proc.MM.PT.Stats().PTPsAllocated

	err = k.Run(proc, func() error {
		u := sys.Universe
		hot := u.ZygoteSet() // hotness-ordered

		// The common launch path: app_process plus the hottest preloaded
		// code. A small jitter in coverage produces run-to-run variation.
		n := launchCommonPages + app.rng.Intn(41) - 20
		if n > len(hot) {
			n = len(hot)
		}
		app.launchPages = app.launchPages[:0]
		for _, pg := range hot[:n] {
			app.launchPages = append(app.launchPages, sys.CodePageVA(pg))
		}

		// Map and touch the application-specific launch files. Each
		// mapping's touches are one strided fetch run, issued before the
		// next file is mapped, exactly as the per-reference loop did.
		pageStride := arch.VirtAddr(arch.PageSize)
		touched := 0
		for i := 0; i < launchMapVMAs; i++ {
			vma, err := app.mapFile(fmt.Sprintf("%s/launch%d", profile.Spec.Name, i),
				launchMapPages, vm.ProtRead|vm.ProtExec, vm.CatOtherDynLib)
			if err != nil {
				return err
			}
			cnt := (launchMapPages + 2) / 3
			if rest := launchPrivateTouches - touched; cnt > rest {
				cnt = rest
			}
			touch := [1]arch.RefRun{{VA: vma.Start, Stride: 3 * pageStride, Count: cnt, Kind: arch.AccessFetch, Block: 16}}
			if err := k.CPU.AccessBatch(touch[:]); err != nil {
				return err
			}
			touched += cnt
		}

		// Framework initialization writes: heap, library data segments,
		// boot-image data, and the stack (top-down), as one stream.
		var rs arch.RefStream
		rs.AddRun(arch.RefRun{VA: heapBase, Stride: pageStride, Count: launchHeapWrites, Kind: arch.AccessWrite})
		libs := profile.UsedLibs
		for i := 0; i < launchDataWriteLibs && i < len(libs); i++ {
			n := launchDataWritePgs
			if d := sys.Universe.Libs[libs[i]].DataPages; n > d {
				n = d
			}
			rs.AddRun(arch.RefRun{VA: sys.LibDataVA(libs[i], 0), Stride: pageStride, Count: n, Kind: arch.AccessWrite})
		}
		rs.AddRun(arch.RefRun{VA: sys.javaData, Stride: pageStride, Count: launchJavaDataPgs, Kind: arch.AccessWrite})
		rs.AddRun(arch.RefRun{VA: sys.StackTouchVA(0), Stride: -pageStride, Count: launchStackWrites, Kind: arch.AccessWrite})
		if err := k.CPU.AccessBatch(rs.Runs()); err != nil {
			return err
		}

		// The compute-dominated remainder of the launch: a hot loop over
		// the most executed pages, interleaved with first-touch coverage
		// of the rest of the common launch path (whose soft faults, under
		// the stock kernel, run the kernel fault path and evict hot lines
		// from the L1 I-cache between iterations).
		iters := launchHotIters + app.rng.Intn(7) - 3
		hotN := launchHotPages
		if hotN > len(app.launchPages) {
			hotN = len(app.launchPages)
		}
		cover := app.launchPages[hotN:]
		covered := 0
		totalVisits := iters * hotN
		for it := 0; it < iters; it++ {
			for v, va := range app.launchPages[:hotN] {
				if err := k.CPU.AccessBatch([]arch.RefRun{{VA: va, Count: 1, Kind: arch.AccessFetch, Block: launchVisitLen}}); err != nil {
					return err
				}
				k.CPU.ChargeUser(launchBulkInstr)
				// First-touch the next slice of the launch path, spread
				// evenly through the loop so each stock-kernel fault's
				// kernel-text execution competes with the hot code for
				// the L1 I-cache.
				want := len(cover) * (it*hotN + v + 1) / totalVisits
				for covered < want {
					if err := k.CPU.AccessBatch([]arch.RefRun{{VA: cover[covered], Count: 1, Kind: arch.AccessFetch, Block: 16}}); err != nil {
						return err
					}
					covered++
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, LaunchStats{}, fmt.Errorf("android: launching %s: %w", profile.Spec.Name, err)
	}

	c1 := proc.Ctx.Stats
	m1 := proc.MM.Counters
	ls := LaunchStats{
		Cycles:             c1.Cycles - c0.Cycles,
		ICacheStalls:       c1.ICacheStallCycles - c0.ICacheStallCycles,
		ITLBStalls:         c1.ITLBStallCycles - c0.ITLBStallCycles,
		Instructions:       c1.Instructions - c0.Instructions,
		KernelInstructions: c1.KernelInstructions - c0.KernelInstructions,
		FileFaults:         m1.FileFaults - m0.FileFaults,
		PageFaults:         m1.PageFaults - m0.PageFaults,
		PTPsAllocated:      proc.MM.PT.Stats().PTPsAllocated - pt0,
	}
	return app, ls, nil
}

// OtherLibPages returns the virtual addresses of the app-specific
// dynamic-library pages the run mapped, page by page. A process forked
// from this application (as Chrome forks its sandbox) inherits these
// mappings and, under shared PTPs, their populated translations.
func (a *App) OtherLibPages() []arch.VirtAddr {
	return append([]arch.VirtAddr(nil), a.otherLibPages...)
}

// mapFile creates an app-specific file-backed region in the process's
// private mapping area. As with the real mmap area, consecutive mappings
// land scattered rather than densely packed: each region starts on a
// fresh PTP-span boundary (1MB on ARMv7, 2MB on Sv39 — a fresh PTP),
// which is what makes application-specific mappings contribute their
// own PTPs during launch (Figure 9).
func (a *App) mapFile(name string, pages int, prot vm.Prot, cat vm.Category) (*vm.VMA, error) {
	f := vm.NewFile(a.Sys.Kernel.Phys, name, pages*arch.PageSize)
	span := a.Sys.Kernel.Geometry().SlotSpan()
	start := (a.mapCursor + span - 1) &^ (span - 1)
	v := &vm.VMA{
		Start: start, End: start + arch.VirtAddr(pages*arch.PageSize),
		Prot: prot, Flags: vm.VMAPrivate, File: f, Name: name, Category: cat,
	}
	a.mapCursor = v.End
	if err := a.Sys.Kernel.Mmap(a.Proc, v); err != nil {
		return nil, err
	}
	return v, nil
}

// RunStats are the steady-state measurements of one full application
// execution (Figures 10-12, Tables 1-2, Figures 2-3).
type RunStats struct {
	// Cycles is the total execution time including launch.
	Cycles uint64
	// FileFaults / PageFaults / COWBreaks are the process's fault
	// counters over its whole life.
	FileFaults uint64
	PageFaults uint64
	COWBreaks  uint64
	// PTPsAllocated is every PTP allocated on behalf of the process,
	// including its fork-time copies and unshare copies.
	PTPsAllocated uint64
	// PTPsShared is the number of level-1 slots still attached to
	// shared PTPs at the end of the run.
	PTPsShared int
	// PTPsLive is the number of live level-1 slots at the end.
	PTPsLive int
	// PTEsCopied counts fork-time plus unshare PTE copies.
	PTEsCopied uint64
	// UserInstructions and KernelInstructions split Table 1's ratio.
	UserInstructions   uint64
	KernelInstructions uint64
	// ITLBStalls / ICacheStalls for completeness.
	ITLBStalls   uint64
	ICacheStalls uint64
	// PagesByCategory is the distinct instruction pages executed per
	// region category (Figure 2).
	PagesByCategory map[vm.Category]int
	// FetchesByCategory is the dynamic fetch distribution (Figure 3).
	FetchesByCategory map[vm.Category]uint64
}

// Steady-state execution parameters.
const (
	runVisitLen   = 48
	runBulkInstr  = 900
	runSteadyIter = 30000
)

// Run executes the application's steady state: it maps the app-specific
// libraries and files, covers the profile's entire footprint, performs the
// data writes, then runs a fetch loop distributed per the profile's
// category shares, and finally balances kernel time to the Table 1 ratio.
func (a *App) Run() (RunStats, error) {
	sys, k, p := a.Sys, a.Sys.Kernel, a.Profile
	if err := a.setupAppMappings(); err != nil {
		return RunStats{}, err
	}

	pages := map[vm.Category]int{}
	fetches := map[vm.Category]uint64{}

	preloaded := make([]arch.VirtAddr, 0, len(p.ZygotePreloaded))
	preloadedCat := make([]vm.Category, 0, len(p.ZygotePreloaded))
	var dynPages, javaPages, binPages []arch.VirtAddr
	for _, pg := range p.ZygotePreloaded {
		va := sys.CodePageVA(pg)
		preloaded = append(preloaded, va)
		switch sys.Universe.PageSegment(pg).Kind {
		case "app_process":
			preloadedCat = append(preloadedCat, vm.CatZygoteBinary)
			binPages = append(binPages, va)
		case "dynlib":
			preloadedCat = append(preloadedCat, vm.CatZygoteDynLib)
			dynPages = append(dynPages, va)
		default:
			preloadedCat = append(preloadedCat, vm.CatZygoteJavaLib)
			javaPages = append(javaPages, va)
		}
	}

	err := k.Run(a.Proc, func() error {
		// Coverage pass: execute every instruction page of the footprint.
		// The page visits are one reference stream — the library and
		// private-code regions coalesce into long page-stride runs — and
		// the per-category bookkeeping, which touches no simulated state,
		// follows it.
		var rs arch.RefStream
		for _, va := range preloaded {
			rs.Add(va, arch.AccessFetch, runVisitLen)
		}
		for _, va := range a.otherLibPages {
			rs.Add(va, arch.AccessFetch, runVisitLen)
		}
		for _, va := range a.privatePages {
			rs.Add(va, arch.AccessFetch, runVisitLen)
		}
		if err := k.CPU.AccessBatch(rs.Runs()); err != nil {
			return err
		}
		for _, cat := range preloadedCat {
			pages[cat]++
			fetches[cat]++
		}
		pages[vm.CatOtherDynLib] += len(a.otherLibPages)
		fetches[vm.CatOtherDynLib] += uint64(len(a.otherLibPages))
		pages[vm.CatPrivateCode] += len(a.privatePages)
		fetches[vm.CatPrivateCode] += uint64(len(a.privatePages))
		// Data working set: app files read, anon memory written (heap
		// sweeps that wrap the 16MB region), library globals updated.
		rs.Reset()
		pageStride := arch.VirtAddr(arch.PageSize)
		for _, va := range a.appFilePages {
			rs.Add(va, arch.AccessRead, 0)
		}
		for anon := a.Profile.Spec.AnonPages; anon > 0; {
			cnt := anon
			if cnt > heapPages {
				cnt = heapPages
			}
			rs.AddRun(arch.RefRun{VA: heapBase, Stride: pageStride, Count: cnt, Kind: arch.AccessWrite})
			anon -= cnt
		}
		for _, li := range p.DataWriteLibs {
			n := sys.Universe.Libs[li].DataPages
			if n > 3 {
				n = 3
			}
			rs.AddRun(arch.RefRun{VA: sys.LibDataVA(li, 0), Stride: pageStride, Count: n, Kind: arch.AccessWrite})
		}
		if err := k.CPU.AccessBatch(rs.Runs()); err != nil {
			return err
		}

		// Steady-state fetch loop: pick the category per Figure 3's
		// shares, then a hot-biased page within the category.
		shares := p.Spec.FetchShares
		hotPick := func(pages []arch.VirtAddr) arch.VirtAddr {
			i := int(float64(len(pages)) * a.rng.Float64() * a.rng.Float64())
			return pages[i]
		}
		pick := func() (arch.VirtAddr, vm.Category) {
			r := a.rng.Float64()
			switch {
			case r < shares[workload.FetchPrivate] && len(a.privatePages) > 0:
				return a.privatePages[a.rng.Intn(len(a.privatePages))], vm.CatPrivateCode
			case r < shares[workload.FetchPrivate]+shares[workload.FetchOtherDyn] && len(a.otherLibPages) > 0:
				return a.otherLibPages[a.rng.Intn(len(a.otherLibPages))], vm.CatOtherDynLib
			case r < shares[workload.FetchPrivate]+shares[workload.FetchOtherDyn]+shares[workload.FetchAppProcess] && len(binPages) > 0:
				return binPages[a.rng.Intn(len(binPages))], vm.CatZygoteBinary
			case r < shares[workload.FetchPrivate]+shares[workload.FetchOtherDyn]+shares[workload.FetchAppProcess]+shares[workload.FetchZygoteJava] && len(javaPages) > 0:
				return hotPick(javaPages), vm.CatZygoteJavaLib
			default:
				return hotPick(dynPages), vm.CatZygoteDynLib
			}
		}
		var loopFetches catCounts
		for it := 0; it < runSteadyIter; it++ {
			va, cat := pick()
			if err := k.CPU.AccessBatch([]arch.RefRun{{VA: va, Count: 1, Kind: arch.AccessFetch, Block: runVisitLen}}); err != nil {
				return err
			}
			k.CPU.ChargeUser(runBulkInstr)
			loopFetches[cat]++
		}
		loopFetches.addTo(fetches)

		// Kernel time: I/O-heavy applications spend most instructions in
		// the kernel (Table 1); balance the ratio with kernel execution.
		st := a.Proc.Ctx.Stats
		wantKernel := uint64(float64(st.Instructions) * (100 - p.Spec.UserPct) / p.Spec.UserPct)
		switch {
		case st.KernelInstructions < wantKernel:
			missing := wantKernel - st.KernelInstructions
			// Model the cache footprint of a slice of the kernel work,
			// then account the bulk without per-line simulation.
			polluted := uint64(64 * 1024 / 4)
			if polluted > missing {
				polluted = missing
			}
			k.CPU.KernelExec(int(polluted) * 4)
			if rest := missing - polluted; rest > 0 {
				k.CPU.ChargeKernel(int(rest))
			}
		default:
			// Fault-heavy runs have already overshot the kernel share:
			// the remaining user compute brings the split back to the
			// application's profile. It is spread over the app's fetch
			// distribution so PC samples attribute it faithfully.
			wantUser := uint64(float64(st.KernelInstructions) * p.Spec.UserPct / (100 - p.Spec.UserPct))
			var balanceFetches catCounts
			for st.Instructions < wantUser {
				missing := wantUser - a.Proc.Ctx.Stats.Instructions
				chunk := runBulkInstr * 16
				if uint64(chunk) > missing {
					chunk = int(missing)
				}
				va, cat := pick()
				if err := k.CPU.AccessBatch([]arch.RefRun{{VA: va, Count: 1, Kind: arch.AccessFetch, Block: 16}}); err != nil {
					return err
				}
				k.CPU.ChargeUser(chunk)
				balanceFetches[cat]++
				st = a.Proc.Ctx.Stats
			}
			balanceFetches.addTo(fetches)
		}
		return nil
	})
	if err != nil {
		return RunStats{}, fmt.Errorf("android: running %s: %w", p.Spec.Name, err)
	}

	st := a.Proc.Ctx.Stats
	mc := a.Proc.MM.Counters
	return RunStats{
		Cycles:             st.Cycles,
		FileFaults:         mc.FileFaults,
		PageFaults:         mc.PageFaults,
		COWBreaks:          mc.COWBreaks,
		PTPsAllocated:      a.Proc.MM.PT.Stats().PTPsAllocated,
		PTPsShared:         a.Proc.MM.PT.SharedPTPs(),
		PTPsLive:           a.Proc.MM.PT.LivePTPs(),
		PTEsCopied:         a.Proc.PTEsCopied,
		UserInstructions:   st.Instructions,
		KernelInstructions: st.KernelInstructions,
		ITLBStalls:         st.ITLBStallCycles,
		ICacheStalls:       st.ICacheStallCycles,
		PagesByCategory:    pages,
		FetchesByCategory:  fetches,
	}, nil
}

// catCounts counts fetches per category in a loop without a map write
// per fetch.
type catCounts [vm.CatOtherDynLib + 1]uint64

// addTo adds the non-zero counts to m, so m gains a key only for a
// category the loop fetched from.
func (n *catCounts) addTo(m map[vm.Category]uint64) {
	for cat, v := range n {
		if v != 0 {
			m[vm.Category(cat)] += v
		}
	}
}

// setupAppMappings maps the application-specific dynamic libraries,
// private code and data files described by the profile.
func (a *App) setupAppMappings() error {
	spec := a.Profile.Spec
	// Non-preloaded dynamic libraries, ~64 pages each. Roughly a third
	// are platform-specific libraries (graphics drivers and the like)
	// whose files are common across applications — the part of "all
	// shared code" that lifts Table 2's intersections above the
	// zygote-preloaded ones — and the rest are application-private.
	remaining := spec.OtherLibPages
	platform := remaining / 3
	li := 0
	for remaining > 0 {
		n := 64
		if n > remaining {
			n = remaining
		}
		name := fmt.Sprintf("%s/lib-other%d.so", spec.Name, li)
		if platform > 0 {
			name = fmt.Sprintf("platform/libplat%02d.so", li)
			platform -= n
		}
		vma, err := a.mapFile(name, n, vm.ProtRead|vm.ProtExec, vm.CatOtherDynLib)
		if err != nil {
			return err
		}
		for pg := 0; pg < n; pg++ {
			a.otherLibPages = append(a.otherLibPages, vma.Start+arch.VirtAddr(pg*arch.PageSize))
		}
		remaining -= n
		li++
	}
	// Private code.
	if spec.PrivateCodePages > 0 {
		vma, err := a.mapFile(spec.Name+"/private-code", spec.PrivateCodePages,
			vm.ProtRead|vm.ProtExec, vm.CatPrivateCode)
		if err != nil {
			return err
		}
		for pg := 0; pg < spec.PrivateCodePages; pg++ {
			a.privatePages = append(a.privatePages, vma.Start+arch.VirtAddr(pg*arch.PageSize))
		}
	}
	// App data files (assets, media, databases).
	remaining = spec.AppFilePages
	fi := 0
	for remaining > 0 {
		n := 1024
		if n > remaining {
			n = remaining
		}
		vma, err := a.mapFile(fmt.Sprintf("%s/data%d", spec.Name, fi), n,
			vm.ProtRead, vm.CatOther)
		if err != nil {
			return err
		}
		for pg := 0; pg < n; pg++ {
			a.appFilePages = append(a.appFilePages, vma.Start+arch.VirtAddr(pg*arch.PageSize))
		}
		remaining -= n
		fi++
	}
	return nil
}
