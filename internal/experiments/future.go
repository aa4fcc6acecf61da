// Studies of the paper's future directions (Sections 3.2.3 and 6):
// hardware that requires a domain match for a TLB hit, which removes the
// domain-fault overhead non-zygote processes pay when they trip over
// global entries; and scheduler grouping, the software fallback for
// architectures without a domain protection model.

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/vm"
)

// DomainMatchStudy runs a zygote application and a non-zygote daemon that
// alternate on one core and overlap in virtual addresses, under the
// shared-TLB kernel. Without hardware domain matching, every daemon access
// that matches a global zygote-domain entry raises a domain-fault
// exception whose handler flushes the matching entries; with it, the
// denied entry simply does not hit and the walk proceeds directly.
func (s *Session) DomainMatchStudy() (*AblationResult, error) {
	measure := func(hwMatch bool) (domainFaults, daemonCycles float64, err error) {
		sys, err := s.Boot(core.SharedPTPTLB(), android.LayoutOriginal)
		if err != nil {
			return 0, 0, err
		}
		k := sys.Kernel
		k.CPU.Main.DomainMatchInHW = hwMatch
		k.CPU.MicroI.DomainMatchInHW = hwMatch
		k.CPU.MicroD.DomainMatchInHW = hwMatch

		app, err := sys.ZygoteFork("app")
		if err != nil {
			return 0, 0, err
		}
		daemon, err := k.NewProcess("daemon")
		if err != nil {
			return 0, 0, err
		}
		// The daemon's binary overlaps the zygote's library area: the
		// pages most likely to be resident as global TLB entries.
		lib0 := sys.CodePageVA(s.Universe().AppProcessPages) // first library page
		f := vm.NewFile(k.Phys, "daemon-bin", 256*arch.PageSize)
		if err := k.Mmap(daemon, &vm.VMA{
			Start: arch.PageBase(lib0), End: arch.PageBase(lib0) + 256*arch.PageSize,
			Prot: vm.ProtRead | vm.ProtExec, Flags: vm.VMAPrivate, File: f, Name: "daemon-bin",
		}); err != nil {
			return 0, 0, err
		}

		rng := rand.New(rand.NewSource(5))
		zygotePages := s.Universe().ZygoteSet()[:256]
		var visits arch.RefStream
		for round := 0; round < 400; round++ {
			// App touches hot shared code, loading global entries.
			err = k.Run(app, func() error {
				visits.Reset()
				for i := 0; i < 8; i++ {
					pg := zygotePages[rng.Intn(len(zygotePages))]
					visits.Add(sys.CodePageVA(pg), arch.AccessFetch, 16)
				}
				return k.CPU.AccessBatch(visits.Runs())
			})
			if err != nil {
				return 0, 0, err
			}
			// Daemon runs over its own (overlapping) addresses.
			err = k.Run(daemon, func() error {
				visits.Reset()
				for i := 0; i < 8; i++ {
					visits.Add(arch.PageBase(lib0)+arch.VirtAddr(rng.Intn(256)*arch.PageSize), arch.AccessFetch, 16)
				}
				return k.CPU.AccessBatch(visits.Runs())
			})
			if err != nil {
				return 0, 0, err
			}
		}
		return float64(daemon.Ctx.Stats.DomainFaults), float64(daemon.Ctx.Stats.Cycles), nil
	}
	b, v, err := sweep.Pair(s.workers(), "future-domainmatch", func(variant bool) (pairMeasure, error) {
		faults, cycles, err := measure(variant)
		return pairMeasure{a: faults, b: cycles}, err
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name: "Hardware domain match for TLB hits (Sections 3.2.3/6)",
		Rows: []AblationRow{
			{Metric: "daemon domain faults", Baseline: b.a, Variant: v.a},
			{Metric: "daemon cycles", Baseline: b.b, Variant: v.b},
		},
		Footnote: "requiring a domain match in hardware removes the exception-and-flush overhead entirely",
	}, nil
}

// SchedulerGroupingResult compares context-switch orderings for the
// software fallback of Section 3.2.3.
type SchedulerGroupingResult struct {
	// Interleaved and Grouped are the total app-side instruction
	// main-TLB stall cycles under each schedule.
	Interleaved uint64
	Grouped     uint64
	// FlushesInterleaved / FlushesGrouped count the protective full
	// flushes each schedule forced.
	FlushesInterleaved int
	FlushesGrouped     int
}

// SchedulerGrouping models TLB sharing on an architecture WITHOUT a
// domain protection model: safety then demands flushing the whole TLB on
// every switch from a zygote-like process to a non-zygote process. The
// paper suggests separating the two kinds of processes into groups and
// prioritizing switches within a group. The study schedules three zygote
// applications and three daemons for the same total quanta, interleaved
// versus grouped, and measures the applications' TLB stalls and the
// number of protective flushes.
func (s *Session) SchedulerGrouping() (*SchedulerGroupingResult, error) {
	// Both schedules start from the same six processes, so the setup is a
	// warmup phase in the checkpoint fork tree: simulated once, forked for
	// each variant. The schedule below re-derives the process handles by
	// name because a fork mints fresh Process objects.
	setup := func(sys *android.System) error {
		k := sys.Kernel
		for i := 0; i < 3; i++ {
			if _, err := sys.ZygoteFork(fmt.Sprintf("app%d", i)); err != nil {
				return err
			}
		}
		for i := 0; i < 3; i++ {
			p, err := k.NewProcess(fmt.Sprintf("daemon%d", i))
			if err != nil {
				return err
			}
			base := arch.VirtAddr(0x10000000 + i*0x100000)
			f := vm.NewFile(k.Phys, fmt.Sprintf("daemon%d-bin", i), 64*arch.PageSize)
			if err := k.Mmap(p, &vm.VMA{Start: base, End: base + 64*arch.PageSize,
				Prot: vm.ProtRead | vm.ProtExec, Flags: vm.VMAPrivate, File: f, Name: "bin"}); err != nil {
				return err
			}
		}
		return nil
	}

	run := func(grouped bool) (uint64, int, error) {
		sys, err := s.BootWarm(core.SharedPTPTLB(), android.LayoutOriginal, android.Options{},
			"grouping-setup", setup)
		if err != nil {
			return 0, 0, err
		}
		k := sys.Kernel

		var apps, daemons []*core.Process
		for i := 0; i < 3; i++ {
			app, err := procByName(k, fmt.Sprintf("app%d", i))
			if err != nil {
				return 0, 0, err
			}
			apps = append(apps, app)
			daemon, err := procByName(k, fmt.Sprintf("daemon%d", i))
			if err != nil {
				return 0, 0, err
			}
			daemons = append(daemons, daemon)
		}

		// Build the schedule: the same multiset of quanta either strictly
		// alternating app/daemon or grouped apps-then-daemons per epoch.
		var schedule []*core.Process
		const epochs = 60
		for e := 0; e < epochs; e++ {
			if grouped {
				schedule = append(schedule, apps...)
				schedule = append(schedule, daemons...)
			} else {
				for i := 0; i < 3; i++ {
					schedule = append(schedule, apps[i], daemons[i])
				}
			}
		}

		hot := s.Universe().ZygoteSet()[:192]
		var visits arch.RefStream
		flushes := 0
		var prev *core.Process
		for _, p := range schedule {
			// Without domains, a zygote-like -> non-zygote switch must
			// flush the whole TLB to keep the daemon off the global
			// entries.
			if prev != nil && prev.ZygoteLike() && !p.ZygoteLike() {
				k.CPU.Main.FlushAll()
				flushes++
			}
			prev = p
			quantum := func() error {
				if p.IsZygoteChild {
					visits.Reset()
					for i := 0; i < 16; i++ {
						visits.Add(sys.CodePageVA(hot[(i*13)%len(hot)]), arch.AccessFetch, 16)
					}
					return k.CPU.AccessBatch(visits.Runs())
				}
				base := p.MM.VMAs()[0].Start
				return k.CPU.AccessBatch([]arch.RefRun{{
					VA: base, Stride: arch.VirtAddr(arch.PageSize), Count: 16,
					Kind: arch.AccessFetch, Block: 16,
				}})
			}
			if err := k.Run(p, quantum); err != nil {
				return 0, 0, err
			}
		}
		var stalls uint64
		for _, p := range apps {
			stalls += p.Ctx.Stats.ITLBStallCycles
		}
		return stalls, flushes, nil
	}

	type groupingMeasure struct {
		stalls  uint64
		flushes int
	}
	b, v, err := sweep.Pair(s.workers(), "future-grouping", func(variant bool) (groupingMeasure, error) {
		stalls, flushes, err := run(variant)
		return groupingMeasure{stalls: stalls, flushes: flushes}, err
	})
	if err != nil {
		return nil, err
	}
	return &SchedulerGroupingResult{
		Interleaved:        b.stalls,
		Grouped:            v.stalls,
		FlushesInterleaved: b.flushes,
		FlushesGrouped:     v.flushes,
	}, nil
}

// procByName finds a live process by name — the handle-recovery step
// after forking a warmed image, whose processes were created inside the
// warm phase.
func procByName(k *core.Kernel, name string) (*core.Process, error) {
	for _, p := range k.Processes() {
		if p.Name == name && p.Alive() {
			return p, nil
		}
	}
	return nil, fmt.Errorf("experiments: no live process %q in forked machine", name)
}

// String renders the study.
func (r *SchedulerGroupingResult) String() string {
	t := stats.NewTable("Scheduler grouping without a domain model (Section 3.2.3)",
		"Schedule", "App ITLB stall cycles", "Protective full flushes")
	t.AddRow("interleaved", fmt.Sprintf("%d", r.Interleaved), fmt.Sprintf("%d", r.FlushesInterleaved))
	t.AddRow("grouped", fmt.Sprintf("%d", r.Grouped), fmt.Sprintf("%d", r.FlushesGrouped))
	return t.String() + "grouping zygote-like processes cuts the flushes a domain-less architecture needs\n"
}
