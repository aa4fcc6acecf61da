// Database-server scenario: the use case that motivated the EARLIER
// page-table-sharing systems the paper generalizes (Solaris Intimate
// Shared Memory and the early-2000s Linux shared-page-table patches,
// Section 5.2). A postmaster-style server maps a large shared buffer
// pool, forks worker processes, and every worker scans the pool.
//
// Those earlier systems required the shared region to span entire PTPs
// and be sharable or read-only. The paper's design has no such
// restrictions — the pool's PTPs are shared copy-on-write like any
// others — so this workload falls out of the same mechanism that serves
// Android: N workers scanning the pool take the faults once instead of N
// times, and the pool's page tables are paid for once.
package main

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/vm"
)

const (
	poolBase  = arch.VirtAddr(0x40000000)
	poolPages = 32768 // 128MB buffer pool
	nWorkers  = 8
	scanPages = 8192 // each worker scans 32MB of the pool
)

func main() {
	t := stats.NewTable(
		fmt.Sprintf("%d workers scanning a %dMB shared buffer pool", nWorkers, poolPages*4/1024),
		"Kernel", "Worker faults (total)", "PTP frames", "PTP memory KB")
	for _, cfg := range []core.Config{core.Stock(), core.SharedPTP()} {
		faults, ptps, err := run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(cfg.Name(), fmt.Sprintf("%d", faults), fmt.Sprintf("%d", ptps),
			fmt.Sprintf("%d", ptps*4))
	}
	fmt.Println(t.String())
	fmt.Println("This is the workload Solaris ISM and the Linux shared-page-table")
	fmt.Println("patches were built for; the paper's copy-on-write PTP sharing")
	fmt.Println("subsumes it without their whole-PTP, sharable-only restrictions.")
}

func run(cfg core.Config) (faults uint64, ptpFrames int, err error) {
	k, err := core.New(1<<17, core.WithConfig(cfg))
	if err != nil {
		return 0, 0, err
	}
	server, err := k.NewProcess("postmaster")
	if err != nil {
		return 0, 0, err
	}
	// The shared buffer pool: a MAP_SHARED file mapping, as PostgreSQL
	// creates with System V shared memory or mmap.
	pool := vm.NewFile(k.Phys, "buffer-pool", poolPages*arch.PageSize)
	if err := k.Mmap(server, &vm.VMA{
		Start: poolBase, End: poolBase + poolPages*arch.PageSize,
		Prot: vm.ProtRead | vm.ProtWrite, Flags: vm.VMAShared, File: pool, Name: "buffer pool",
	}); err != nil {
		return 0, 0, err
	}
	// A small stack per process.
	if err := k.Mmap(server, &vm.VMA{
		Start: 0xBEF00000, End: 0xBF000000,
		Prot: vm.ProtRead | vm.ProtWrite, Flags: vm.VMAPrivate | vm.VMAStack, Name: "stack",
	}); err != nil {
		return 0, 0, err
	}
	// A scan reads one word per pool page, then touches the stack: two
	// runs of one reference stream.
	scan := []arch.RefRun{
		{VA: poolBase, Stride: arch.PageSize, Count: scanPages, Kind: arch.AccessRead},
		{VA: 0xBEFFF000, Count: 1, Kind: arch.AccessWrite},
	}
	// The postmaster warms the pool (reads pages in from disk).
	err = k.Run(server, func() error { return k.CPU.AccessBatch(scan) })
	if err != nil {
		return 0, 0, err
	}

	// Fork the workers; each scans the warmed region of the pool.
	for w := 0; w < nWorkers; w++ {
		worker, err := k.Fork(server, fmt.Sprintf("worker%d", w))
		if err != nil {
			return 0, 0, err
		}
		err = k.Run(worker, func() error { return k.CPU.AccessBatch(scan) })
		if err != nil {
			return 0, 0, err
		}
		faults += worker.MM.Counters.PageFaults
	}
	return faults, k.Phys.InUseByKind(mem.FramePageTable), nil
}
