package core_test

import (
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/vm"
)

// Example demonstrates the paper's central mechanism end to end: fork
// shares the parent's page-table pages copy-on-write, a read fault
// populates the shared PTP for every sharer, and a write fault unshares.
// Every memory reference goes through CPU.AccessBatch; a single
// reference is a one-element run.
func Example() {
	k, err := core.New(4096, core.WithConfig(core.SharedPTP()))
	if err != nil {
		log.Fatal(err)
	}
	parent, err := k.NewProcess("parent")
	if err != nil {
		log.Fatal(err)
	}

	// One file-backed code region and one anonymous heap.
	lib := vm.NewFile(k.Phys, "libc.so", 0x100000)
	if err := k.Mmap(parent, &vm.VMA{
		Start: 0x00100000, End: 0x00200000,
		Prot: vm.ProtRead | vm.ProtExec, Flags: vm.VMAPrivate, File: lib, Name: "libc.so",
	}); err != nil {
		log.Fatal(err)
	}
	if err := k.Mmap(parent, &vm.VMA{
		Start: 0x00200000, End: 0x00300000,
		Prot: vm.ProtRead | vm.ProtWrite, Flags: vm.VMAPrivate, Name: "heap",
	}); err != nil {
		log.Fatal(err)
	}
	// Touch a code page so the parent has a populated PTP to share.
	touchCode := []arch.RefRun{{VA: 0x00100000, Count: 1, Kind: arch.AccessFetch}}
	if err := k.Run(parent, func() error { return k.CPU.AccessBatch(touchCode) }); err != nil {
		log.Fatal(err)
	}

	child, err := k.Fork(parent, "child")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fork shared %d PTPs, copied %d PTEs\n",
		child.ForkStats.PTPsShared, child.ForkStats.PTEsCopied)

	// The child reads a page nobody touched: the PTE lands in the shared
	// PTP and is immediately visible to the parent too.
	readCode := []arch.RefRun{{VA: 0x00110000, Count: 1, Kind: arch.AccessFetch}}
	if err := k.Run(child, func() error { return k.CPU.AccessBatch(readCode) }); err != nil {
		log.Fatal(err)
	}
	pte := parent.MM.PT.PTEAt(0x00110000)
	fmt.Printf("parent sees the child's PTE: %v\n", pte.Valid())

	// The child writes its heap (untouched before the fork, so its PTP
	// is allocated privately on demand); the code PTP stays shared.
	writeHeap := []arch.RefRun{{VA: 0x00200000, Count: 1, Kind: arch.AccessWrite}}
	if err := k.Run(child, func() error { return k.CPU.AccessBatch(writeHeap) }); err != nil {
		log.Fatal(err)
	}
	geo := k.Geometry()
	fmt.Printf("heap slot shared: %v, code slot shared: %v\n",
		child.MM.PT.Slot(geo.Slot(0x00200000)).NeedCopy,
		child.MM.PT.Slot(geo.Slot(0x00100000)).NeedCopy)

	// Output:
	// fork shared 1 PTPs, copied 0 PTEs
	// parent sees the child's PTE: true
	// heap slot shared: false, code slot shared: true
}
