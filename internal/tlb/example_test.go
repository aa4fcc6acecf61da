package tlb_test

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/tlb"
)

// Example walks the Section 3.2 TLB-sharing protocol at the hardware
// level: a zygote-like process loads a global entry in the zygote domain;
// a sibling with a different ASID hits it; a non-zygote process takes a
// domain fault, flushes, and loads its own private entry.
func Example() {
	main := tlb.New("main", 128, armv7.PagesPerLargePage)
	flags := arch.PTEValid | arch.PTEUser | arch.PTEExec | arch.PTEGlobal

	// The zygote (ASID 1) faults in a shared-library page: the kernel
	// created the PTE with the global bit in the zygote domain, and the
	// walk loads it into the TLB.
	main.Insert(0x40000000, 1, 100, flags, armv7.DomainZygote)

	// An application forked from the zygote (ASID 2) fetches the same
	// page: the global bit makes the entry match despite the ASID.
	_, _, r := main.Lookup(0x40000000, 2, armv7.ZygoteDACR(), arch.AccessFetch)
	fmt.Println("zygote child:", r)

	// A system daemon (ASID 3, no zygote-domain access) trips over it.
	_, _, r = main.Lookup(0x40000000, 3, armv7.StockDACR(), arch.AccessFetch)
	fmt.Println("daemon:", r)

	// The exception handler flushes the matching entries; the retry
	// misses and the daemon's own walk loads a private entry.
	main.FlushVA(0x40000000)
	_, _, r = main.Lookup(0x40000000, 3, armv7.StockDACR(), arch.AccessFetch)
	fmt.Println("daemon after flush:", r)
	main.Insert(0x40000000, 3, 200, flags&^arch.PTEGlobal, armv7.DomainUser)
	e, _, r := main.Lookup(0x40000000, 3, armv7.StockDACR(), arch.AccessFetch)
	fmt.Printf("daemon retry: %v (frame %d)\n", r, e.Frame())

	// Output:
	// zygote child: hit
	// daemon: domain fault
	// daemon after flush: miss
	// daemon retry: hit (frame 200)
}
