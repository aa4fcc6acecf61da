// Quickstart: boot an Android system, fork an application from the
// zygote under the stock kernel and under the shared-PTP kernel, and
// compare what fork had to do — the headline result of the paper
// (Table 4: sharing page-table pages more than halves the cost of a
// zygote fork).
package main

import (
	"fmt"
	"log"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	universe := workload.DefaultUniverse()

	for _, cfg := range []core.Config{core.Stock(), core.SharedPTP()} {
		// Boot: the zygote preloads the 88 shared libraries and the ART
		// boot image, then populates its working set (~5,900 instruction
		// PTEs plus the writable state).
		sys, err := android.Boot(cfg, android.LayoutOriginal, universe)
		if err != nil {
			log.Fatal(err)
		}

		// Android starts every application by forking the zygote without
		// a subsequent exec.
		child, err := sys.ZygoteFork("my-app")
		if err != nil {
			log.Fatal(err)
		}
		fs := child.ForkStats
		fmt.Printf("%-16s fork: %5.2fM cycles, %2d PTPs allocated, %2d PTPs shared, %4d PTEs copied\n",
			cfg.Name()+":", float64(fs.Cycles)/1e6, fs.PTPsAllocated, fs.PTPsShared, fs.PTEsCopied)

		// The child can run immediately: with shared PTPs its fetches of
		// zygote-preloaded code hit PTEs the zygote already populated,
		// so it takes almost no soft page faults on shared code.
		// Each page visit executes 16 instructions; the visits form one
		// reference stream.
		var visits arch.RefStream
		for _, pg := range universe.ZygoteSet()[:512] {
			visits.Add(sys.CodePageVA(pg), arch.AccessFetch, 16)
		}
		err = sys.Kernel.Run(child, func() error { return sys.Kernel.CPU.AccessBatch(visits.Runs()) })
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s child executed 512 shared-code pages with %d page faults\n\n",
			"", child.MM.Counters.PageFaults)
		sys.Kernel.Exit(child)
	}
}
