package core_test

import (
	"sync"
	"testing"

	"repro/internal/android"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// Kernel-primitive benchmarks on a booted Android system: a zygote fork
// with a PTE copy (stock) or shared PTPs, a soft page fault, and the
// unshare-on-write of a shared PTP.

var benchUniverse = sync.OnceValue(workload.DefaultUniverse)

func benchBoot(b *testing.B, cfg core.Config) *android.System {
	b.Helper()
	sys, err := android.Boot(cfg, android.LayoutOriginal, benchUniverse())
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchZygoteFork(b *testing.B, cfg core.Config) {
	sys := benchBoot(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := sys.ZygoteFork("app")
		if err != nil {
			b.Fatal(err)
		}
		sys.Kernel.Exit(child)
	}
}

func BenchmarkZygoteForkStock(b *testing.B)  { benchZygoteFork(b, core.Stock()) }
func BenchmarkZygoteForkShared(b *testing.B) { benchZygoteFork(b, core.SharedPTP()) }

// BenchmarkSoftPageFault fetches each zygote-preloaded page once from a
// stock child, which inherits no PTEs for them: every fetch faults.
func BenchmarkSoftPageFault(b *testing.B) {
	sys := benchBoot(b, core.Stock())
	child, err := sys.ZygoteFork("app")
	if err != nil {
		b.Fatal(err)
	}
	pages := benchUniverse().ZygoteSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := sys.CodePageVA(pages[i%len(pages)])
		err := sys.Kernel.Run(child, func() error {
			return sys.Kernel.CPU.AccessBatch([]arch.RefRun{{VA: va, Count: 1, Kind: arch.AccessFetch}})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnshareOnWrite forks a shared-PTP child and writes its heap
// once: a write fault in a shared PTP, so the PTP is unshared and the
// page copied on write.
func BenchmarkUnshareOnWrite(b *testing.B) {
	sys := benchBoot(b, core.SharedPTP())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		child, err := sys.ZygoteFork("app")
		if err != nil {
			b.Fatal(err)
		}
		err = sys.Kernel.Run(child, func() error {
			return sys.Kernel.CPU.AccessBatch([]arch.RefRun{{VA: 0x20000000, Count: 1, Kind: arch.AccessWrite}})
		})
		if err != nil {
			b.Fatal(err)
		}
		sys.Kernel.Exit(child)
	}
}
