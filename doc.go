// Package repro is a from-scratch Go reproduction of "Shared Address
// Translation Revisited" (Dong, Dwarkadas, Cox — EuroSys 2016): a
// simulated Linux/ARM memory-management stack in which fork shares
// second-level page-table pages copy-on-write between the Android zygote
// and its children, and TLB entries for zygote-preloaded shared code are
// shared across processes via the PTE global bit and the 32-bit ARM
// domain protection model.
//
// The library lives under internal/: the ARMv7 architecture model (arch),
// physical memory (mem), two-level page tables (pagetable), TLBs (tlb),
// caches (cache), the cycle-accounting core (cpu), the Linux-like VM
// substrate (vm), the shared-address-translation kernel (core), the
// Android userland (android), the synthetic application suite (workload),
// the measurement methodology (trace), statistics (stats), and one driver
// per table and figure of the paper (experiments).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-versus-measured results. cmd/experiments
// regenerates every table and figure, and perfbench/ is the end-to-end
// benchmark.
package repro
