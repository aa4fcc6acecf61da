// The Binder IPC microbenchmark of Section 4.2.4: a parent process acting
// as a service and a child process acting as a client that binds to it
// and invokes its API in a tight loop, both pinned to one core. Both
// sides execute the zygote-preloaded libbinder.so intensively, so with
// TLB sharing their instruction translations occupy one set of global TLB
// entries instead of two ASID-tagged copies.

package android

import (
	"fmt"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/vm"
)

// Binder working-set geometry. The two sides share the libbinder pages
// and add private pages each; the union exceeds the 128-entry main TLB
// without sharing, which is the capacity pressure Figure 13 measures.
const (
	binderLibPages     = 80 // libbinder.so code executed by both sides
	binderClientPrivPg = 40 // client private code
	binderServerPrivPg = 96 // server private code (it also implements the service)
	binderVisitsPerTx  = 12 // page visits per call per side
	binderVisitLen     = 24
	binderKernelBytes  = 512 // binder driver work per transaction leg
)

// BinderSide is one endpoint's measurement.
type BinderSide struct {
	// Process is the endpoint process.
	Process *core.Process
	// ITLBStalls is the instruction main-TLB stall cycles accumulated
	// during the call loop (the metric of Figure 13).
	ITLBStalls uint64
	// ITLBMisses is the instruction-side main TLB miss count.
	ITLBMisses uint64
	// Cycles is the endpoint's total loop cycles.
	Cycles uint64
}

// BinderResult is one run of the microbenchmark.
type BinderResult struct {
	Client BinderSide
	Server BinderSide
}

// RunBinder executes the Binder microbenchmark: the client binds to the
// parent's service and invokes its API iterations times. useASID selects
// whether the main TLB keeps ASID-tagged entries across context switches
// or is flushed on every switch (the "Disabled ASID" bars of Figure 13).
func (sys *System) RunBinder(iterations int, useASID bool) (BinderResult, error) {
	k := sys.Kernel
	k.CPU.UseASID = useASID

	server, err := sys.ZygoteFork("binder-server")
	if err != nil {
		return BinderResult{}, err
	}
	client, err := sys.ZygoteFork("binder-client")
	if err != nil {
		return BinderResult{}, err
	}

	// libbinder.so: the largest preloaded library's leading pages stand
	// in for the binder runtime both sides execute.
	libbinder := sys.largestLib()
	shared := make([]arch.VirtAddr, binderLibPages)
	for i := range shared {
		shared[i] = sys.libCodeBase[libbinder] + arch.VirtAddr(i*arch.PageSize)
	}

	serverPriv, err := sys.binderPrivate(server, "service-code", binderServerPrivPg)
	if err != nil {
		return BinderResult{}, err
	}
	clientPriv, err := sys.binderPrivate(client, "client-code", binderClientPrivPg)
	if err != nil {
		return BinderResult{}, err
	}

	// Warm-up: both sides bind and touch their working sets so the
	// measured loop sees steady-state TLB behavior, not cold faults.
	warm := func(p *core.Process, priv []arch.VirtAddr) error {
		return k.Run(p, func() error {
			// Both regions are contiguous page runs; the whole warm-up is
			// a two-run reference stream.
			return k.CPU.AccessBatch([]arch.RefRun{
				{VA: shared[0], Stride: arch.VirtAddr(arch.PageSize), Count: len(shared), Kind: arch.AccessFetch, Block: binderVisitLen},
				{VA: priv[0], Stride: arch.VirtAddr(arch.PageSize), Count: len(priv), Kind: arch.AccessFetch, Block: binderVisitLen},
			})
		})
	}
	if err := warm(server, serverPriv); err != nil {
		return BinderResult{}, err
	}
	if err := warm(client, clientPriv); err != nil {
		return BinderResult{}, err
	}

	cs0 := client.Ctx.Stats
	ss0 := server.Ctx.Stats

	rng := rand.New(rand.NewSource(7))
	var visits arch.RefStream
	leg := func(p *core.Process, priv []arch.VirtAddr) error {
		k.CPU.ContextSwitch(p.Ctx)
		visits.Reset()
		for v := 0; v < binderVisitsPerTx; v++ {
			var va arch.VirtAddr
			if v%3 == 2 { // one third private code, two thirds libbinder
				va = priv[rng.Intn(len(priv))]
			} else {
				va = shared[rng.Intn(len(shared))]
			}
			visits.Add(va, arch.AccessFetch, binderVisitLen)
		}
		if err := k.CPU.AccessBatch(visits.Runs()); err != nil {
			return err
		}
		k.CPU.KernelExec(binderKernelBytes) // binder driver transaction work
		return nil
	}

	for it := 0; it < iterations; it++ {
		if err := leg(client, clientPriv); err != nil {
			return BinderResult{}, fmt.Errorf("android: binder client: %w", err)
		}
		if err := leg(server, serverPriv); err != nil {
			return BinderResult{}, fmt.Errorf("android: binder server: %w", err)
		}
	}

	cs1 := client.Ctx.Stats
	ss1 := server.Ctx.Stats
	res := BinderResult{
		Client: BinderSide{
			Process:    client,
			ITLBStalls: cs1.ITLBStallCycles - cs0.ITLBStallCycles,
			ITLBMisses: cs1.ITLBMainMisses - cs0.ITLBMainMisses,
			Cycles:     cs1.Cycles - cs0.Cycles,
		},
		Server: BinderSide{
			Process:    server,
			ITLBStalls: ss1.ITLBStallCycles - ss0.ITLBStallCycles,
			ITLBMisses: ss1.ITLBMainMisses - ss0.ITLBMainMisses,
			Cycles:     ss1.Cycles - ss0.Cycles,
		},
	}
	return res, nil
}

// largestLib returns the index of the biggest preloaded library, the
// stand-in for libbinder's hot code.
func (sys *System) largestLib() int {
	best, size := 0, 0
	for i, l := range sys.Universe.Libs {
		if l.CodePages > size {
			best, size = i, l.CodePages
		}
	}
	return best
}

// binderPrivate maps a private code region for one endpoint and returns
// its page addresses.
func (sys *System) binderPrivate(p *core.Process, name string, pages int) ([]arch.VirtAddr, error) {
	f := vm.NewFile(sys.Kernel.Phys, name, pages*arch.PageSize)
	start := appMapBase
	v := &vm.VMA{
		Start: start, End: start + arch.VirtAddr(pages*arch.PageSize),
		Prot: vm.ProtRead | vm.ProtExec, Flags: vm.VMAPrivate, File: f,
		Name: name, Category: vm.CatPrivateCode,
	}
	if err := sys.Kernel.Mmap(p, v); err != nil {
		return nil, err
	}
	out := make([]arch.VirtAddr, pages)
	for i := range out {
		out[i] = start + arch.VirtAddr(i*arch.PageSize)
	}
	return out, nil
}
