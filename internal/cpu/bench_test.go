package cpu

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// benchContext builds a core and a context whose page table maps `pages`
// consecutive instruction pages starting at base, so every translation
// resolves without faulting.
func benchContext(b *testing.B, pages int) (*CPU, *Context, arch.VirtAddr) {
	b.Helper()
	phys := mem.New(1024)
	pt, err := pagetable.New(phys, geoARM)
	if err != nil {
		b.Fatal(err)
	}
	const base = arch.VirtAddr(0x10000000)
	for i := 0; i < pages; i++ {
		va := base + arch.VirtAddr(i)<<arch.PageShift
		if _, err := pt.EnsureLeafForVA(va, armv7.DomainUser); err != nil {
			b.Fatal(err)
		}
		pt.Set(va, pagetable.PTE{
			Frame: arch.FrameNum(0x40000 + i),
			Flags: arch.PTEValid | arch.PTEUser | arch.PTEExec,
		})
	}
	c := New(nil, geoARM)
	ctx := &Context{ID: 1, Name: "bench", PT: pt, ASID: 1, DACR: armv7.StockDACR()}
	c.ContextSwitch(ctx)
	return c, ctx, base
}

// BenchmarkTranslateWalk measures the full miss pipeline: micro-TLB miss,
// main-TLB miss, two page-walk cache references, and both TLB inserts.
// The working set (256 pages) is twice the main TLB, so every access
// walks.
func BenchmarkTranslateWalk(b *testing.B) {
	c, _, base := benchContext(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := base + arch.VirtAddr(i&255)<<arch.PageShift
		if err := c.access(va, arch.AccessFetch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateHit measures the all-hit path: the same 16-page
// working set stays resident in the micro-TLB and L1I.
func BenchmarkTranslateHit(b *testing.B) {
	c, _, base := benchContext(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := base + arch.VirtAddr(i&15)<<arch.PageShift
		if err := c.access(va, arch.AccessFetch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchBlockMicroMiss measures the page-visit miss path: 64
// pages visited in turn overflow the 32-entry micro-TLB but stay in the
// main TLB and the caches, so every 16-instruction visit misses the
// micro-TLB and hits the main TLB.
func BenchmarkFetchBlockMicroMiss(b *testing.B) {
	c, ctx, base := benchContext(b, 64)
	for i := 0; i < 64; i++ { // warm the main TLB and the caches
		if err := c.fetchBlock(base+arch.VirtAddr(i)<<arch.PageShift, 16); err != nil {
			b.Fatal(err)
		}
	}
	walks := ctx.Stats.ITLBMainMisses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.fetchBlock(base+arch.VirtAddr(i&63)<<arch.PageShift, 16); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ctx.Stats.ITLBMainMisses != walks {
		b.Fatal("visits walked: the working set left the main TLB")
	}
}
