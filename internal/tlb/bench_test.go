package tlb

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
)

// benchFill populates tb with n distinct small pages under ASID 1.
func benchFill(tb *TLB, n int) {
	for i := 0; i < n; i++ {
		tb.Insert(arch.VirtAddr(i)<<arch.PageShift, 1, arch.FrameNum(i),
			arch.PTEValid|arch.PTEUser|arch.PTEExec, armv7.DomainUser)
	}
}

// BenchmarkTLBLookupHit measures the resident-entry probe path of a full
// 128-entry main TLB, cycling through the whole working set so the
// one-entry MRU register never short-circuits the index.
func BenchmarkTLBLookupHit(b *testing.B) {
	tb := New("bench", 128, armv7.PagesPerLargePage)
	benchFill(tb, 128)
	dacr := armv7.StockDACR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, r := tb.Lookup(arch.VirtAddr(i&127)<<arch.PageShift, 1, dacr, arch.AccessFetch); r != Hit {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkTLBLookupHitMRU measures the repeated-page probe path: the
// same translation is looked up back to back, as happens for every
// instruction of a straight-line basic block.
func BenchmarkTLBLookupHitMRU(b *testing.B) {
	tb := New("bench", 128, armv7.PagesPerLargePage)
	benchFill(tb, 128)
	dacr := armv7.StockDACR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, r := tb.Lookup(0x1000, 1, dacr, arch.AccessFetch); r != Hit {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkTLBLookupMiss measures the miss-detection path of a full main
// TLB: the probe that precedes every hardware page walk.
func BenchmarkTLBLookupMiss(b *testing.B) {
	tb := New("bench", 128, armv7.PagesPerLargePage)
	benchFill(tb, 128)
	dacr := armv7.StockDACR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VirtAddr(1024+(i&1023)) << arch.PageShift
		if _, _, r := tb.Lookup(va, 1, dacr, arch.AccessFetch); r != Miss {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkTLBInsertEvict measures Insert into a full TLB, where every
// load must also choose and displace the LRU victim.
func BenchmarkTLBInsertEvict(b *testing.B) {
	tb := New("bench", 128, armv7.PagesPerLargePage)
	benchFill(tb, 128)
	flags := arch.PTEValid | arch.PTEUser | arch.PTEExec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VirtAddr(128+(i&0xFFFFF)) << arch.PageShift
		tb.Insert(va, 1, arch.FrameNum(i), flags, armv7.DomainUser)
	}
}

// BenchmarkTLBLookupLargePage measures the probe path when the working
// set is mapped with 64KB large pages, exercising the masked-VPN index.
func BenchmarkTLBLookupLargePage(b *testing.B) {
	tb := New("bench", 128, armv7.PagesPerLargePage)
	flags := arch.PTEValid | arch.PTEUser | arch.PTEExec | arch.PTELarge
	for i := 0; i < 64; i++ {
		va := arch.VirtAddr(i) << armv7.LargePageShift
		tb.Insert(va, 1, arch.FrameNum(i*armv7.PagesPerLargePage), flags, armv7.DomainUser)
	}
	dacr := armv7.StockDACR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Probe every 4KB page of the 64KB blocks in turn.
		va := arch.VirtAddr(i&1023) << arch.PageShift
		if _, _, r := tb.Lookup(va, 1, dacr, arch.AccessFetch); r != Hit {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkTLBFlushAllSparse measures a micro-TLB's life between two
// context switches: a 32-entry TLB loads 12 pages and is flushed, so the
// flush finds most slots already empty.
func BenchmarkTLBFlushAllSparse(b *testing.B) {
	tb := New("bench", 32, armv7.PagesPerLargePage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFill(tb, 12)
		tb.FlushAll()
	}
}

// BenchmarkTLBLookupASIDAlias measures the probe path of a full 128-entry
// main TLB holding each of 64 pages under two ASIDs, as a client and a
// server running the same library code do: every key holds two slots.
func BenchmarkTLBLookupASIDAlias(b *testing.B) {
	tb := New("bench", 128, armv7.PagesPerLargePage)
	for i := 0; i < 128; i++ {
		tb.Insert(arch.VirtAddr(i>>1)<<arch.PageShift, arch.ASID(1+i&1), arch.FrameNum(i),
			arch.PTEValid|arch.PTEUser|arch.PTEExec, armv7.DomainUser)
	}
	dacr := armv7.StockDACR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VirtAddr(i>>1&63) << arch.PageShift
		if _, _, r := tb.Lookup(va, arch.ASID(1+i&1), dacr, arch.AccessFetch); r != Hit {
			b.Fatal("unexpected miss")
		}
	}
}

// The BenchmarkReference* group mirrors the benchmarks above over the
// linear reference implementation, so the hot-path before/after figures
// recorded in CHANGES.md can be re-measured on one machine in one run.

func refBenchFill(tb *linearTLB, n int) {
	for i := 0; i < n; i++ {
		tb.Insert(arch.VirtAddr(i)<<arch.PageShift, 1, arch.FrameNum(i),
			arch.PTEValid|arch.PTEUser|arch.PTEExec, armv7.DomainUser)
	}
}

func BenchmarkReferenceTLBLookupHit(b *testing.B) {
	tb := newLinear(128, armv7.PagesPerLargePage)
	refBenchFill(tb, 128)
	dacr := armv7.StockDACR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, r := tb.Lookup(arch.VirtAddr(i&127)<<arch.PageShift, 1, dacr, arch.AccessFetch); r != Hit {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkReferenceTLBLookupHitMRU(b *testing.B) {
	tb := newLinear(128, armv7.PagesPerLargePage)
	refBenchFill(tb, 128)
	dacr := armv7.StockDACR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, r := tb.Lookup(0x1000, 1, dacr, arch.AccessFetch); r != Hit {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkReferenceTLBLookupMiss(b *testing.B) {
	tb := newLinear(128, armv7.PagesPerLargePage)
	refBenchFill(tb, 128)
	dacr := armv7.StockDACR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VirtAddr(1024+(i&1023)) << arch.PageShift
		if _, _, r := tb.Lookup(va, 1, dacr, arch.AccessFetch); r != Miss {
			b.Fatal("unexpected hit")
		}
	}
}

func BenchmarkReferenceTLBInsertEvict(b *testing.B) {
	tb := newLinear(128, armv7.PagesPerLargePage)
	refBenchFill(tb, 128)
	flags := arch.PTEValid | arch.PTEUser | arch.PTEExec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VirtAddr(128+(i&0xFFFFF)) << arch.PageShift
		tb.Insert(va, 1, arch.FrameNum(i), flags, armv7.DomainUser)
	}
}

func BenchmarkReferenceTLBLookupLargePage(b *testing.B) {
	tb := newLinear(128, armv7.PagesPerLargePage)
	flags := arch.PTEValid | arch.PTEUser | arch.PTEExec | arch.PTELarge
	for i := 0; i < 64; i++ {
		va := arch.VirtAddr(i) << armv7.LargePageShift
		tb.Insert(va, 1, arch.FrameNum(i*armv7.PagesPerLargePage), flags, armv7.DomainUser)
	}
	dacr := armv7.StockDACR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := arch.VirtAddr(i&1023) << arch.PageShift
		if _, _, r := tb.Lookup(va, 1, dacr, arch.AccessFetch); r != Hit {
			b.Fatal("unexpected miss")
		}
	}
}
