package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/arch/armv7"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// The page-visit differential: two identical machines execute the same
// randomized page visits, one through fetchBlock, the other through
// fetchBlockScalar, fetchBlock's former scalar body. The visits cover
// micro-TLB hits and misses, main-TLB hits, walks, demand and
// permission faults, and domain faults (a non-zygote context tripping
// over the zygote contexts' global entries), under ASIDs on and off,
// KeepGlobalOnFlush, a FlushGlobals context, and sampling on and off.
// Every op must leave identical per-context counters, samples and event
// streams, and the runs must end in identical TLB and cache state.

// fetchBlockScalar is the reference semantics of fetchBlock: the first
// instruction through the scalar access path, the block's
// re-translation as a second micro-TLB Lookup, and the block's other
// lines as a cache run of their own.
func fetchBlockScalar(c *CPU, va arch.VirtAddr, n int) error {
	if n <= 0 {
		return nil
	}
	const instrSize = 4
	const lineSize = 32
	if int(va&arch.PageMask)+n*instrSize > arch.PageSize {
		n = (arch.PageSize - int(va&arch.PageMask)) / instrSize
	}
	ctx := c.cur
	if ctx == nil {
		return fmt.Errorf("cpu: fetch block at %#x with no context", va)
	}
	if err := c.access(va, arch.AccessFetch); err != nil {
		return err
	}
	rest := n - 1
	if rest <= 0 {
		return nil
	}
	ctx.Stats.Instructions += uint64(rest)
	c.charge(rest * c.Costs.BaseInstr)
	if c.sampling() {
		c.tick(va, false, rest)
	}
	e, _, r := c.MicroI.Lookup(va, ctx.ASID, ctx.DACR, arch.AccessFetch)
	if r != tlb.Hit {
		return fmt.Errorf("cpu: lost translation for block at %#x", va)
	}
	pageBase := c.physAddr(e.Frame(), e.Flags(), va) - arch.PhysAddr(va&arch.PageMask)
	firstLine := int(va&arch.PageMask) / lineSize
	lastLine := (int(va&arch.PageMask) + n*instrSize - 1) / lineSize
	if lines := lastLine - firstLine; lines > 0 {
		stall := c.Caches.FetchRun(pageBase+arch.PhysAddr((firstLine+1)*lineSize), lines)
		if stall > 0 {
			ctx.Stats.ICacheStallCycles += uint64(stall)
			c.charge(stall)
		}
	}
	return nil
}

const (
	// visitShared is the zygote contexts' shared code region: one page
	// table serves both, and their pager maps it global in the zygote
	// domain.
	visitShared = arch.VirtAddr(0x40000000)
	// visitPrivate is a region every context maps privately.
	visitPrivate = arch.VirtAddr(0x10000000)
	// visitPages pages per region: with four contexts, more than the
	// 128-entry main TLB holds.
	visitPages = 96
)

// visitPager is the kernel of the page-visit differential. A zygote
// context (zygote DACR) gets global zygote-domain pages in the shared
// region; every other mapping is private. A translation fault maps the
// page with the permission the access needs; a permission fault grants
// it (the COW stand-in), so a page first read and then fetched faults
// twice.
type visitPager struct {
	phys   *mem.PhysMem
	faults int
}

func (p *visitPager) HandlePageFault(ctx *Context, va arch.VirtAddr, kind arch.AccessKind) error {
	p.faults++
	shared := ctx.DACR == armv7.ZygoteDACR() && va >= visitShared
	domain := uint8(armv7.DomainUser)
	if shared {
		domain = armv7.DomainZygote
	}
	if _, err := ctx.PT.EnsureLeafForVA(va, domain); err != nil {
		return err
	}
	grant := arch.PTEFlags(0)
	switch kind {
	case arch.AccessFetch:
		grant = arch.PTEExec
	case arch.AccessWrite:
		grant = arch.PTEWrite
	}
	if pte := ctx.PT.PTEAt(va); pte != nil && pte.Valid() {
		pte.Flags |= grant
		return nil
	}
	f, err := p.phys.Alloc(mem.FrameAnon)
	if err != nil {
		return err
	}
	flags := arch.PTEValid | arch.PTEUser | grant
	if shared {
		flags |= arch.PTEGlobal
	}
	ctx.PT.Set(va, pagetable.PTE{Frame: f, Flags: flags})
	return nil
}

// sample is one delivered program-counter sample.
type sample struct {
	va     arch.VirtAddr
	kernel bool
}

type recordingSampler struct{ samples []sample }

func (s *recordingSampler) Sample(va arch.VirtAddr, kernel bool) {
	s.samples = append(s.samples, sample{va, kernel})
}

// visitMachine is one side of the differential: a core over its own
// physical memory, two zygote contexts sharing a page table, a
// non-zygote context, and a non-zygote FlushGlobals context.
type visitMachine struct {
	cpu     *CPU
	pager   *visitPager
	ctxs    []*Context
	sampler *recordingSampler
	events  []obs.Event
}

func newVisitMachine(t *testing.T, sampleEvery int, sampler, useASID bool) *visitMachine {
	t.Helper()
	phys := mem.New(1 << 12)
	m := &visitMachine{pager: &visitPager{phys: phys}, sampler: &recordingSampler{}}
	m.cpu = New(m.pager, geoARM)
	m.cpu.UseASID = useASID
	m.cpu.SampleEvery = sampleEvery
	if sampler {
		m.cpu.Sampler = m.sampler
	}
	zyg := newCtx(t, phys, 1, 1, armv7.ZygoteDACR())
	zyg2 := *zyg
	zyg2.ID, zyg2.ASID = 2, 2
	daemon := newCtx(t, phys, 3, 3, armv7.StockDACR())
	outsider := newCtx(t, phys, 4, 4, armv7.StockDACR())
	outsider.FlushGlobals = true
	m.ctxs = []*Context{zyg, &zyg2, daemon, outsider}
	bus := obs.NewBus()
	bus.Subscribe(obs.ObserverFunc(func(ev obs.Event) { m.events = append(m.events, ev) }))
	m.cpu.AttachBus(bus)
	m.cpu.ContextSwitch(zyg)
	return m
}

// visitOp is one step of the program; exactly one field is in use.
type visitOp struct {
	ctx    int // >= 0: switch to this context
	toggle int // 1: flip UseASID, 2: flip KeepGlobalOnFlush
	va     arch.VirtAddr
	n      int             // > 0: fetchBlock(va, n)
	data   arch.AccessKind // otherwise: a data access of this kind at va
}

func buildVisitProgram(rng *rand.Rand, ops int) []visitOp {
	prog := make([]visitOp, 0, ops)
	for len(prog) < ops {
		op := visitOp{ctx: -1}
		base := visitPrivate
		if rng.Intn(2) == 0 {
			base = visitShared
		}
		op.va = base + arch.VirtAddr(rng.Intn(visitPages))<<arch.PageShift
		if rng.Intn(20) == 0 {
			op.va += arch.VirtAddr(rng.Intn(arch.PageSize)) // any offset, unaligned too
		} else {
			op.va += arch.VirtAddr(rng.Intn(arch.PageSize/4)) * 4
		}
		switch r := rng.Intn(100); {
		case r < 8:
			op.ctx = rng.Intn(4)
		case r < 10:
			op.toggle = 1 + rng.Intn(2)
		case r < 25:
			op.data = []arch.AccessKind{arch.AccessRead, arch.AccessWrite}[rng.Intn(2)]
		default:
			op.n = []int{1, 2, 3, 8, 16, 64, 300, 1100}[rng.Intn(8)]
		}
		prog = append(prog, op)
	}
	return prog
}

func (m *visitMachine) apply(op visitOp, visit func(*CPU, arch.VirtAddr, int) error) error {
	switch {
	case op.ctx >= 0:
		m.cpu.ContextSwitch(m.ctxs[op.ctx])
	case op.toggle == 1:
		m.cpu.UseASID = !m.cpu.UseASID
	case op.toggle == 2:
		m.cpu.KeepGlobalOnFlush = !m.cpu.KeepGlobalOnFlush
	case op.n > 0:
		return visit(m.cpu, op.va, op.n)
	default:
		return m.cpu.access(op.va, op.data)
	}
	return nil
}

func runVisitDifferential(t *testing.T, sampleEvery int, sampler, useASID bool) {
	t.Helper()
	prog := buildVisitProgram(rand.New(rand.NewSource(0xb10c)), 6000)
	ref := newVisitMachine(t, sampleEvery, sampler, useASID)
	got := newVisitMachine(t, sampleEvery, sampler, useASID)
	snap := func(m *visitMachine) Snapshot {
		return m.cpu.SnapshotState(func(c *Context) int32 { return int32(c.ID) })
	}
	for i, op := range prog {
		rerr := ref.apply(op, fetchBlockScalar)
		gerr := got.apply(op, (*CPU).fetchBlock)
		if (rerr == nil) != (gerr == nil) {
			t.Fatalf("op %d %+v: scalar error %v, fetchBlock error %v", i, op, rerr, gerr)
		}
		for j := range ref.ctxs {
			if ref.ctxs[j].Stats != got.ctxs[j].Stats {
				t.Fatalf("op %d %+v: ctx %d stats diverge\nscalar:     %+v\nfetchBlock: %+v",
					i, op, j+1, ref.ctxs[j].Stats, got.ctxs[j].Stats)
			}
		}
		if len(ref.events) != len(got.events) || len(ref.sampler.samples) != len(got.sampler.samples) ||
			ref.pager.faults != got.pager.faults {
			t.Fatalf("op %d %+v: scalar %d events %d samples %d faults, fetchBlock %d events %d samples %d faults",
				i, op, len(ref.events), len(ref.sampler.samples), ref.pager.faults,
				len(got.events), len(got.sampler.samples), got.pager.faults)
		}
		if i%256 == 0 && !reflect.DeepEqual(snap(ref), snap(got)) {
			t.Fatalf("op %d %+v: core snapshots diverge", i, op)
		}
	}
	if !reflect.DeepEqual(snap(ref), snap(got)) {
		t.Error("final core snapshots diverge")
	}
	if !reflect.DeepEqual(ref.cpu.Caches.L2.SnapshotState(), got.cpu.Caches.L2.SnapshotState()) {
		t.Error("L2 snapshots diverge")
	}
	for i := range ref.events {
		if ref.events[i] != got.events[i] {
			t.Errorf("event %d diverges: scalar %+v, fetchBlock %+v", i, ref.events[i], got.events[i])
			break
		}
	}
	if !reflect.DeepEqual(ref.sampler.samples, got.sampler.samples) || ref.cpu.sinceSample != got.cpu.sinceSample {
		t.Error("samples diverge")
	}
	if sampleEvery > 0 && sampler && len(got.sampler.samples) == 0 {
		t.Error("sampled variant delivered no samples")
	}
	// The program must reach every path it claims to cover.
	var total Stats
	for _, c := range got.ctxs {
		s := c.Stats
		total.ITLBMainMisses += s.ITLBMainMisses
		total.SoftFaults += s.SoftFaults
		total.DomainFaults += s.DomainFaults
	}
	mainHits := got.cpu.Main.Stats().Hits
	if total.ITLBMainMisses == 0 || total.SoftFaults == 0 || total.DomainFaults == 0 || mainHits == 0 {
		t.Errorf("program misses a path: %d walks, %d soft faults, %d domain faults, %d main-TLB hits",
			total.ITLBMainMisses, total.SoftFaults, total.DomainFaults, mainHits)
	}
}

func TestFetchBlockDifferential(t *testing.T) {
	for _, cfg := range []struct {
		name        string
		sampleEvery int
		sampler     bool
	}{
		{"sample=0", 0, true},
		{"sample=7", 7, true},
		// A rate without a sampler is sampling off: no tick runs.
		{"sample=7-nosampler", 7, false},
	} {
		for _, useASID := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/asid=%v", cfg.name, useASID), func(t *testing.T) {
				runVisitDifferential(t, cfg.sampleEvery, cfg.sampler, useASID)
			})
		}
	}
}
