package tlb

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
)

// TestLookupRunMatchesScalarLookups drives one TLB with LookupRun and a
// twin with the equivalent individual Lookups through a randomized
// stream of strided runs, inserts, and flushes, for both domain-matching
// modes, and demands identical counters and identical complete snapshots
// (entries, lastUse stamps, clock) after every operation. This pins the
// CommitRunHits equivalence claim: n committed hit iterations are
// bit-identical to n scalar Lookups.
func TestLookupRunMatchesScalarLookups(t *testing.T) {
	for _, hw := range []bool{false, true} {
		name := "sw-domains"
		if hw {
			name = "hw-domains"
		}
		t.Run(name, func(t *testing.T) {
			const pagesPerLarge = 16
			rng := rand.New(rand.NewSource(31))
			run := New("run", 24, pagesPerLarge)
			ref := New("ref", 24, pagesPerLarge)
			run.DomainMatchInHW = hw
			ref.DomainMatchInHW = hw
			dacr := arch.DACR(0)
			dacr = dacr.WithAccess(0, arch.DomainClient)
			dacr = dacr.WithAccess(1, arch.DomainManager)
			dacr = dacr.WithAccess(2, arch.DomainNoAccess)

			randVA := func() arch.VirtAddr {
				return arch.VirtAddr(rng.Intn(256)) << arch.PageShift
			}
			insert := func() {
				va := randVA()
				asid := arch.ASID(rng.Intn(3))
				frame := arch.FrameNum(rng.Intn(1 << 12))
				flags := arch.PTEValid | arch.PTEUser
				if rng.Intn(2) == 0 {
					flags |= arch.PTEExec
				}
				if rng.Intn(2) == 0 {
					flags |= arch.PTEWrite
				}
				if rng.Intn(4) == 0 {
					flags |= arch.PTEGlobal
				}
				if rng.Intn(4) == 0 {
					flags |= arch.PTELarge
				}
				domain := uint8(rng.Intn(3))
				run.Insert(va, asid, frame, flags, domain)
				ref.Insert(va, asid, frame, flags, domain)
			}
			for i := 0; i < 16; i++ {
				insert()
			}

			check := func(op int) {
				t.Helper()
				if run.stats != ref.stats {
					t.Fatalf("op %d: stats %+v, scalar %+v", op, run.stats, ref.stats)
				}
				if run.clock != ref.clock {
					t.Fatalf("op %d: clock %d, scalar %d", op, run.clock, ref.clock)
				}
				gs, ws := run.SnapshotState(), ref.SnapshotState()
				gs.Name, ws.Name = "", ""
				if !reflect.DeepEqual(gs, ws) {
					t.Fatalf("op %d: snapshots diverged:\n%+v\n%+v", op, gs, ws)
				}
			}

			kinds := []arch.AccessKind{arch.AccessFetch, arch.AccessRead, arch.AccessWrite}
			negPage := ^arch.VirtAddr(arch.PageSize - 1) // -PageSize in two's complement
			strides := []arch.VirtAddr{0, 4, 64, arch.PageSize, 3 * arch.PageSize,
				arch.PageSize * pagesPerLarge, negPage}
			for op := 0; op < 20000; op++ {
				switch rng.Intn(10) {
				case 0:
					insert()
				case 1:
					va := randVA()
					run.FlushVA(va)
					ref.FlushVA(va)
				case 2:
					asid := arch.ASID(rng.Intn(3))
					run.FlushASID(asid)
					ref.FlushASID(asid)
				default:
					va := randVA() + arch.VirtAddr(rng.Intn(arch.PageSize))
					stride := strides[rng.Intn(len(strides))]
					kind := kinds[rng.Intn(len(kinds))]
					asid := arch.ASID(rng.Intn(3))
					max := 1 + rng.Intn(64)
					n, ep := run.LookupRun(va, stride, max, asid, dacr, kind)
					e := entryVal(ep)
					if n == 0 {
						// First reference does not hit: the scalar path takes
						// over on both TLBs, counting the miss or fault once.
						rp, rs, rr := ref.Lookup(va, asid, dacr, kind)
						re := entryVal(rp)
						gp, gs, gr := run.Lookup(va, asid, dacr, kind)
						ge := entryVal(gp)
						if ep != nil || gr != rr || ge != re || gs != rs {
							t.Fatalf("op %d: fallback Lookup(%#x) = (%+v, %d, %v), scalar (%+v, %d, %v)", op, va, ge, gs, gr, re, rs, rr)
						}
					} else {
						for k := 0; k < n; k++ {
							re, _, rr := ref.Lookup(va+arch.VirtAddr(k)*stride, asid, dacr, kind)
							if rr != Hit {
								t.Fatalf("op %d: committed iteration %d/%d of run at %#x stride %#x is %v in the scalar TLB", op, k, n, va, stride, rr)
							}
							if re.Frame() != e.Frame() || re.Flags() != e.Flags() {
								t.Fatalf("op %d: entry mismatch at iteration %d: %+v vs %+v", op, k, re, e)
							}
						}
					}
					check(op)
				}
			}
			check(-1)
		})
	}
}
