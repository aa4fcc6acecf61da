package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
)

// frameOf returns a copy of the metadata for frame n; a frame never
// allocated reads as the zero Frame. Reading allocates nothing.
func frameOf(m *PhysMem, n arch.FrameNum) Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frameLocked(n)
}

func TestAllocFree(t *testing.T) {
	m := New(8)
	n, err := m.Alloc(FrameAnon)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	f := frameOf(m, n)
	if f.Kind != FrameAnon {
		t.Errorf("Kind = %v, want anon", f.Kind)
	}
	if f.MapCount != 0 {
		t.Errorf("fresh frame MapCount = %d, want 0", f.MapCount)
	}
	m.Free(n)
	if frameOf(m, n).Kind != FrameFree {
		t.Errorf("freed frame kind = %v, want free", frameOf(m, n).Kind)
	}
}

func TestExhaustion(t *testing.T) {
	m := New(2)
	if _, err := m.Alloc(FrameAnon); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(FrameAnon); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Alloc(FrameAnon); err == nil {
		t.Fatal("third Alloc from a 2-frame memory should fail")
	}
}

func TestFreeListReuse(t *testing.T) {
	m := New(2)
	a, _ := m.Alloc(FramePageTable)
	b, _ := m.Alloc(FrameAnon)
	m.Free(a)
	c, err := m.Alloc(FramePageCache)
	if err != nil {
		t.Fatalf("Alloc after Free: %v", err)
	}
	if c != a {
		t.Errorf("expected freed frame %d to be reused, got %d", a, c)
	}
	if frameOf(m, c).Kind != FramePageCache {
		t.Errorf("reused frame kind = %v, want pagecache", frameOf(m, c).Kind)
	}
	_ = b
}

func TestAllocFreeKindRejected(t *testing.T) {
	m := New(1)
	if _, err := m.Alloc(FrameFree); err == nil {
		t.Fatal("Alloc(FrameFree) should fail")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := New(1)
	n, _ := m.Alloc(FrameAnon)
	m.Free(n)
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	m.Free(n)
}

func TestFreeMappedPanics(t *testing.T) {
	m := New(1)
	n, _ := m.Alloc(FrameAnon)
	m.Get(n)
	defer func() {
		if recover() == nil {
			t.Error("freeing a mapped frame should panic")
		}
	}()
	m.Free(n)
}

func TestGetPut(t *testing.T) {
	m := New(1)
	n, _ := m.Alloc(FramePageTable)
	if got := m.Get(n); got != 1 {
		t.Errorf("Get = %d, want 1", got)
	}
	if got := m.Get(n); got != 2 {
		t.Errorf("Get = %d, want 2", got)
	}
	if got := m.Put(n); got != 1 {
		t.Errorf("Put = %d, want 1", got)
	}
	if got := m.MapCount(n); got != 1 {
		t.Errorf("MapCount = %d, want 1", got)
	}
	if got := m.Put(n); got != 0 {
		t.Errorf("Put = %d, want 0", got)
	}
}

func TestPutUnderflowPanics(t *testing.T) {
	m := New(1)
	n, _ := m.Alloc(FramePageTable)
	defer func() {
		if recover() == nil {
			t.Error("Put below zero should panic")
		}
	}()
	m.Put(n)
}

func TestStats(t *testing.T) {
	m := New(4)
	a, _ := m.Alloc(FramePageTable)
	_, _ = m.Alloc(FrameAnon)
	_, _ = m.Alloc(FrameAnon)
	m.Free(a)
	s := m.Stats()
	if s.Allocated != 3 {
		t.Errorf("Allocated = %d, want 3", s.Allocated)
	}
	if s.Freed != 1 {
		t.Errorf("Freed = %d, want 1", s.Freed)
	}
	if s.InUse != 2 {
		t.Errorf("InUse = %d, want 2", s.InUse)
	}
	if s.ByKind[FrameAnon] != 2 {
		t.Errorf("ByKind[anon] = %d, want 2", s.ByKind[FrameAnon])
	}
	if s.ByKind[FramePageTable] != 0 {
		t.Errorf("ByKind[pagetable] = %d, want 0", s.ByKind[FramePageTable])
	}
	if got := m.InUseByKind(FrameAnon); got != 2 {
		t.Errorf("InUseByKind(anon) = %d, want 2", got)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	m := New(2)
	_, _ = m.Alloc(FrameAnon)
	s := m.Stats()
	s.ByKind[FrameAnon] = 99
	if m.Stats().ByKind[FrameAnon] != 1 {
		t.Error("mutating a stats snapshot must not affect the allocator")
	}
}

// TestAllocUniqueProperty checks that a random interleaving of allocs and
// frees never hands out the same frame twice while it is live.
func TestAllocUniqueProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		m := New(64)
		live := make(map[arch.FrameNum]bool)
		var order []arch.FrameNum
		for _, alloc := range ops {
			if alloc || len(order) == 0 {
				n, err := m.Alloc(FrameAnon)
				if err != nil {
					continue // exhausted; acceptable
				}
				if live[n] {
					return false // double allocation of a live frame
				}
				live[n] = true
				order = append(order, n)
			} else {
				n := order[len(order)-1]
				order = order[:len(order)-1]
				delete(live, n)
				m.Free(n)
			}
		}
		return m.Stats().InUse == len(live)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrameKindString(t *testing.T) {
	for k := FrameFree; k <= FrameKernel+1; k++ {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
}

func TestAllocRangeContiguousAligned(t *testing.T) {
	m := New(128)
	// Disturb the bump pointer so alignment skipping is exercised.
	a, _ := m.Alloc(FrameAnon)
	_ = a
	base, err := m.AllocRange(16, 16, FramePageCache)
	if err != nil {
		t.Fatal(err)
	}
	if base%16 != 0 {
		t.Errorf("base %d not 16-frame aligned", base)
	}
	for i := 0; i < 16; i++ {
		f := frameOf(m, base+arch.FrameNum(i))
		if f.Kind != FramePageCache {
			t.Fatalf("frame %d kind = %v", base+arch.FrameNum(i), f.Kind)
		}
	}
	// Frames skipped for alignment are recycled by ordinary Alloc.
	n, err := m.Alloc(FrameAnon)
	if err != nil {
		t.Fatal(err)
	}
	if n >= base {
		t.Errorf("skipped frame should be reused, got %d (range base %d)", n, base)
	}
}

func TestAllocRangeExhaustion(t *testing.T) {
	m := New(20)
	if _, err := m.AllocRange(32, 16, FramePageCache); err == nil {
		t.Error("range beyond memory should fail")
	}
	if _, err := m.AllocRange(0, 16, FramePageCache); err == nil {
		t.Error("zero-length range should fail")
	}
	if _, err := m.AllocRange(16, 16, FrameFree); err == nil {
		t.Error("free-kind range should fail")
	}
}
