package mem

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
)

// allocN allocates n anonymous frames from m.
func allocN(t testing.TB, m *PhysMem, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := m.Alloc(FrameAnon); err != nil {
			t.Fatal(err)
		}
	}
}

// liveChunks counts the chunks of m that are allocated.
func liveChunks(m *PhysMem) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

func TestNewAllocatesNoChunk(t *testing.T) {
	m := New(1 << 18)
	if got := liveChunks(m); got != 0 {
		t.Errorf("New(1<<18) allocated %d chunks, want 0", got)
	}
	if shared, total := m.SharedChunks(); shared != total || total != 64 {
		t.Errorf("SharedChunks = %d of %d, want 64 of 64 (a nil chunk counts as shared)", shared, total)
	}
}

func TestNeverWrittenFrameReadsZero(t *testing.T) {
	m := New(1 << 18)
	allocN(t, m, 10)
	for _, n := range []arch.FrameNum{10, chunkFrames - 1, chunkFrames, 1<<18 - 1} {
		if f := frameOf(m, n); f != (Frame{}) {
			t.Errorf("frame %d = %+v, want the zero Frame", n, f)
		}
		if got := m.MapCount(n); got != 0 {
			t.Errorf("MapCount(%d) = %d, want 0", n, got)
		}
	}
	if got := liveChunks(m); got != 1 {
		t.Errorf("%d chunks live after reads above the bump pointer, want 1", got)
	}
}

func TestSnapshotCarriesChunksBelowNext(t *testing.T) {
	for _, next := range []int{0, 1, chunkFrames - 1, chunkFrames, chunkFrames + 1, 3*chunkFrames + 7} {
		m := New(1 << 18)
		allocN(t, m, next)
		s := m.SnapshotState()
		if want := (next + chunkFrames - 1) / chunkFrames; len(s.Chunks) != want {
			t.Errorf("Next %d: snapshot has %d chunks, want %d", next, len(s.Chunks), want)
		}
		if want := len(s.Chunks) * chunkFrames; s.StoredFrames() != want {
			t.Errorf("Next %d: StoredFrames = %d, want %d", next, s.StoredFrames(), want)
		}
	}
	// A memory that is not a whole number of chunks: the last chunk is
	// short, and StoredFrames stops at the memory's end.
	m := New(chunkFrames + 10)
	allocN(t, m, chunkFrames+3)
	s := m.SnapshotState()
	if len(s.Chunks) != 2 || len(s.Chunks[1]) != 10 || s.StoredFrames() != chunkFrames+10 {
		t.Errorf("short memory: %d chunks, last of %d frames, StoredFrames %d; want 2, 10, %d",
			len(s.Chunks), len(s.Chunks[len(s.Chunks)-1]), s.StoredFrames(), chunkFrames+10)
	}
}

// TestSnapshotFillsSkippedChunk: an AllocRange aligned to more than a
// chunk skips a whole chunk onto the free list without writing it. The
// snapshot must still carry it, as zeros, and it must restore.
func TestSnapshotFillsSkippedChunk(t *testing.T) {
	m := New(1 << 18)
	allocN(t, m, 1)
	base, err := m.AllocRange(16, 2*chunkFrames, FramePageCache)
	if err != nil {
		t.Fatal(err)
	}
	if base != 2*chunkFrames {
		t.Fatalf("AllocRange base %d, want %d", base, 2*chunkFrames)
	}
	s := m.SnapshotState()
	if len(s.Chunks) != 3 || len(s.Chunks[1]) != chunkFrames {
		t.Fatalf("snapshot has %d chunks (chunk 1 of %d frames); want 3 with a whole chunk 1", len(s.Chunks), len(s.Chunks[1]))
	}
	r, err := Restore(s)
	if err != nil {
		t.Fatal(err)
	}
	// The skipped frames are on the free list; allocating them writes
	// the restored copy of the zero chunk.
	n, err := r.Alloc(FrameAnon)
	if err != nil {
		t.Fatal(err)
	}
	if n >= base || frameOf(r, n).Kind != FrameAnon {
		t.Errorf("restored Alloc gave frame %d (%v); want a skipped frame below %d", n, frameOf(r, n).Kind, base)
	}
}

func TestRestoredAllocatesPastSection(t *testing.T) {
	m := New(1 << 18)
	allocN(t, m, chunkFrames+5)
	s := m.SnapshotState()
	r, err := Restore(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := liveChunks(r); got != 2 {
		t.Errorf("restored memory holds %d chunks, want the snapshot's 2", got)
	}
	allocN(t, r, 3*chunkFrames)
	for _, n := range []arch.FrameNum{chunkFrames + 4, 2 * chunkFrames, 4*chunkFrames + 4} {
		if f := frameOf(r, n); f.Kind != FrameAnon || f.Num != n {
			t.Errorf("restored frame %d = %+v, want an anon frame", n, f)
		}
	}
	if got := frameOf(r, 4*chunkFrames+5); got != (Frame{}) {
		t.Errorf("frame past the new bump pointer = %+v, want zero", got)
	}
	// The snapshot's chunks stay as they were captured.
	if f := s.Chunks[1][chunkFrames-1]; f != (Frame{}) {
		t.Errorf("restoring and allocating wrote the snapshot's chunk: %+v", f)
	}
}

func TestRestoreRejects(t *testing.T) {
	m := New(1 << 18)
	allocN(t, m, 10)
	for _, c := range []struct {
		name string
		edit func(*Snapshot)
		want string
	}{
		{"huge", func(s *Snapshot) { s.NFrames = MaxFrames + 1 }, "snapshot of 4294967297 frames"},
		{"chunk-short", func(s *Snapshot) { s.Chunks = nil }, "bump pointer 10 needs 1"},
		{"free-at-next", func(s *Snapshot) { s.FreeList = []arch.FrameNum{10} }, "at or beyond bump pointer 10"},
	} {
		s := m.SnapshotState()
		c.edit(&s)
		if _, err := Restore(s); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Restore error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestForksOfRestoredRace runs two forks of one restored memory at once,
// each reading frames above the bump pointer and allocating past the
// restored section. Under -race it fails if a nil chunk's read or first
// write touches state the forks share.
func TestForksOfRestoredRace(t *testing.T) {
	m := New(1 << 18)
	allocN(t, m, chunkFrames+5)
	r, err := Restore(m.SnapshotState())
	if err != nil {
		t.Fatal(err)
	}
	forks := []*PhysMem{r.Fork(), r.Fork()}
	var wg sync.WaitGroup
	for _, f := range forks {
		wg.Add(1)
		go func(f *PhysMem) {
			defer wg.Done()
			for i := 0; i < 2*chunkFrames; i++ {
				n, err := f.Alloc(FrameAnon)
				if err != nil {
					t.Error(err)
					return
				}
				f.Get(n)
				if frameOf(f, n+1).Kind != FrameFree || f.MapCount(n) != 1 {
					t.Errorf("frame %d or %d reads wrong", n, n+1)
					return
				}
			}
		}(f)
	}
	wg.Wait()
}
