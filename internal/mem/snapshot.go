package mem

import (
	"fmt"

	"repro/internal/arch"
)

// Snapshot is the complete serializable state of a PhysMem: the frame
// metadata below the bump pointer as its chunk list plus the allocator
// bookkeeping. It exists for the persistent image store
// (internal/imagestore). The frame table is a bulky section of an
// image, so neither direction copies it: SnapshotState hands out
// the live chunks for the encoder to write one by one, and Restore
// adopts chunk views of a decoded (often memory-mapped) frame section
// built with ChunkViews. Frames at or above the bump pointer are never
// written, so they are all zero and the snapshot leaves them out.
type Snapshot struct {
	// NFrames is the physical memory size in frames.
	NFrames int
	// Chunks is the frame metadata of the chunks that hold a frame
	// below Next, in frame order: StoredFrames frames in all,
	// chunkFrames per chunk except a short last chunk of physical
	// memory. The chunks are shared, never copied, so both sides must
	// treat them as read-only. The JSON name is the field's former
	// name; the image store always marshals the field nil, so the
	// metadata document kept its bytes when the field was renamed.
	Chunks [][]Frame `json:"Frames"`
	// FreeList is the allocator free list; order is significant (the
	// allocator pops from the back, LIFO).
	FreeList []arch.FrameNum
	// Next is the bump pointer.
	Next arch.FrameNum
	// Stats is the cumulative allocator statistics.
	Stats Stats
}

// storedChunks is the number of chunks the snapshot carries: those
// that hold a frame below Next.
func (s *Snapshot) storedChunks() int {
	return (int(s.Next) + chunkFrames - 1) / chunkFrames
}

// StoredFrames is the number of frames the snapshot's chunks hold.
func (s *Snapshot) StoredFrames() int {
	return min(s.storedChunks()*chunkFrames, s.NFrames)
}

// SnapshotState captures the allocator state. The chunk list is a fresh
// slice, but its chunks are the live ones: the snapshot is only valid
// while nothing writes m, which holds for a checkpoint image's machine
// (its chunks are shared with every fork and owned by none). A chunk
// below the bump pointer that is still nil (only an AllocRange aligned
// to more than a chunk skips one whole) is handed out as zeros.
func (m *PhysMem) SnapshotState() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		NFrames:  m.nframes,
		FreeList: append([]arch.FrameNum(nil), m.freeList...),
		Next:     m.next,
		Stats:    m.stats,
	}
	s.Chunks = append([][]Frame(nil), m.chunks[:s.storedChunks()]...)
	for i, c := range s.Chunks {
		if c == nil {
			s.Chunks[i] = make([]Frame, chunkLen(m.nframes, i))
		}
	}
	s.Stats.ByKind = make(map[FrameKind]int, len(m.stats.ByKind))
	for k, v := range m.stats.ByKind {
		s.Stats.ByKind[k] = v
	}
	return s
}

// ChunkViews splits a flat frame table into the chunk list Restore
// expects. The views alias frames; nothing is copied.
func ChunkViews(frames []Frame) [][]Frame {
	chunks := make([][]Frame, 0, (len(frames)+chunkFrames-1)/chunkFrames)
	for lo := 0; lo < len(frames); lo += chunkFrames {
		hi := min(lo+chunkFrames, len(frames))
		chunks = append(chunks, frames[lo:hi:hi])
	}
	return chunks
}

// Restore rebuilds a PhysMem from a snapshot. The chunks are adopted
// without copying and the PhysMem starts with no chunk ownership,
// exactly like the survivor of a Fork: the first write to any chunk
// copies it out of the snapshot's memory, and the chunks above the
// snapshot's stay nil until their first write allocates them. That
// makes Restore safe over memory-mapped image files — the mapping is
// never written.
func Restore(s Snapshot) (*PhysMem, error) {
	if s.NFrames <= 0 || uint64(s.NFrames) > MaxFrames {
		return nil, fmt.Errorf("mem: snapshot of %d frames, outside [1, %d]", s.NFrames, uint64(MaxFrames))
	}
	if int(s.Next) > s.NFrames {
		return nil, fmt.Errorf("mem: snapshot bump pointer %d beyond %d frames", s.Next, s.NFrames)
	}
	if want := s.storedChunks(); len(s.Chunks) != want {
		return nil, fmt.Errorf("mem: snapshot has %d frame chunks, bump pointer %d needs %d", len(s.Chunks), s.Next, want)
	}
	nChunks := (s.NFrames + chunkFrames - 1) / chunkFrames
	m := &PhysMem{
		nframes:  s.NFrames,
		chunks:   make([][]Frame, nChunks),
		owned:    make([]bool, nChunks),
		freeList: append([]arch.FrameNum(nil), s.FreeList...),
		next:     s.Next,
		stats:    s.Stats,
	}
	for i, c := range s.Chunks {
		n := chunkLen(s.NFrames, i)
		if len(c) != n {
			return nil, fmt.Errorf("mem: snapshot chunk %d holds %d frames, want %d", i, len(c), n)
		}
		m.chunks[i] = c[:n:n]
	}
	m.stats.ByKind = make(map[FrameKind]int, len(s.Stats.ByKind))
	for k, v := range s.Stats.ByKind {
		m.stats.ByKind[k] = v
	}
	for _, fn := range m.freeList {
		if fn >= s.Next {
			return nil, fmt.Errorf("mem: snapshot free list entry %d at or beyond bump pointer %d", fn, s.Next)
		}
	}
	return m, nil
}
