package mem

import (
	"fmt"

	"repro/internal/arch"
)

// Snapshot is the complete serializable state of a PhysMem: the frame
// metadata as its chunk list plus the allocator bookkeeping. It exists
// for the persistent image store (internal/imagestore). The frame table
// is by far the largest section of an image, so neither direction
// copies it: SnapshotState hands out the live chunks for the encoder to
// write one by one, and Restore adopts chunk views of a decoded (often
// memory-mapped) frame section built with ChunkViews.
type Snapshot struct {
	// NFrames is the physical memory size in frames.
	NFrames int
	// Chunks is the frame metadata, chunk by chunk in frame order: every
	// chunk but the last holds exactly chunkFrames frames, and together
	// they hold NFrames. The chunks are shared, never copied, so both
	// sides must treat them as read-only. The JSON name is the field's
	// former name, which keeps the stored metadata document of format
	// version 1 byte for byte (the image store always marshals it nil).
	Chunks [][]Frame `json:"Frames"`
	// FreeList is the allocator free list; order is significant (the
	// allocator pops from the back, LIFO).
	FreeList []arch.FrameNum
	// Next is the bump pointer.
	Next arch.FrameNum
	// Stats is the cumulative allocator statistics.
	Stats Stats
}

// SnapshotState captures the allocator state. The chunk list is a fresh
// slice, but its chunks are the live ones: the snapshot is only valid
// while nothing writes m, which holds for a checkpoint image's machine
// (its chunks are shared with every fork and owned by none).
func (m *PhysMem) SnapshotState() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		NFrames:  m.nframes,
		Chunks:   append([][]Frame(nil), m.chunks...),
		FreeList: append([]arch.FrameNum(nil), m.freeList...),
		Next:     m.next,
		Stats:    m.stats,
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
// copies it out of the snapshot's memory. That makes Restore safe over
// memory-mapped image files — the mapping is never written.
func Restore(s Snapshot) (*PhysMem, error) {
	if s.NFrames <= 0 {
		return nil, fmt.Errorf("mem: snapshot of %d frames", s.NFrames)
	}
	if int(s.Next) > s.NFrames {
		return nil, fmt.Errorf("mem: snapshot bump pointer %d beyond %d frames", s.Next, s.NFrames)
	}
	nChunks := (s.NFrames + chunkFrames - 1) / chunkFrames
	if len(s.Chunks) != nChunks {
		return nil, fmt.Errorf("mem: snapshot has %d frame chunks for %d frames", len(s.Chunks), s.NFrames)
	}
	m := &PhysMem{
		nframes:  s.NFrames,
		chunks:   make([][]Frame, nChunks),
		owned:    make([]bool, nChunks),
		freeList: append([]arch.FrameNum(nil), s.FreeList...),
		next:     s.Next,
		stats:    s.Stats,
	}
	for i, c := range s.Chunks {
		n := min(chunkFrames, s.NFrames-i*chunkFrames)
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
		if int(fn) >= s.NFrames {
			return nil, fmt.Errorf("mem: snapshot free list entry %d beyond %d frames", fn, s.NFrames)
		}
	}
	return m, nil
}
