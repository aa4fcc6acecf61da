// Package mem implements the simulated physical memory substrate: a page
// frame allocator and per-frame metadata. Frame metadata mirrors the parts
// of the Linux struct page that the shared-address-translation design
// relies on — in particular the mapcount field, which the paper reuses to
// maintain the number of processes sharing a page-table page.
//
// Frame metadata is stored in fixed-size chunks that a Fork shares
// copy-on-write between the parent and the child PhysMem: a chunk is
// copied the first time either side writes any frame in it, so a forked
// machine that never touches a region of physical memory never pays for
// its metadata (the checkpoint/fork facility in internal/checkpoint is
// built on this). A chunk no frame has been written in is not allocated
// at all: it reads as zero Frames. Only frames below the bump pointer
// are ever written, so a machine's frame table costs what it has
// allocated, not the size of its physical memory.
package mem

import (
	"fmt"
	"sync"

	"repro/internal/arch"
)

// FrameKind records what a physical frame is currently used for, for
// accounting and debugging.
type FrameKind uint8

const (
	// FrameFree marks an unallocated frame.
	FrameFree FrameKind = iota
	// FrameAnon holds anonymous user memory.
	FrameAnon
	// FramePageCache holds a file-backed page shared via the page cache.
	FramePageCache
	// FramePageTable holds a level-2 page-table page (PTP): the pair of
	// hardware and Linux-shadow 256-entry tables occupying one 4KB page.
	FramePageTable
	// FrameKernel holds kernel text or data.
	FrameKernel
)

// String names the frame kind.
func (k FrameKind) String() string {
	switch k {
	case FrameFree:
		return "free"
	case FrameAnon:
		return "anon"
	case FramePageCache:
		return "pagecache"
	case FramePageTable:
		return "pagetable"
	case FrameKernel:
		return "kernel"
	default:
		return "unknown"
	}
}

// Frame is the metadata kept for one 4KB physical page frame.
type Frame struct {
	// Num is the frame number.
	Num arch.FrameNum
	// Kind is the current use of the frame.
	Kind FrameKind
	// MapCount counts users of the frame. For anonymous and page-cache
	// frames it is the number of PTEs mapping the frame; for page-table
	// pages it is the number of processes sharing the PTP, exactly as
	// the paper reuses the existing mapcount field of the PTP's page
	// structure.
	MapCount int
}

// Stats reports cumulative allocator activity.
type Stats struct {
	// Allocated counts every successful Alloc call.
	Allocated uint64
	// Freed counts every Free call.
	Freed uint64
	// InUse is the number of frames currently allocated.
	InUse int
	// ByKind is the number of frames currently allocated per kind.
	ByKind map[FrameKind]int
}

// chunkFrames is the number of frames whose metadata shares one
// copy-on-write chunk. 4096 frames of metadata is ~100KB: small enough
// that a single dirtied frame does not drag much dead weight along,
// large enough that a full copy of physical memory is a few dozen chunk
// headers.
const chunkFrames = 4096

// MaxFrames is the largest physical memory, in frames, that an
// arch.FrameNum can number.
const MaxFrames = 1 << 32

// PhysMem is the physical memory allocator. The zero value is not usable;
// construct with New.
//
// Frames at or above the bump pointer are never written: Alloc takes
// from the free list or from next, AllocRange puts the frames it skips
// for alignment onto the free list (all below its new next), and Free,
// Get and Put panic on a free frame. So the chunks wholly at or above
// next are still nil.
type PhysMem struct {
	mu      sync.Mutex
	nframes int
	// chunks[i] holds the metadata for frames [i*chunkFrames,
	// (i+1)*chunkFrames), or is nil while no frame in it has been
	// written. owned[i] records whether this PhysMem may write chunk i
	// in place; after a Fork both sides drop ownership of every chunk
	// and re-earn it by copying on first write. A nil chunk is never
	// owned: its first write allocates it.
	chunks   [][]Frame
	owned    []bool
	freeList []arch.FrameNum
	next     arch.FrameNum
	stats    Stats
}

// New creates a physical memory of the given number of 4KB frames. It
// allocates no frame metadata; each chunk is allocated by its first
// write.
func New(frames int) *PhysMem {
	if frames <= 0 {
		panic(fmt.Sprintf("mem: non-positive frame count %d", frames))
	}
	nChunks := (frames + chunkFrames - 1) / chunkFrames
	return &PhysMem{
		nframes: frames,
		chunks:  make([][]Frame, nChunks),
		owned:   make([]bool, nChunks),
		stats:   Stats{ByKind: make(map[FrameKind]int)},
	}
}

// chunkLen is the number of frames chunk i covers in a memory of
// nframes frames: chunkFrames for all but a short last chunk.
func chunkLen(nframes, i int) int {
	return min(chunkFrames, nframes-i*chunkFrames)
}

// Fork returns a copy-on-write duplicate of this physical memory: frame
// metadata chunks are shared by reference and both sides lose write
// ownership, so the first mutation of a chunk — on either side — copies
// it. Allocator bookkeeping (free list, bump pointer, stats) is copied
// eagerly; it is tiny compared to the frame array.
func (m *PhysMem) Fork() *PhysMem {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.owned {
		m.owned[i] = false
	}
	f := &PhysMem{
		nframes:  m.nframes,
		chunks:   append([][]Frame(nil), m.chunks...),
		owned:    make([]bool, len(m.owned)),
		freeList: append([]arch.FrameNum(nil), m.freeList...),
		next:     m.next,
		stats:    m.stats,
	}
	f.stats.ByKind = make(map[FrameKind]int, len(m.stats.ByKind))
	for k, v := range m.stats.ByKind {
		f.stats.ByKind[k] = v
	}
	return f
}

// writableLocked returns the metadata for frame n from a chunk this
// PhysMem owns, copying the chunk first if it is still shared with a
// fork ancestor or descendant, or allocating it if it is still nil.
func (m *PhysMem) writableLocked(n arch.FrameNum) *Frame {
	if int(n) >= m.nframes {
		panic(fmt.Sprintf("mem: frame %d out of range (%d frames)", n, m.nframes))
	}
	ci := int(n) / chunkFrames
	if !m.owned[ci] {
		c := make([]Frame, chunkLen(m.nframes, ci))
		copy(c, m.chunks[ci])
		m.chunks[ci] = c
		m.owned[ci] = true
	}
	return &m.chunks[ci][int(n)%chunkFrames]
}

// frameLocked returns a copy of the metadata for frame n: the zero
// Frame when its chunk is still nil. The chunk may be shared with
// another PhysMem, so it is only read.
func (m *PhysMem) frameLocked(n arch.FrameNum) Frame {
	if int(n) >= m.nframes {
		panic(fmt.Sprintf("mem: frame %d out of range (%d frames)", n, m.nframes))
	}
	c := m.chunks[int(n)/chunkFrames]
	if c == nil {
		return Frame{}
	}
	return c[int(n)%chunkFrames]
}

// Alloc allocates one frame for the given use. It returns an error when
// physical memory is exhausted.
func (m *PhysMem) Alloc(kind FrameKind) (arch.FrameNum, error) {
	if kind == FrameFree {
		return 0, fmt.Errorf("mem: cannot allocate a frame as %v", kind)
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	var n arch.FrameNum
	switch {
	case len(m.freeList) > 0:
		n = m.freeList[len(m.freeList)-1]
		m.freeList = m.freeList[:len(m.freeList)-1]
	case int(m.next) < m.nframes:
		n = m.next
		m.next++
	default:
		return 0, fmt.Errorf("mem: out of physical memory (%d frames)", m.nframes)
	}
	f := m.writableLocked(n)
	f.Num = n
	f.Kind = kind
	f.MapCount = 0
	m.stats.Allocated++
	m.stats.InUse++
	m.stats.ByKind[kind]++
	return n, nil
}

// AllocRange allocates n physically contiguous frames whose base is
// aligned to align frames, as required for ARM 64KB large-page mappings
// (16 contiguous, aligned frames). Contiguity comes from the bump region;
// frames skipped for alignment go to the free list.
func (m *PhysMem) AllocRange(n, align int, kind FrameKind) (arch.FrameNum, error) {
	if kind == FrameFree {
		return 0, fmt.Errorf("mem: cannot allocate a range as %v", kind)
	}
	if n <= 0 || align <= 0 {
		return 0, fmt.Errorf("mem: invalid range request n=%d align=%d", n, align)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	base := m.next
	if rem := int(base) % align; rem != 0 {
		base += arch.FrameNum(align - rem)
	}
	if int(base)+n > m.nframes {
		return 0, fmt.Errorf("mem: out of contiguous physical memory (%d frames)", m.nframes)
	}
	for f := m.next; f < base; f++ {
		m.freeList = append(m.freeList, f)
	}
	m.next = base + arch.FrameNum(n)
	for i := 0; i < n; i++ {
		fr := m.writableLocked(base + arch.FrameNum(i))
		fr.Num = base + arch.FrameNum(i)
		fr.Kind = kind
		fr.MapCount = 0
		m.stats.Allocated++
		m.stats.InUse++
		m.stats.ByKind[kind]++
	}
	return base, nil
}

// Free releases a frame back to the allocator. Freeing a frame that is
// already free or still mapped is a programming error and panics, since a
// simulated kernel double-free means the simulation itself is wrong.
func (m *PhysMem) Free(n arch.FrameNum) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.frameLocked(n)
	if f.Kind == FrameFree {
		panic(fmt.Sprintf("mem: double free of frame %d", n))
	}
	if f.MapCount != 0 {
		panic(fmt.Sprintf("mem: freeing frame %d with mapcount %d", n, f.MapCount))
	}
	w := m.writableLocked(n)
	m.stats.ByKind[w.Kind]--
	w.Kind = FrameFree
	m.stats.Freed++
	m.stats.InUse--
	m.freeList = append(m.freeList, n)
}

// Get is like MapCount bookkeeping in Linux: it increments the frame's
// user count and returns the new count.
func (m *PhysMem) Get(n arch.FrameNum) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.frameLocked(n).Kind == FrameFree {
		panic(fmt.Sprintf("mem: get on free frame %d", n))
	}
	f := m.writableLocked(n)
	f.MapCount++
	return f.MapCount
}

// Put decrements the frame's user count and returns the new count. It does
// not free the frame; the caller decides whether a zero count means the
// frame should be reclaimed (a page-cache frame, for example, survives at
// count zero until its file is truncated).
func (m *PhysMem) Put(n arch.FrameNum) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.frameLocked(n)
	if f.Kind == FrameFree {
		panic(fmt.Sprintf("mem: put on free frame %d", n))
	}
	if f.MapCount <= 0 {
		panic(fmt.Sprintf("mem: put on frame %d with mapcount %d", n, f.MapCount))
	}
	w := m.writableLocked(n)
	w.MapCount--
	return w.MapCount
}

// MapCount returns the frame's current user count.
func (m *PhysMem) MapCount(n arch.FrameNum) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frameLocked(n).MapCount
}

// Stats returns a snapshot of allocator statistics.
func (m *PhysMem) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.ByKind = make(map[FrameKind]int, len(m.stats.ByKind))
	for k, v := range m.stats.ByKind {
		s.ByKind[k] = v
	}
	return s
}

// InUseByKind returns the number of frames currently allocated for kind.
func (m *PhysMem) InUseByKind(kind FrameKind) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats.ByKind[kind]
}

// SharedChunks reports how many metadata chunks this PhysMem does not
// own (i.e. still shares with a fork relative). A nil chunk, one no
// frame has been written in, counts as shared: it is not owned, and it
// costs nothing to either side. Test helper for the zero-copy fork
// guarantees.
func (m *PhysMem) SharedChunks() (shared, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, own := range m.owned {
		if !own {
			shared++
		}
	}
	return shared, len(m.owned)
}
